#include "workload/ftp.hpp"

namespace pp::workload {

FtpServer::FtpServer(net::Node& node) : server_{node, kFtpPort} {
  server_.set_on_accept([this](transport::TcpConnection& c) {
    const net::Ipv4Addr client = c.remote().ip;
    auto sent = std::make_shared<bool>(false);
    c.set_on_deliver([this, client, &c, sent](std::uint64_t) {
      if (*sent) return;
      auto it = files_.find(client);
      if (it == files_.end()) return;
      *sent = true;
      c.send(it->second);
      c.close();
    });
  });
}

void FtpServer::add_file(net::Ipv4Addr client, std::uint64_t bytes) {
  files_[client] = bytes;
}

FtpClient::FtpClient(net::Node& node, net::Ipv4Addr server)
    : node_{node}, server_{server} {}

void FtpClient::download(sim::Time at) {
  node_.sim().at(at, [this] {
    stats_.started_at = node_.sim().now();
    conn_ = transport::tcp_connect(node_, server_, kFtpPort);
    conn_->set_on_established([this] { conn_->send(100); });  // RETR request
    conn_->set_on_deliver(
        [this](std::uint64_t n) { stats_.bytes_received += n; });
    conn_->set_on_remote_fin([this] {
      stats_.finished = true;
      stats_.finished_at = node_.sim().now();
      conn_->close();
    });
  });
}

}  // namespace pp::workload
