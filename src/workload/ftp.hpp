// Bulk-transfer (ftp) workload: one long TCP download per client.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "net/node.hpp"
#include "sim/simulator.hpp"
#include "transport/tcp.hpp"

namespace pp::workload {

inline constexpr net::Port kFtpPort = 21;

// Serves one file per client; the size is registered out of band (standing
// in for the ftp control dialogue).
class FtpServer {
 public:
  explicit FtpServer(net::Node& node);

  void add_file(net::Ipv4Addr client, std::uint64_t bytes);

 private:
  transport::TcpServer server_;
  std::unordered_map<net::Ipv4Addr, std::uint64_t, net::Ipv4AddrHash> files_;
};

struct FtpClientStats {
  std::uint64_t bytes_received = 0;
  bool finished = false;
  sim::Time started_at;
  sim::Time finished_at;
  double transfer_seconds() const {
    return (finished_at - started_at).to_seconds();
  }
};

class FtpClient {
 public:
  FtpClient(net::Node& node, net::Ipv4Addr server);

  void download(sim::Time at);
  const FtpClientStats& stats() const { return stats_; }

 private:
  net::Node& node_;
  net::Ipv4Addr server_;
  std::unique_ptr<transport::TcpConnection> conn_;
  FtpClientStats stats_;
};

}  // namespace pp::workload
