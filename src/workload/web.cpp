#include "workload/web.hpp"

#include <algorithm>

namespace pp::workload {

std::vector<PageVisit> generate_web_script(std::uint64_t seed,
                                           WebScriptParams params) {
  sim::Rng rng{seed};
  std::vector<PageVisit> script;
  script.reserve(params.pages);
  for (int p = 0; p < params.pages; ++p) {
    PageVisit v;
    v.think_before = sim::Time::seconds(rng.exponential(params.think_mean_s));
    v.main_bytes = static_cast<std::uint32_t>(
        std::clamp(rng.lognormal(params.main_mu, params.main_sigma), 2'000.0,
                   200'000.0));
    const int nobj = static_cast<int>(
        rng.uniform_int(params.min_objects, params.max_objects));
    for (int i = 0; i < nobj; ++i) {
      v.objects.push_back(static_cast<std::uint32_t>(
          rng.pareto(params.obj_alpha, params.obj_min, params.obj_max)));
    }
    script.push_back(std::move(v));
  }
  return script;
}

std::uint64_t script_bytes(const std::vector<PageVisit>& script) {
  std::uint64_t total = 0;
  for (const auto& v : script) {
    total += v.main_bytes;
    for (auto o : v.objects) total += o;
  }
  return total;
}

// -- Server ----------------------------------------------------------------------

HttpServer::HttpServer(net::Node& node) : server_{node, kHttpPort} {
  server_.set_on_accept([this](transport::TcpConnection& c) {
    const net::Ipv4Addr client = c.remote().ip;
    auto responded = std::make_shared<bool>(false);
    c.set_on_deliver([this, client, &c, responded](std::uint64_t) {
      // First request bytes: answer with the next scripted object size.
      // A connection serves exactly one object (HTTP/1.0).
      if (*responded) return;
      auto it = pending_.find(client);
      if (it == pending_.end() || it->second.empty()) return;
      *responded = true;
      const std::uint32_t bytes = it->second.front();
      it->second.pop_front();
      c.send(bytes);
      c.close();
    });
    server_.reap_done();
  });
}

void HttpServer::add_script(net::Ipv4Addr client,
                            const std::vector<PageVisit>& script) {
  auto& q = pending_[client];
  for (const auto& v : script) {
    q.push_back(v.main_bytes);
    for (auto o : v.objects) q.push_back(o);
  }
}

void HttpServer::push_response(net::Ipv4Addr client, std::uint32_t bytes) {
  pending_[client].push_back(bytes);
}

// -- Client ----------------------------------------------------------------------

WebBrowsingClient::WebBrowsingClient(net::Node& node, net::Ipv4Addr server,
                                     std::vector<PageVisit> script,
                                     WebClientParams params)
    : node_{node},
      server_{server},
      script_{std::move(script)},
      params_{params} {}

void WebBrowsingClient::start(sim::Time at) {
  node_.sim().at(at, [this] { next_page(); });
}

void WebBrowsingClient::next_page() {
  // Drop finished connections before opening new ones.
  std::erase_if(conns_, [](const auto& c) { return c->done(); });
  if (page_idx_ >= script_.size()) return;
  const PageVisit& v = script_[page_idx_];
  node_.sim().after(v.think_before, [this] {
    page_started_ = node_.sim().now();
    main_done_ = false;
    obj_idx_ = 0;
    fetch(script_[page_idx_].main_bytes, /*is_main=*/true);
  });
}

void WebBrowsingClient::fetch(std::uint32_t /*expect_hint*/, bool is_main) {
  ++inflight_;
  auto conn = transport::tcp_connect(node_, server_, kHttpPort);
  transport::TcpConnection* raw = conn.get();
  raw->set_on_established(
      [this, raw] { raw->send(params_.request_bytes); });
  raw->set_on_deliver(
      [this](std::uint64_t n) { stats_.bytes_received += n; });
  raw->set_on_remote_fin([this, raw, is_main] {
    raw->close();
    --inflight_;
    ++stats_.objects_completed;
    if (is_main) main_done_ = true;
    object_done();
  });
  conns_.push_back(std::move(conn));
}

void WebBrowsingClient::object_done() {
  const PageVisit& v = script_[page_idx_];
  // After the main document, fan out object fetches with bounded
  // parallelism (browsers open a handful of connections).
  while (main_done_ && obj_idx_ < v.objects.size() &&
         inflight_ < params_.max_parallel) {
    const std::uint32_t bytes = v.objects[obj_idx_++];
    fetch(bytes, /*is_main=*/false);
  }
  if (main_done_ && obj_idx_ >= v.objects.size() && inflight_ == 0) {
    ++stats_.pages_completed;
    stats_.total_page_time += node_.sim().now() - page_started_;
    ++page_idx_;
    next_page();
  }
}

}  // namespace pp::workload
