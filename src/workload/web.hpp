// Web-browsing workload (Section 4.2, "Multiple TCP clients").
//
// Each browsing client fetches a sequence of pages: a main document plus
// several embedded objects, each over its own TCP connection (HTTP/1.0
// style, which is what gives the paper's "multiple concurrent TCP streams
// per client").  The whole visit sequence is generated ahead of time from
// a seed — the paper uses pre-generated scripts so traffic is identical
// across experiments — and shared between client and server, standing in
// for request URLs.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/node.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "transport/tcp.hpp"

namespace pp::workload {

inline constexpr net::Port kHttpPort = 80;

struct PageVisit {
  sim::Duration think_before;           // idle time before the request
  std::uint32_t main_bytes;             // main document size
  std::vector<std::uint32_t> objects;   // embedded object sizes
};

struct WebScriptParams {
  double think_mean_s = 4.0;
  double main_mu = 9.2, main_sigma = 0.8;     // lognormal, ~15 KB median
  int min_objects = 2, max_objects = 8;
  double obj_alpha = 1.3;                     // bounded Pareto shape
  double obj_min = 2'000, obj_max = 60'000;
  int pages = 20;
};

std::vector<PageVisit> generate_web_script(std::uint64_t seed,
                                           WebScriptParams params = {});

// Total bytes a script will transfer (for test assertions).
std::uint64_t script_bytes(const std::vector<PageVisit>& script);

// -- Server ----------------------------------------------------------------------

// Serves objects whose sizes come from per-client scripts; responds to any
// request bytes on an accepted connection with the next scripted size,
// then closes the connection.
class HttpServer {
 public:
  explicit HttpServer(net::Node& node);

  // Queue the response sizes for `client`, in fetch order.
  void add_script(net::Ipv4Addr client, const std::vector<PageVisit>& script);
  void push_response(net::Ipv4Addr client, std::uint32_t bytes);

 private:
  transport::TcpServer server_;
  std::unordered_map<net::Ipv4Addr, std::deque<std::uint32_t>, net::Ipv4AddrHash>
      pending_;
};

// -- Client ----------------------------------------------------------------------

struct WebClientParams {
  std::uint32_t request_bytes = 300;
  int max_parallel = 4;  // concurrent object connections per page
};

class WebBrowsingClient {
 public:
  WebBrowsingClient(net::Node& node, net::Ipv4Addr server,
                    std::vector<PageVisit> script, WebClientParams params = {});

  void start(sim::Time at);

  struct Stats {
    int pages_completed = 0;
    int objects_completed = 0;
    std::uint64_t bytes_received = 0;
    sim::Duration total_page_time;  // request to last object, summed
  };
  const Stats& stats() const { return stats_; }
  bool finished() const { return page_idx_ >= script_.size() && inflight_ == 0; }

 private:
  void next_page();
  void fetch(std::uint32_t expect_hint, bool is_main);
  void object_done();

  net::Node& node_;
  net::Ipv4Addr server_;
  std::vector<PageVisit> script_;
  WebClientParams params_;
  std::size_t page_idx_ = 0;
  std::size_t obj_idx_ = 0;  // next object of the current page
  int inflight_ = 0;
  bool main_done_ = false;
  sim::Time page_started_;
  std::vector<std::unique_ptr<transport::TcpConnection>> conns_;
  Stats stats_;
};

}  // namespace pp::workload
