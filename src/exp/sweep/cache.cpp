#include "exp/sweep/cache.hpp"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <utility>

#include "exp/sweep/key.hpp"

namespace pp::exp::sweep {

namespace {

namespace fs = std::filesystem;

constexpr char kRecordMagic[] = "ppsweep-record v1";

std::string fmt_f(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

// Token readers over a whitespace-separated stream.  istream's built-in
// double extraction does not accept hexfloat, so doubles go through
// strtod on a string token.
bool next_tok(std::istream& is, std::string& tok) {
  return static_cast<bool>(is >> tok);
}

bool read_u64(std::istream& is, std::uint64_t& v) {
  std::string t;
  if (!next_tok(is, t)) return false;
  char* end = nullptr;
  v = std::strtoull(t.c_str(), &end, 10);
  return end && *end == '\0';
}

bool read_i64(std::istream& is, std::int64_t& v) {
  std::string t;
  if (!next_tok(is, t)) return false;
  char* end = nullptr;
  v = std::strtoll(t.c_str(), &end, 10);
  return end && *end == '\0';
}

bool read_int(std::istream& is, int& v) {
  std::int64_t big = 0;
  if (!read_i64(is, big)) return false;
  v = static_cast<int>(big);
  return true;
}

bool read_f(std::istream& is, double& v) {
  std::string t;
  if (!next_tok(is, t)) return false;
  char* end = nullptr;
  v = std::strtod(t.c_str(), &end);
  return end && *end == '\0';
}

bool expect_tok(std::istream& is, const char* want) {
  std::string t;
  return next_tok(is, t) && t == want;
}

}  // namespace

RunRecord make_record(const ScenarioResult& res, std::uint64_t digest) {
  RunRecord r;
  r.clients = res.clients;
  r.proxy_stats = res.proxy_stats;
  r.fault_stats = res.fault_stats;
  r.horizon_ns = res.horizon.count_ns();
  r.ap_drops = res.ap_drops;
  r.frames_on_air = res.frames_on_air;
  r.digest = digest;
  return r;
}

void write_record(std::ostream& os, const RunRecord& r) {
  os << kRecordMagic << '\n';
  os << "horizon_ns " << r.horizon_ns << '\n';
  os << "ap_drops " << r.ap_drops << '\n';
  os << "frames_on_air " << r.frames_on_air << '\n';
  os << "digest " << r.digest << '\n';
  const proxy::ProxyStats& p = r.proxy_stats;
  os << "proxy " << p.schedules_sent << ' ' << p.bursts_opened << ' '
     << p.queued_packets << ' ' << p.burst_packets << ' ' << p.queue_drops
     << ' ' << p.udp_bytes_burst << ' ' << p.tcp_bytes_burst << ' '
     << p.splices_created << ' ' << p.splices_closed << ' '
     << p.empty_burst_markers << ' ' << p.unmatched_packets << ' '
     << p.schedule_repeats_sent << ' ' << p.pauses << ' ' << p.joins << ' '
     << p.leaves << ' ' << p.renegotiations << ' ' << p.bursts_skipped << ' '
     << p.churn_drained_bytes << ' ' << p.churn_dropped_packets << ' '
     << p.churn_dropped_bytes << '\n';
  const fault::FaultStats& f = r.fault_stats;
  os << "fault " << f.windows_activated << ' ' << f.windows_recovered << ' '
     << f.fade_losses << '\n';
  os << "clients " << r.clients.size() << '\n';
  for (const ClientResult& c : r.clients) {
    os << "c " << c.ip.raw() << ' ' << c.role << ' ' << fmt_f(c.saved_pct)
       << ' ' << fmt_f(c.energy_mj) << ' ' << fmt_f(c.naive_mj) << ' '
       << fmt_f(c.loss_pct) << ' ' << c.packets_received << ' '
       << c.packets_missed << ' ' << c.bytes_received << ' '
       << c.schedules_received << ' ' << c.schedules_missed << ' ' << c.sleeps
       << ' ' << c.first_misses << ' ' << c.repeat_misses << ' '
       << c.escalated_sleeps << ' ' << c.resyncs << ' ' << c.repeats_deduped
       << ' ' << c.coast_breaks << ' ' << fmt_f(c.app_loss_pct) << ' '
       << c.video_fidelity_final << ' ' << fmt_f(c.page_time_ms) << ' '
       << c.pages_completed << ' ' << fmt_f(c.ftp_seconds) << ' '
       << c.app_bytes << ' ' << fmt_f(c.mean_delay_ms) << ' '
       << c.delay_samples << ' ' << c.assoc_joins << ' ' << c.assoc_leaves
       << ' ' << c.assoc_retries << '\n';
  }
  os << "end\n";
}

bool read_record(std::istream& is, RunRecord& out) {
  // Magic line ("ppsweep-record" and "v1" as two tokens).
  std::string a, b;
  if (!next_tok(is, a) || !next_tok(is, b) || a + ' ' + b != kRecordMagic) {
    return false;
  }
  if (!expect_tok(is, "horizon_ns") || !read_i64(is, out.horizon_ns)) {
    return false;
  }
  if (!expect_tok(is, "ap_drops") || !read_u64(is, out.ap_drops)) return false;
  if (!expect_tok(is, "frames_on_air") || !read_u64(is, out.frames_on_air)) {
    return false;
  }
  if (!expect_tok(is, "digest") || !read_u64(is, out.digest)) return false;
  proxy::ProxyStats& p = out.proxy_stats;
  if (!expect_tok(is, "proxy") || !read_u64(is, p.schedules_sent) ||
      !read_u64(is, p.bursts_opened) || !read_u64(is, p.queued_packets) ||
      !read_u64(is, p.burst_packets) || !read_u64(is, p.queue_drops) ||
      !read_u64(is, p.udp_bytes_burst) || !read_u64(is, p.tcp_bytes_burst) ||
      !read_u64(is, p.splices_created) || !read_u64(is, p.splices_closed) ||
      !read_u64(is, p.empty_burst_markers) ||
      !read_u64(is, p.unmatched_packets) ||
      !read_u64(is, p.schedule_repeats_sent) || !read_u64(is, p.pauses) ||
      !read_u64(is, p.joins) || !read_u64(is, p.leaves) ||
      !read_u64(is, p.renegotiations) || !read_u64(is, p.bursts_skipped) ||
      !read_u64(is, p.churn_drained_bytes) ||
      !read_u64(is, p.churn_dropped_packets) ||
      !read_u64(is, p.churn_dropped_bytes)) {
    return false;
  }
  fault::FaultStats& f = out.fault_stats;
  if (!expect_tok(is, "fault") || !read_u64(is, f.windows_activated) ||
      !read_u64(is, f.windows_recovered) || !read_u64(is, f.fade_losses)) {
    return false;
  }
  std::uint64_t n = 0;
  if (!expect_tok(is, "clients") || !read_u64(is, n) || n > 1'000'000) {
    return false;
  }
  out.clients.clear();
  out.clients.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    ClientResult c;
    std::uint64_t ip_raw = 0;
    if (!expect_tok(is, "c") || !read_u64(is, ip_raw) ||
        !read_int(is, c.role) || !read_f(is, c.saved_pct) ||
        !read_f(is, c.energy_mj) || !read_f(is, c.naive_mj) ||
        !read_f(is, c.loss_pct) || !read_u64(is, c.packets_received) ||
        !read_u64(is, c.packets_missed) || !read_u64(is, c.bytes_received) ||
        !read_u64(is, c.schedules_received) ||
        !read_u64(is, c.schedules_missed) || !read_u64(is, c.sleeps) ||
        !read_u64(is, c.first_misses) || !read_u64(is, c.repeat_misses) ||
        !read_u64(is, c.escalated_sleeps) || !read_u64(is, c.resyncs) ||
        !read_u64(is, c.repeats_deduped) || !read_u64(is, c.coast_breaks) ||
        !read_f(is, c.app_loss_pct) || !read_int(is, c.video_fidelity_final) ||
        !read_f(is, c.page_time_ms) || !read_int(is, c.pages_completed) ||
        !read_f(is, c.ftp_seconds) || !read_u64(is, c.app_bytes) ||
        !read_f(is, c.mean_delay_ms) || !read_u64(is, c.delay_samples) ||
        !read_u64(is, c.assoc_joins) || !read_u64(is, c.assoc_leaves) ||
        !read_u64(is, c.assoc_retries)) {
      return false;
    }
    c.ip = net::Ipv4Addr{static_cast<std::uint32_t>(ip_raw)};
    out.clients.push_back(c);
  }
  return expect_tok(is, "end");
}

ResultCache::ResultCache(std::string dir) : dir_{std::move(dir)} {}

std::string ResultCache::entry_path(std::uint64_t key) const {
  return dir_ + "/" + key_hex(key) + ".ppr";
}

std::optional<RunRecord> ResultCache::lookup(
    std::uint64_t key, const std::string& canonical) const {
  std::ifstream in{entry_path(key), std::ios::binary};
  if (!in) return std::nullopt;
  std::string line;
  if (!std::getline(in, line) || line != "ppsweep-entry v1") {
    return std::nullopt;
  }
  if (!std::getline(in, line) || line.rfind("config-bytes ", 0) != 0) {
    return std::nullopt;
  }
  const unsigned long want = std::strtoul(line.c_str() + 13, nullptr, 10);
  if (want == 0 || want != canonical.size()) return std::nullopt;
  std::string stored(want, '\0');
  if (!in.read(stored.data(), static_cast<std::streamsize>(want)) ||
      stored != canonical) {
    // 64-bit key collision or truncated entry: treat as a miss.
    return std::nullopt;
  }
  RunRecord rec;
  if (!read_record(in, rec)) return std::nullopt;
  return rec;
}

void ResultCache::store(std::uint64_t key, const std::string& canonical,
                        const RunRecord& r) const {
  std::error_code ec;
  fs::create_directories(dir_, ec);  // best effort; the write below reports
  const std::string path = entry_path(key);
  // Per-process temp name: concurrent sweeps of overlapping batteries
  // write the same bytes, and rename() makes whichever lands last win
  // atomically.
  const std::string tmp = path + "." + std::to_string(::getpid()) + ".tmp";
  {
    std::ofstream out{tmp, std::ios::binary | std::ios::trunc};
    if (!out) return;  // unwritable cache dir: degrade to uncached
    out << "ppsweep-entry v1\n";
    out << "config-bytes " << canonical.size() << '\n';
    out << canonical;
    write_record(out, r);
    if (!out) {
      out.close();
      fs::remove(tmp, ec);
      return;
    }
  }
  fs::rename(tmp, path, ec);
  if (ec) fs::remove(tmp, ec);
}

}  // namespace pp::exp::sweep
