#include "trace/io.hpp"

#include <cstring>
#include <fstream>
#include <istream>
#include <memory>
#include <ostream>
#include <stdexcept>

#include "proxy/schedule.hpp"

namespace pp::trace {
namespace {

template <typename T>
void put(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof v);
}

template <typename T>
T get(std::istream& is) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof v);
  if (!is) throw std::runtime_error("trace: truncated input");
  return v;
}

// Bit flags in the fixed record.
constexpr std::uint8_t kMarked = 1;
constexpr std::uint8_t kFromAp = 2;
constexpr std::uint8_t kDelivered = 4;
constexpr std::uint8_t kHasSchedule = 8;
constexpr std::uint8_t kTcp = 16;

}  // namespace

void write_trace(std::ostream& os, const TraceBuffer& buf) {
  os.write(kTraceMagic, sizeof kTraceMagic);
  put<std::uint64_t>(os, buf.size());
  for (const TraceRecord& r : buf) {
    put<std::int64_t>(os, r.air_start.count_ns());
    put<std::int64_t>(os, r.airtime.count_ns());
    put<std::uint32_t>(os, r.src.raw());
    put<std::uint32_t>(os, r.dst.raw());
    put<std::uint16_t>(os, r.src_port);
    put<std::uint16_t>(os, r.dst_port);
    put<std::uint32_t>(os, r.payload);
    const proxy::ScheduleMessage* sched = r.schedule.get();
    std::uint8_t flags = 0;
    if (r.marked) flags |= kMarked;
    if (r.from_ap) flags |= kFromAp;
    if (r.delivered) flags |= kDelivered;
    if (sched != nullptr) flags |= kHasSchedule;
    if (r.proto == net::Protocol::Tcp) flags |= kTcp;
    put<std::uint8_t>(os, flags);
    if (sched != nullptr) {
      put<std::uint64_t>(os, sched->seq_no);
      put<std::int64_t>(os, sched->srp_time.count_ns());
      put<std::int64_t>(os, sched->interval.count_ns());
      put<std::int64_t>(os, sched->repeat_offset.count_ns());
      put<std::uint8_t>(os, sched->reuse_next ? 1 : 0);
      put<std::uint32_t>(os, static_cast<std::uint32_t>(sched->entries.size()));
      for (const auto& e : sched->entries) {
        put<std::uint32_t>(os, e.client.raw());
        put<std::int64_t>(os, e.rp_offset.count_ns());
        put<std::int64_t>(os, e.duration.count_ns());
        put<std::uint8_t>(os, static_cast<std::uint8_t>(e.kind));
      }
    }
  }
}

TraceBuffer read_trace(std::istream& is) {
  char magic[8];
  is.read(magic, sizeof magic);
  if (!is || std::memcmp(magic, kTraceMagic, sizeof magic) != 0)
    throw std::runtime_error("trace: bad magic");
  const auto count = get<std::uint64_t>(is);
  TraceBuffer buf;
  buf.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    TraceRecord r;
    r.air_start = sim::Time::ns(get<std::int64_t>(is));
    r.airtime = sim::Time::ns(get<std::int64_t>(is));
    r.src = net::Ipv4Addr{get<std::uint32_t>(is)};
    r.dst = net::Ipv4Addr{get<std::uint32_t>(is)};
    r.src_port = get<std::uint16_t>(is);
    r.dst_port = get<std::uint16_t>(is);
    r.payload = get<std::uint32_t>(is);
    const auto flags = get<std::uint8_t>(is);
    r.marked = flags & kMarked;
    r.from_ap = flags & kFromAp;
    r.delivered = flags & kDelivered;
    r.proto = (flags & kTcp) ? net::Protocol::Tcp : net::Protocol::Udp;
    if (flags & kHasSchedule) {
      auto sched = std::make_shared<proxy::ScheduleMessage>();
      sched->seq_no = get<std::uint64_t>(is);
      sched->srp_time = sim::Time::ns(get<std::int64_t>(is));
      sched->interval = sim::Time::ns(get<std::int64_t>(is));
      sched->repeat_offset = sim::Time::ns(get<std::int64_t>(is));
      sched->reuse_next = get<std::uint8_t>(is) != 0;
      const auto n = get<std::uint32_t>(is);
      sched->entries.reserve(n);
      for (std::uint32_t k = 0; k < n; ++k) {
        proxy::ScheduleEntry e;
        e.client = net::Ipv4Addr{get<std::uint32_t>(is)};
        e.rp_offset = sim::Time::ns(get<std::int64_t>(is));
        e.duration = sim::Time::ns(get<std::int64_t>(is));
        e.kind = static_cast<proxy::SlotKind>(get<std::uint8_t>(is));
        sched->entries.push_back(e);
      }
      r.schedule = std::move(sched);
    }
    buf.push_back(std::move(r));
  }
  return buf;
}

void save_trace(const std::string& path, const TraceBuffer& buf) {
  std::ofstream os{path, std::ios::binary};
  if (!os) throw std::runtime_error("trace: cannot open " + path);
  write_trace(os, buf);
  if (!os) throw std::runtime_error("trace: write failed: " + path);
}

TraceBuffer load_trace(const std::string& path) {
  std::ifstream is{path, std::ios::binary};
  if (!is) throw std::runtime_error("trace: cannot open " + path);
  return read_trace(is);
}

void dump_trace(std::ostream& os, const TraceBuffer& buf) {
  for (const TraceRecord& r : buf) {
    os << r.air_start.str() << " " << (r.from_ap ? "v " : "^ ") << r.src.str()
       << ":" << r.src_port << " > " << r.dst.str() << ":" << r.dst_port
       << " " << to_string(r.proto) << " len " << r.payload;
    if (r.marked) os << " [mark]";
    if (!r.delivered) os << " [lost]";
    if (r.schedule) os << " " << r.schedule->str();
    os << "\n";
  }
}

}  // namespace pp::trace
