#include "trace/monitor.hpp"

namespace pp::trace {

MonitoringStation::MonitoringStation(net::WirelessMedium& medium) {
  medium.add_sniffer([this](const net::SnifferRecord& r) {
    TraceRecord rec;
    rec.air_start = r.air_start;
    rec.airtime = r.airtime;
    rec.src = r.pkt.src;
    rec.src_port = r.pkt.src_port;
    rec.dst = r.pkt.dst;
    rec.dst_port = r.pkt.dst_port;
    rec.proto = r.pkt.proto;
    rec.payload = r.pkt.payload;
    rec.marked = r.pkt.marked;
    rec.from_ap = r.from_ap;
    rec.delivered = r.delivered;
    rec.schedule = r.pkt.share<proxy::ScheduleMessage>();
    bytes_ += r.pkt.payload;
    buffer_.push_back(std::move(rec));
  });
}

}  // namespace pp::trace
