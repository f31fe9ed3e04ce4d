// The simulated packet.
//
// Packets are flat values: addressing, sizes, the TCP header and the few
// application fields a datagram carries all live in the packet, and byte
// contents are modelled by counts, not buffers.  A UDP datagram's app
// header (a media sequence number, a receiver report, an association
// message) shares storage with the TCP header, which a datagram never
// uses; `app` says which app header is live.  Only a message that fans
// out to many receivers -- the proxy's schedule broadcast, the AP's
// beacon -- is held by shared_ptr, so one copy serves every station that
// hears it.  The type-of-service `marked` bit is the paper's end-of-burst
// marker.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "net/addr.hpp"
#include "sim/time.hpp"

namespace pp::net {

// What a packet carries above its transport header.
enum class AppKind : std::uint8_t {
  None,
  Media,     // Packet::media
  Report,    // Packet::report
  Assoc,     // Packet::assoc
  Schedule,  // Packet::data holds a proxy::ScheduleMessage
  Beacon,    // Packet::data holds a BeaconMessage
};

// Base of the shared messages.  It is not polymorphic: each derived type
// names its tag as `kApp`, and a packet's `app`, not RTTI, says which one
// its `data` holds (see Packet::message).
struct Message {};

struct TcpHeader {
  std::uint64_t seq = 0;  // first sequence number carried
  std::uint64_t ack = 0;  // cumulative ack
  std::uint32_t wnd = 0;  // advertised receive window (bytes)
  bool syn = false;
  bool ack_flag = false;
  bool fin = false;
  bool rst = false;
};

// App headers are plain aggregates: they share a union with the TCP
// header, so only that one may have default member initializers.

// A video datagram (workload/video.hpp): its stream sequence number and
// the index into workload::kFidelities it was encoded at.
struct MediaHeader {
  std::uint32_t seq;
  std::uint8_t fidelity;
};

// A video client's RTCP-style receiver report.
struct ReportHeader {
  double loss_fraction;
  std::uint32_t highest_seq;
};

// Association control (proxy/assoc.hpp).
enum class AssocKind : std::uint8_t {
  Join = 1,  // client -> proxy: admit me to the schedule
  JoinAck,   // proxy -> client: admitted (schedule renegotiation follows)
  Leave,     // client -> proxy: remove me (graceful: drain my queue first)
  LeaveAck,  // proxy -> client: departed; it is safe to power the radio off
};

struct AssocHeader {
  AssocKind kind;
  // Leave only: drain the queue (bounded by the proxy's drain deadline)
  // before acking, instead of dropping it immediately.
  bool graceful;
  // Chosen by the client per join()/leave() transition and reused across
  // retransmissions; the proxy echoes it in the matching ack so a stale
  // ack from an abandoned handshake is ignored.
  std::uint64_t seq;
};

struct Packet {
  Ipv4Addr src;
  Port src_port = 0;
  Ipv4Addr dst;
  Port dst_port = 0;
  Protocol proto = Protocol::Udp;

  // End-of-burst marker (the IP TOS bit of Section 3.2).
  bool marked = false;

  // Application payload bytes carried (0 for pure ACKs / control segments).
  std::uint32_t payload = 0;

  AppKind app = AppKind::None;

  // Timestamp when the original sender handed the packet to the network.
  sim::Time sent_at;

  // The transport header of a segment, or the app header of a datagram.
  union {
    TcpHeader tcp{};      // proto == Tcp
    MediaHeader media;    // app == Media
    ReportHeader report;  // app == Report
    AssocHeader assoc;    // app == Assoc
  };

  // The fan-out message of a Schedule or Beacon packet; null otherwise.
  std::shared_ptr<const Message> data;

  bool is_broadcast() const { return dst.is_broadcast(); }

  FlowKey flow() const { return {src, src_port, dst, dst_port, proto}; }

  // Bytes on the wire: payload plus IP + transport headers.  Link-layer
  // framing overhead is charged by the link models, not here.
  std::uint32_t wire_size() const {
    return payload + 20u + (proto == Protocol::Tcp ? 20u : 8u);
  }

  // App headers, for UDP datagrams only (they overlay the TCP header).
  void set_media(MediaHeader h) {
    app = AppKind::Media;
    media = h;
  }
  void set_report(ReportHeader h) {
    app = AppKind::Report;
    report = h;
  }
  void set_assoc(AssocHeader h) {
    app = AppKind::Assoc;
    assoc = h;
  }

  // A shared message M, tagged M::kApp.
  template <typename M>
  void set_message(std::shared_ptr<const M> msg) {
    app = M::kApp;
    data = std::move(msg);
  }
  // The packet's M, or null when it carries anything else.
  template <typename M>
  const M* message() const {
    return app == M::kApp ? static_cast<const M*>(data.get()) : nullptr;
  }
  template <typename M>
  std::shared_ptr<const M> share() const {
    if (app != M::kApp) return nullptr;
    return std::static_pointer_cast<const M>(data);
  }

  std::string str() const;
};

// Every FIFO on the data path (link rings, chunk datagrams, the proxy's
// ingress) holds packets by value.
static_assert(sizeof(Packet) <= 72, "net::Packet outgrew 72 bytes");

}  // namespace pp::net
