// Association control protocol (dynamic membership).
//
// Clients join and leave the proxy's cell at runtime: a Join admits the
// client into the demand set (and triggers an immediate SRP renegotiation
// so the newcomer hears a schedule right away), a Leave drains or drops
// its queue and removes it.  The exchange is a tiny unicast UDP protocol
// whose messages ride in the packet's app header (net::AssocHeader), on a
// dedicated port — both directions use kAssocPort as source and
// destination so either end classifies control traffic in O(1), exactly
// like the schedule broadcast uses kSchedulePort.
//
// Reliability is client-driven: the proxy acks every Join/Leave, and the
// client retransmits with deterministic exponential backoff (jitter from
// its own named RNG stream) until acked.  All proxy-side handling is
// idempotent, so duplicated or reordered control packets are harmless.
#pragma once

#include <cstdint>

#include "net/packet.hpp"

namespace pp::proxy {

// Association control port (client <-> proxy, unicast UDP both ways).
inline constexpr net::Port kAssocPort = 9010;

// Modeled wire size of an association message (net::AssocHeader): kind +
// flags + seq + padding.
inline constexpr std::uint32_t kAssocWireBytes = 16;

}  // namespace pp::proxy
