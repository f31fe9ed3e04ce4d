#include "net/packet.hpp"

#include <sstream>

namespace pp::net {

std::string Packet::str() const {
  // pp-lint: allow(hot-path-alloc): cold debug rendering (trace/log only)
  std::ostringstream os;
  os << flow().str() << " len=" << payload;
  if (proto == Protocol::Tcp) {
    os << " seq=" << tcp.seq << " ack=" << tcp.ack;
    if (tcp.syn) os << " SYN";
    if (tcp.fin) os << " FIN";
    if (tcp.rst) os << " RST";
    if (tcp.ack_flag) os << " ACK";
  }
  if (marked) os << " [MARK]";
  return os.str();
}

}  // namespace pp::net
