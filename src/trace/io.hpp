// Trace serialization: a compact binary format plus a human-readable text
// dump.  Schedule messages are serialized structurally (entries included)
// so a trace file round-trips losslessly through the postmortem analyzer.
#pragma once

#include <iosfwd>
#include <string>

#include "trace/record.hpp"

namespace pp::trace {

// Format version 3: records carry no packet id, so a trace file is a
// function of its run's configuration alone.
inline constexpr char kTraceMagic[8] = {'P', 'P', 'T', 'R', 'A', 'C', 'E', '3'};

// Binary round-trip.
void write_trace(std::ostream& os, const TraceBuffer& buf);
TraceBuffer read_trace(std::istream& is);

// File convenience wrappers; throw std::runtime_error on I/O failure.
void save_trace(const std::string& path, const TraceBuffer& buf);
TraceBuffer load_trace(const std::string& path);

// tcpdump-style one-line-per-frame text dump.
void dump_trace(std::ostream& os, const TraceBuffer& buf);

}  // namespace pp::trace
