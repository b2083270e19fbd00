// Chrome-trace-event JSON exporter for Recorder contents.
//
// Produces the "JSON Array Format" with object wrapper that Perfetto
// (https://ui.perfetto.dev) and chrome://tracing load directly:
//
//   * one process per session ("<label> ranks"), one thread group per rank
//     holding the rank's collective/compute spans plus step markers, each
//     naming its step and chain level ("level":-1 is flat);
//     overlapping spans on a rank (communication/computation overlap forks)
//     are spread across nesting-safe sub-lanes, so every exported track is
//     properly nested;
//   * a companion wire process ("<label> wire") with one lane per sending
//     rank for point-to-point transfers and spill lanes for ClosedForm
//     collective sites;
//   * counter tracks: cumulative wire bytes for the run, and per-rank
//     cumulative port busy time (send and receive series).
//
// Timestamps are virtual seconds converted to the format's microseconds.
// Several sessions may be written into one file (e.g. the SUMMA vs HSUMMA
// pair bench/trace_timeline emits): each gets its own process pair.
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <string_view>

#include "trace/recorder.hpp"

namespace hs::trace {

struct TraceSession {
  const Recorder* recorder = nullptr;
  std::string label;
};

/// Write every session into one Chrome-trace JSON document.
void write_chrome_trace(std::ostream& out,
                        std::span<const TraceSession> sessions);

/// Single-recorder convenience overload.
void write_chrome_trace(std::ostream& out, const Recorder& recorder,
                        std::string_view label = "sim");

}  // namespace hs::trace
