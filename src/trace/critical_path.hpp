// Critical-path extraction from recorded simulation events.
//
// Walks a Recorder's span set backward from the latest-ending event to
// reconstruct one chain of dependent work that realizes the run's makespan,
// then attributes every segment of that chain to computation, communication
// at some hierarchy chain level, flat communication, or idle waiting. This
// turns "HSUMMA was 1.8x faster" into "the critical path swapped 0.4 s of
// flat broadcast for 0.1 s of level-0 + 0.15 s of level-1 broadcast".
//
// Communication attribution is per *chain level*, so a depth-L hierarchy
// gets an L-entry split (level_comm), not a fixed outer/inner pair. The
// classic two-level decomposition is the L = 2 special case: level 0 is the
// inter-group ("outer") phase, level 1 the intra-group ("inner") phase, and
// the outer_comm/inner_comm sums report exactly those — for deeper chains
// inner_comm aggregates every level >= 1. Spans carry their level
// explicitly when the kernel stamps one (the chain kernel's blocking loop
// does); unstamped spans fall back to the Outer/Inner phase marks. That
// fallback is what splits scalar HSUMMA's collective spans, whose step
// marks carry phases but not levels.
//
// The walk hops between ranks through collectives: a collective completes
// when its last participant arrives, so the path continues on the
// latest-arriving rank at that rank's entry time. For ClosedForm runs of
// the non-overlapped kernels this is exact: segments tile
// [start_time, end_time] with no double counting, so the category sums add
// up to the run's total_time for any chain depth (locked to 1e-9 by
// tests/trace/test_critical_path.cpp), and each level's sum is bounded by
// the TimingReport's matching max_level_comm_time entry. For point-to-point
// or overlapped runs the chain is a best-effort approximation (spans on one
// rank may overlap; the walk picks the latest-ending candidate).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/table.hpp"

namespace hs::trace {

class Recorder;

/// OuterComm is communication at chain level 0, InnerComm at any level
/// >= 1; FlatComm is level-less (non-hierarchical algorithms). The
/// PathSegment::level field carries the exact level.
enum class PathCategory { Comp, OuterComm, InnerComm, FlatComm, Idle };
std::string_view to_string(PathCategory category);

/// One hop of the critical path, in virtual time. Chronological order.
struct PathSegment {
  double start = 0.0;
  double end = 0.0;
  PathCategory category = PathCategory::Idle;
  int rank = -1;          // rank the segment is charged to
  long long step = -1;    // kernel pivot step, -1 = unmarked
  int level = -1;         // chain level for comm segments; -1 otherwise
  std::string label;      // "compute", collective op name, or "idle"
  double duration() const { return end - start; }
};

/// The makespan decomposition: comp + per-level comm + flat comm + idle
/// tile [start_time, end_time].
struct CriticalPathSplit {
  std::vector<PathSegment> segments;  // chronological, tiling [start, end]
  double comp = 0.0;
  double outer_comm = 0.0;  // comm at level 0
  double inner_comm = 0.0;  // comm at every level >= 1
  double flat_comm = 0.0;
  double idle = 0.0;
  /// Communication time per chain level, outermost first; empty for flat
  /// runs. level_comm[0] == outer_comm and the tail sums to inner_comm.
  std::vector<double> level_comm;
  double start_time = 0.0;
  double end_time = 0.0;

  double total() const { return end_time - start_time; }
  double of(PathCategory category) const;
  /// Number of chain levels the path's communication touched.
  int depth() const { return static_cast<int>(level_comm.size()); }

  /// One-line decomposition, e.g.
  /// "critical path 1.23 s = comp 0.81 s + outer 0.21 s + inner 0.18 s
  ///  + flat 0 s + idle 0.03 s (42 segments)".
  /// For chains deeper than two levels, per-level continuation lines
  /// ("  level 2: 0.04 s") follow the (unchanged) head line.
  std::string summary() const;

  /// Per-category table: category, time, share of the path. Chains deeper
  /// than two levels get one extra row per level.
  Table breakdown_table() const;
};

/// The pre-generalization name; the depth <= 2 fields behave identically.
using CriticalPathReport = CriticalPathSplit;

/// Extract the critical path from `recorder`'s events. Returns an empty
/// split (no segments, total() == 0) if the recorder holds no spans.
CriticalPathSplit analyze_critical_path(const Recorder& recorder);

}  // namespace hs::trace
