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
// gets an L-entry split (level_comm), not a fixed outer/inner pair; a comm
// segment takes the level its collective span carries, and level -1 is
// flat comm. The classic two-level decomposition is the L = 2 special
// case: level 0 is the inter-group ("outer") phase, level 1 the
// intra-group ("inner") phase. The summary and the breakdown table print
// "outer" as level 0 and "inner" as the sum of every level >= 1.
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
#include <vector>

#include "common/table.hpp"

namespace hs::trace {

class Recorder;

/// What a path segment spends its time on; a Comm segment's level says
/// which chain level (-1 = flat).
enum class PathCategory { Comp, Comm, Idle };

/// One hop of the critical path, in virtual time. Chronological order.
struct PathSegment {
  double start = 0.0;
  double end = 0.0;
  PathCategory category = PathCategory::Idle;
  int rank = -1;          // rank the segment is charged to
  long long step = -1;    // kernel pivot step, -1 = unmarked
  int level = -1;         // chain level of a comm segment; -1 = flat/none
  std::string label;      // "compute", collective op name, or "idle"
  double duration() const { return end - start; }
};

/// The makespan decomposition: comp + per-level comm + flat comm + idle
/// tile [start_time, end_time].
struct CriticalPathSplit {
  std::vector<PathSegment> segments;  // chronological, tiling [start, end]
  double comp = 0.0;
  double flat_comm = 0.0;  // comm at level -1
  double idle = 0.0;
  /// Communication time per chain level, outermost first; empty for flat
  /// runs.
  std::vector<double> level_comm;
  double start_time = 0.0;
  double end_time = 0.0;

  double total() const { return end_time - start_time; }
  /// All communication on the path: every level plus flat.
  double comm() const;
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

/// Extract the critical path from `recorder`'s events. Returns an empty
/// split (no segments, total() == 0) if the recorder holds no spans.
CriticalPathSplit analyze_critical_path(const Recorder& recorder);

}  // namespace hs::trace
