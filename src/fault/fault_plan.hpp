// Declarative, deterministic straggler scripts.
//
// A FaultPlan is a seed-stamped list of rank slowdown windows: a straggler
// computes and drains its ports `factor`× slower over a virtual-time
// interval. Plans are pure data with a canonical spec string (the sweep-
// cache identity — doubles render as hexfloats). mpc::Machine reads an
// attached plan through stretch(); layering: depends on common/ and
// trace/ only, and hs_mpc links hs_fault, never the reverse.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace hs::trace {
class Recorder;
}  // namespace hs::trace

namespace hs::fault {

inline constexpr double kForever = std::numeric_limits<double>::infinity();

/// Rank `rank` runs `factor`× slower over virtual time [start, end): its
/// compute charges and its share of wire occupancy stretch accordingly.
/// Overlapping windows combine by taking the max factor.
struct RankSlowdown {
  int rank = -1;
  double start = 0.0;
  double end = kForever;
  double factor = 1.0;  // >= 1
  bool operator==(const RankSlowdown&) const = default;
};

class FaultPlan {
 public:
  std::uint64_t seed = 2013;  // picks the straggler ranks
  std::vector<RankSlowdown> slowdowns;

  bool operator==(const FaultPlan&) const = default;

  /// True when the plan perturbs nothing (no windows at all). Empty plans
  /// are guaranteed zero-perturbation: run_sim_job never attaches them,
  /// so results are byte-identical to a faultless run.
  bool empty() const noexcept { return slowdowns.empty(); }

  /// `k` distinct ranks chosen deterministically from [0, ranks) run
  /// `factor`× slower for the whole run.
  static FaultPlan stragglers(int ranks, int k, double factor,
                              std::uint64_t seed);

  /// Canonical spec string: deterministic and byte-exact (hexfloat
  /// doubles). Used verbatim in SimJob::cache_key, so equal strings imply
  /// bit-identical behavior. Empty plans canonicalize to "" regardless of
  /// seed (they change nothing). The fixed `retry:` clause keeps the keys
  /// of stores written before message drops were removed.
  std::string canonical() const;

  /// Virtual time to complete `base` seconds of faultless work starting at
  /// `t0`, integrating piecewise through the slowdown windows of rank
  /// `src` and, when `dst >= 0`, of rank `dst` too (a transfer is slowed
  /// by either endpoint). Exactly `base`, bit for bit, when no window with
  /// factor > 1 on those ranks is still open at `t0`.
  double stretch(int src, int dst, double t0, double base) const;

  /// Record the windows as FaultSpans so the Perfetto export shows them as
  /// a track. Call once per run.
  void emit_plan_spans(trace::Recorder& recorder) const;
};

}  // namespace hs::fault
