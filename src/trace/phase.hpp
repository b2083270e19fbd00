// Per-rank phase accounting (communication vs computation virtual time).
//
// The paper reports both overall execution time and communication-only
// time; every algorithm in hs::core fills one RankStats per rank, and
// TimingReport aggregates them the way the paper does: the *maximum* over
// ranks (the critical path determines when the answer is ready).
//
// PhaseTimer is coroutine-safe: its destructor runs when the enclosing
// scope of the coroutine frame exits, even across co_await suspensions, so
//   { PhaseTimer t(stats.comm_time, engine); co_await bcast(...); }
// charges exactly the virtual time the broadcast took.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "desim/engine.hpp"

namespace hs::trace {

struct RankStats {
  double comm_time = 0.0;  // virtual seconds in communication calls
  double comp_time = 0.0;  // virtual seconds in local compute
  /// Hierarchical algorithms split communication per chain level: slot l
  /// is level l of the factor chain, and the trailing remainder phase lands
  /// one past the deepest applied factor. Scalar HSUMMA fills two slots,
  /// the inter-group (outer) and intra-group (inner) phases of the paper's
  /// Tables I/II. Empty for flat algorithms.
  std::vector<double> level_comm_time = {};
  std::uint64_t flops = 0;

  /// Adds `elapsed` to level slot `level`, growing the slots to reach it.
  void add_level_comm(std::size_t level, double elapsed) {
    if (level_comm_time.size() <= level) level_comm_time.resize(level + 1);
    level_comm_time[level] += elapsed;
  }

  RankStats& operator+=(const RankStats& other) noexcept {
    comm_time += other.comm_time;
    comp_time += other.comp_time;
    if (level_comm_time.size() < other.level_comm_time.size())
      level_comm_time.resize(other.level_comm_time.size());
    for (std::size_t i = 0; i < other.level_comm_time.size(); ++i)
      level_comm_time[i] += other.level_comm_time[i];
    flops += other.flops;
    return *this;
  }
};

/// Accumulates elapsed virtual time into `slot` on scope exit.
class PhaseTimer {
 public:
  PhaseTimer(double& slot, desim::Engine& engine)
      : slot_(&slot), engine_(&engine), start_(engine.now()) {}
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;
  ~PhaseTimer() { *slot_ += engine_->now() - start_; }

 private:
  double* slot_;
  desim::Engine* engine_;
  double start_;
};

/// Aggregate view over all ranks of one run.
struct TimingReport {
  double total_time = 0.0;     // wall (virtual) time of the whole run
  double max_comm_time = 0.0;  // critical-path communication time
  double max_comp_time = 0.0;
  double mean_comm_time = 0.0;
  double mean_comp_time = 0.0;
  /// Per-chain-level communication maxima of hierarchical runs (mirrors
  /// RankStats::level_comm_time; empty for flat runs). For scalar HSUMMA,
  /// entries 0 and 1 are the paper's outer and inner phases. Entry l bounds
  /// the critical-path analyzer's level_comm[l] on ClosedForm
  /// non-overlapped runs.
  std::vector<double> max_level_comm_time;
  std::uint64_t total_flops = 0;

  static TimingReport aggregate(double total_time,
                                std::span<const RankStats> per_rank);

  /// max_level_comm_time[level], or 0 past its end.
  double level_comm(std::size_t level) const {
    return level < max_level_comm_time.size() ? max_level_comm_time[level]
                                              : 0.0;
  }

  std::string summary() const;

  bool operator==(const TimingReport&) const = default;
};

}  // namespace hs::trace
