// End-to-end run harness: allocate + fill distributed inputs, spawn one
// program per rank, drive the simulation, aggregate timing, verify.
//
// This is the API the examples, tests and every figure-reproduction bench
// build on. One Machine may execute several runs back to back (virtual time
// keeps advancing; results report deltas).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/hierarchy.hpp"
#include "core/spec.hpp"
#include "mpc/machine.hpp"
#include "trace/metrics.hpp"
#include "trace/phase.hpp"
#include "trace/recorder.hpp"

namespace hs::core {

struct RunOptions {
  Algorithm algorithm = Algorithm::Summa;
  grid::GridShape grid;            // s x t (per layer for Summa25D)
  int layers = 1;                  // Summa25D only
  grid::GridShape groups{1, 1};    // Hsumma only
  /// Broadcast factor chains along grid rows / grid columns, read by
  /// HsummaMultilevel (SUMMA over the chains; Summa is the empty chain and
  /// ignores them), Lu and Cholesky. See core/hier_bcast.hpp.
  std::vector<int> row_levels;
  std::vector<int> col_levels;
  /// The group hierarchy this run was adapted from (recorded by
  /// adapt_hierarchy for diagnostics; flat when the run was requested with
  /// a legacy scalar group count <= 1 or never adapted).
  GroupHierarchy hierarchy;
  ProblemSpec problem;
  PayloadMode mode = PayloadMode::Real;
  std::optional<net::BcastAlgo> bcast_algo;  // default: machine config
  /// Communication/computation look-ahead depth D, the run's one overlap
  /// knob: 0 is the classic blocking schedule, 1 the double-buffered
  /// pipeline, D >= 2 prefetches up to D panels (see core/task_plan.hpp).
  /// A negative depth, or D >= 1 on a kernel without a task plan
  /// (KernelDescriptor::task_plan), is a hard error.
  int lookahead = 0;
  bool verify = false;             // Real mode only
  std::uint64_t seed = 2013;       // input generator seed
  /// Optional structured event sink (see trace/recorder.hpp). Attached to
  /// the machine for the duration of the run (the previous recorder, if
  /// any, is restored afterwards); must outlive the run. Recording never
  /// changes the RunResult.
  trace::Recorder* recorder = nullptr;
  /// Rank-sampling spec for the attached recorder (trace::TraceSample
  /// syntax, e.g. "leaders+slowest:4"). run() resolves it against this
  /// run's geometry — hierarchy/group leader ranks, the machine's
  /// rank_gamma multipliers and the fault plan's slowdown windows — and
  /// installs the resolved rank set on the recorder before spawning, so a
  /// p = 2^20 trace stores O(sampled ranks) spans. Empty (the default)
  /// records every rank; ignored without a recorder. Sampling is a pure
  /// store-side filter: the RunResult stays bit-identical.
  std::string trace_sample;
  /// Optional metrics sink. run() feeds it distribution histograms the
  /// aggregate TimingReport cannot carry: per-rank comm/comp time
  /// (core.rank.comm_s / comp_s), per-chain-level broadcast time
  /// (core.rank.level<l>_comm_s, full rank population), and the recorder's
  /// exposed-wait histogram (trace.task.exposed_wait_s) when tracing.
  /// Works with or without a recorder; must outlive the run.
  trace::MetricsRegistry* metrics = nullptr;
  /// Optional straggler plan (see fault/fault_plan.hpp). Attached to the
  /// machine for the duration of the run, previous plan restored
  /// afterwards; must outlive the run.
  const fault::FaultPlan* faults = nullptr;
};

struct RunResult {
  trace::TimingReport timing;
  /// Max |C - reference| over all verified blocks; -1 when not verified.
  double max_error = -1.0;
  std::uint64_t messages = 0;
  std::uint64_t wire_bytes = 0;

  /// Field by field, doubles by value (so a copy equals its original).
  bool operator==(const RunResult&) const = default;
};

/// Execute one distributed multiplication on `machine`.
/// Requires machine.ranks() == options.grid.size() * options.layers.
RunResult run(mpc::Machine& machine, const RunOptions& options);

}  // namespace hs::core
