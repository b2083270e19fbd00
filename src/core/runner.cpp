#include "core/runner.hpp"

#include <algorithm>
#include <memory>
#include <string>

#include "core/kernel_registry.hpp"
#include "fault/fault_plan.hpp"
#include "trace/sample.hpp"

namespace hs::core {

namespace {

/// Resolve the run's --trace-sample spec against its geometry: leader
/// ranks from the hierarchy chain (or the legacy scalar-G group
/// arrangement), per-rank slowness from rank_gamma combined with the fault
/// plan's slowdown windows (max factor per rank).
trace::RankSampleSet resolve_trace_sample(const mpc::Machine& machine,
                                          const RunOptions& options,
                                          int total_ranks) {
  const trace::TraceSample sample =
      trace::TraceSample::parse(options.trace_sample);
  trace::SampleInputs inputs;
  inputs.ranks = total_ranks;
  inputs.seed = options.seed;
  if (sample.leaders_per_level > 0) {
    if (!options.hierarchy.is_flat()) {
      inputs.level_leaders =
          hierarchy_level_leaders(options.hierarchy, options.grid);
    } else if (options.groups.size() > 1) {
      // Legacy scalar-G HSUMMA: one level of leaders at the group origins.
      std::vector<int> leaders;
      leaders.reserve(static_cast<std::size_t>(options.groups.size()));
      const int sub_rows = options.grid.rows / options.groups.rows;
      const int sub_cols = options.grid.cols / options.groups.cols;
      for (int gi = 0; gi < options.groups.rows; ++gi)
        for (int gj = 0; gj < options.groups.cols; ++gj)
          leaders.push_back(gi * sub_rows * options.grid.cols + gj * sub_cols);
      inputs.level_leaders.push_back(std::move(leaders));
    }
  }
  if (sample.slowest_count > 0) {
    std::vector<double>& slow = inputs.rank_slowness;
    if (!machine.config().rank_gamma.empty())
      slow = machine.config().rank_gamma;
    if (machine.faults() != nullptr) {
      for (const fault::RankSlowdown& window : machine.faults()->slowdowns) {
        if (window.rank < 0 || window.rank >= total_ranks) continue;
        if (slow.size() < static_cast<std::size_t>(total_ranks))
          slow.resize(static_cast<std::size_t>(total_ranks), 1.0);
        double& factor = slow[static_cast<std::size_t>(window.rank)];
        factor = std::max(factor, window.factor);
      }
    }
  }
  return trace::RankSampleSet::resolve(sample, inputs);
}

/// Feed per-rank distributions into the metrics sink: scalar TimingReport
/// maxima/means already exist, but at p = 2^20 the *distribution* of rank
/// times is the interesting part and histograms are the only O(1)-memory
/// way to keep it.
void collect_rank_metrics(trace::MetricsRegistry& metrics,
                          std::span<const trace::RankStats> stats) {
  hs::Histogram& comm = metrics.histogram("core.rank.comm_s");
  hs::Histogram& comp = metrics.histogram("core.rank.comp_s");
  for (const trace::RankStats& rank : stats) {
    comm.add(rank.comm_time);
    comp.add(rank.comp_time);
  }
  std::size_t depth = 0;
  for (const trace::RankStats& rank : stats)
    depth = std::max(depth, rank.level_comm_time.size());
  for (std::size_t l = 0; l < depth; ++l) {
    hs::Histogram& level = metrics.histogram(
        "core.rank.level" + std::to_string(l) + "_comm_s");
    for (const trace::RankStats& rank : stats)
      level.add(l < rank.level_comm_time.size() ? rank.level_comm_time[l]
                                                : 0.0);
  }
}

}  // namespace

RunResult run(mpc::Machine& machine, const RunOptions& options) {
  const KernelDescriptor& kernel = kernel_descriptor(options.algorithm);
  const int total_ranks = options.grid.size() * options.layers;
  HS_REQUIRE_MSG(machine.ranks() == total_ranks,
                 "machine has " << machine.ranks() << " ranks but the run "
                 "needs " << total_ranks);
  HS_REQUIRE_MSG(options.mode == PayloadMode::Real || !options.verify,
                 "verification requires real payloads");
  require_lookahead(kernel, options.lookahead);
  const ProblemSpec& prob = options.problem;
  HS_REQUIRE_MSG(prob.m >= 1 && prob.k >= 1 && prob.n >= 1 && prob.block >= 1,
                 "problem dimensions must be positive");
  if (kernel.validate != nullptr) kernel.validate(options);

  const std::unique_ptr<KernelRun> body = kernel.make_run(options);

  std::vector<trace::RankStats> stats(static_cast<std::size_t>(total_ranks));
  const double start_time = machine.engine().now();
  const std::uint64_t start_messages = machine.messages_transferred();
  const std::uint64_t start_bytes = machine.bytes_transferred();

  trace::Recorder* const previous_recorder = machine.recorder();
  if (options.recorder != nullptr) machine.set_recorder(options.recorder);
  const fault::FaultPlan* const previous_faults = machine.faults();
  if (options.faults != nullptr) machine.set_faults(options.faults);

  if (options.recorder != nullptr && !options.trace_sample.empty())
    options.recorder->set_sample(
        resolve_trace_sample(machine, options, total_ranks));

  machine.engine().reserve(static_cast<std::size_t>(total_ranks),
                           static_cast<std::size_t>(total_ranks));
  for (int rank = 0; rank < total_ranks; ++rank) {
    machine.engine().spawn_indexed(
        body->program(machine, options, rank,
                      &stats[static_cast<std::size_t>(rank)]),
        kernel.name, rank);
  }
  machine.engine().run();
  if (options.recorder != nullptr) machine.set_recorder(previous_recorder);

  RunResult result;
  result.timing = trace::TimingReport::aggregate(
      machine.engine().now() - start_time, stats);
  result.messages = machine.messages_transferred() - start_messages;
  result.wire_bytes = machine.bytes_transferred() - start_bytes;
  if (options.faults != nullptr) machine.set_faults(previous_faults);
  if (options.metrics != nullptr) {
    collect_rank_metrics(*options.metrics, stats);
    if (options.recorder != nullptr &&
        !options.recorder->exposed_wait_histogram().empty())
      options.metrics->histogram("trace.task.exposed_wait_s")
          .merge(options.recorder->exposed_wait_histogram());
  }
  if (options.verify) result.max_error = body->verify(options);
  return result;
}

}  // namespace hs::core
