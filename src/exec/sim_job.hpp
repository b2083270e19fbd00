// SimJob: the canonical, hashable description of one simulation.
//
// Every sweep in this repo — the fig5-fig10 figure benches, the ablations,
// the group-count autotuner — is a series of *independent* simulations:
// each point builds a fresh engine + machine, runs one configuration, and
// keeps only the aggregate RunResult. SimJob captures exactly the inputs
// that determine such a run (network, machine config, algorithm, grid,
// groups, problem, payload mode, seeds), so that
//
//   * run_sim_job(job) is a pure function: equal jobs produce bit-identical
//     RunResults on any thread, in any order — the property the parallel
//     sweep executor's determinism guarantee rests on; and
//   * cache_key() gives a canonical byte-exact identity for result
//     memoization (doubles rendered as hexfloats; an empty key means "not
//     cacheable", never "equal to another empty key").
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/runner.hpp"
#include "fault/fault_plan.hpp"
#include "net/model.hpp"
#include "net/platform.hpp"
#include "trace/metrics.hpp"

namespace hs::exec {

struct SimJob {
  // --- machine -----------------------------------------------------------
  /// Explicit network model; when null, a HockneyModel is built from
  /// `platform`. Shared across concurrently running jobs, so it must be
  /// safe for concurrent const use (all hs::net models are).
  std::shared_ptr<const net::NetworkModel> network;
  /// Hockney parameters + gamma when `network` is null. `platform.name`
  /// does not participate in the cache key (behavior is fully determined
  /// by alpha/beta).
  net::Platform platform;
  /// Seconds per flop charged by Machine::compute.
  double gamma_flop = 0.0;
  mpc::CollectiveMode collective_mode = mpc::CollectiveMode::ClosedForm;
  /// Machine-level default broadcast algorithm (MachineConfig::bcast_algo).
  net::BcastAlgo machine_bcast_algo = net::BcastAlgo::MpichAuto;

  // --- run ---------------------------------------------------------------
  core::Algorithm algorithm = core::Algorithm::Summa;
  /// Explicit grid; {0, 0} means near_square_shape(ranks).
  grid::GridShape grid{0, 0};
  /// Used only when grid is {0, 0}.
  int ranks = 0;
  int layers = 1;  // Summa25D only
  /// Group count, adapted per kernel by core::adapt_groups: for the
  /// SUMMA/HSUMMA families <= 1 selects the flat algorithm and > 1 the
  /// hierarchical one with group_arrangement(grid, G); for the
  /// factorizations (Lu, Cholesky) G > 1 becomes hierarchical panel
  /// broadcast level factors. One job description covers a whole G-sweep.
  int groups = 1;
  /// Multi-level group hierarchy, adapted by core::adapt_hierarchy. Flat
  /// (the default) defers to the scalar `groups`; a non-flat chain requires
  /// groups <= 1 (one spine per job, no ambiguity). Depth <= 1 chains are
  /// cache-key-identical to the equivalent scalar job; depth >= 2 chains
  /// append a `;h=` component.
  core::GroupHierarchy hierarchy;
  std::vector<int> row_levels;  // HsummaMultilevel, Lu, Cholesky
  std::vector<int> col_levels;
  core::ProblemSpec problem;
  core::PayloadMode mode = core::PayloadMode::Phantom;
  std::optional<net::BcastAlgo> bcast_algo;  // run-level override
  /// Look-ahead depth D (see core::RunOptions::lookahead). Participates in
  /// cache_key, which rejects a negative depth.
  int lookahead = 0;
  bool verify = false;
  std::uint64_t seed = 2013;  // input generator seed (Real mode)

  // --- heterogeneity ------------------------------------------------------
  /// Per-rank compute speed multipliers (MachineConfig::rank_gamma): empty
  /// means homogeneous; otherwise one entry per rank, flop charges on rank
  /// r are scaled by rank_gamma[r]. Participates in cache_key (`;rg=`).
  std::vector<double> rank_gamma;

  // --- per-transfer noise (run_repeated statistics) ----------------------
  /// sigma > 0 wraps the network in a deterministic net::NoisyModel seeded
  /// with `noise_seed` and forces CollectiveMode::PointToPoint (noisy
  /// networks are not homogeneous Hockney). One repetition = one job; a
  /// repeated measurement submits `repetitions` jobs with noise_seed
  /// seed + rep, which parallelizes the repetitions too.
  double noise_sigma = 0.0;
  std::uint64_t noise_seed = 0;

  // --- scripted faults ----------------------------------------------------
  /// Non-empty straggler plans are attached to the job's machine and force
  /// CollectiveMode::PointToPoint (a straggler machine is not homogeneous
  /// Hockney, same reason as noise). The plan participates in cache_key
  /// via its canonical string, so distinct plans never collide in the
  /// sweep cache. Null or empty plans perturb nothing: results are
  /// byte-identical to a faultless run. Shared across concurrently running
  /// jobs (plans are immutable and only read).
  std::shared_ptr<const fault::FaultPlan> faults;

  // --- observability sinks (both optional; must outlive the run) ---------
  /// Structured event recorder attached for the run (see
  /// trace/recorder.hpp). One recorder per job: sinks are filled by the
  /// thread running the job, so sharing one across concurrently submitted
  /// jobs would race.
  trace::Recorder* recorder = nullptr;
  /// Rank-sampling spec for the recorder (trace::TraceSample syntax;
  /// see core::RunOptions::trace_sample). Ignored without a recorder.
  std::string trace_sample;
  /// Harvests machine + engine counters after the run (see
  /// trace/metrics.hpp), plus the runner's per-rank histograms. Same
  /// ownership rule as `recorder`.
  trace::MetricsRegistry* metrics = nullptr;

  /// The hierarchy this job actually runs: the explicit chain when one is
  /// set, else the legacy scalar group count lifted via from_scalar.
  core::GroupHierarchy effective_hierarchy() const {
    return hierarchy.is_flat() ? core::GroupHierarchy::from_scalar(groups)
                               : hierarchy;
  }

  /// Canonical identity for result caching: two jobs with equal non-empty
  /// keys run bit-identical simulations. Empty when the job is not
  /// cacheable (an explicit network whose describe() is empty, or a job
  /// with observability sinks attached — a cache hit would skip filling
  /// them). The look-ahead part keeps the bytes keys had when an `overlap`
  /// switch sat beside the depth: `;ovl=0`, and `;la=-1` for D = 0.
  std::string cache_key() const;
};

/// Run one job on a fresh engine + machine and return its result. The
/// engine is created, run and destroyed on the calling thread (engines are
/// thread-pinned; see desim::Engine::run).
core::RunResult run_sim_job(const SimJob& job);

}  // namespace hs::exec
