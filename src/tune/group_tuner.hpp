// Group-count autotuner.
//
// The paper selects the optimal number of groups by "sampling over valid
// values ... using few iterations of HSUMMA"; this module automates exactly
// that. Each candidate G runs a truncated phantom-payload HSUMMA (a handful
// of outer steps) on a fresh simulated machine; measured communication time
// is scaled to the full step count. The analytic model orders candidates so
// the sweep can be cut short (`max_candidates`), and G = 1 (SUMMA) is
// always sampled as the fallback the paper guarantees never to lose to.
#pragma once

#include <memory>
#include <vector>

#include "core/runner.hpp"
#include "fault/fault_plan.hpp"
#include "net/model.hpp"

namespace hs::exec {
class ParallelExecutor;
}

namespace hs::tune {

struct TuneOptions {
  /// Kernel to tune. Group counts are adapted per kernel by
  /// core::adapt_groups: the SUMMA families switch flat/hierarchical, the
  /// factorizations (Lu, Cholesky) map G onto hierarchical panel broadcast
  /// level factors. Factorization samples always run the full step count
  /// (panel steps are heterogeneous, so a truncated prefix would not be
  /// representative); the multiplication kernels sample a truncated k.
  core::Algorithm kernel = core::Algorithm::Summa;
  grid::GridShape grid;
  core::ProblemSpec problem;
  std::shared_ptr<const net::NetworkModel> network;
  mpc::MachineConfig machine_config;  // .ranks is overwritten from grid
  std::optional<net::BcastAlgo> bcast_algo;
  /// Outer steps per sample (the "few iterations").
  int sample_outer_steps = 2;
  /// Candidate group counts; empty -> all valid counts for the grid.
  std::vector<int> candidates;
  /// Explicit multi-level candidate chains, sampled after the scalar
  /// candidates (depth <= 1 entries are skipped — the scalar sweep covers
  /// them). Each must fit the grid (core::hierarchy_fits).
  std::vector<core::GroupHierarchy> hierarchies;
  /// Maximum hierarchy depth to derive candidates for automatically:
  /// >= 2 adds core::candidate_hierarchies(grid, max_levels) — balanced
  /// divisor chains of every valid group count — plus platform-derived
  /// chains whose outermost level matches the network's structure (one
  /// group per TwoLevelModel switch / Torus3DModel node, optionally split
  /// once more inside). 1 (the default) keeps the legacy scalar-only
  /// search.
  int max_levels = 1;
  /// Candidate look-ahead depths, sampled jointly with G (the best (G, D)
  /// pair is reported). The default tunes the blocking schedule only;
  /// {0, 1, 2} spans blocking, double-buffered and deep prefetch. Every
  /// depth must be one the kernel runs (see core::require_lookahead).
  std::vector<int> lookaheads = {0};
  /// Cap on sampled candidates (<=0 -> no cap). Candidates nearest the
  /// model's predicted optimum are kept.
  int max_candidates = 0;
  /// Optional parallel executor: candidate samples run concurrently and
  /// repeated configurations (e.g. a later full sweep over the same grid)
  /// hit its result cache. Samples and the best pick are identical to the
  /// serial path for any worker count.
  exec::ParallelExecutor* executor = nullptr;
  /// Optional fault plan (see fault/fault_plan.hpp): every candidate
  /// sample runs under these faults, so the tuner picks the best G *for
  /// the faulty machine* — stragglers can shift the optimum (see
  /// bench/fault_study). Null or empty plans change nothing.
  std::shared_ptr<const fault::FaultPlan> faults;
};

struct Sample {
  /// Scalar candidates: the sampled G. Chain candidates: the chain's total
  /// innermost group count (product of the level factors).
  int groups = 1;
  int lookahead = 0;
  /// The candidate as a chain (from_scalar(G) for scalar candidates).
  core::GroupHierarchy hierarchy;
  /// Scalar candidates: the I x J group arrangement. Chains: the
  /// outermost level's arrangement.
  grid::GridShape arrangement;
  double comm_time = 0.0;       // scaled to the full problem; with
                                // lookahead > 0, the *exposed* comm
  double total_time = 0.0;      // scaled
};

struct TuneResult {
  int best_groups = 1;
  int best_lookahead = 0;
  /// The winning candidate as a chain; scalar winners are from_scalar(G).
  /// A multi-level chain wins only by strictly beating every scalar G.
  core::GroupHierarchy best_hierarchy;
  grid::GridShape best_arrangement{1, 1};
  double best_comm_time = 0.0;
  std::vector<Sample> samples;  // in sampling order
};

TuneResult tune_groups(const TuneOptions& options);

}  // namespace hs::tune
