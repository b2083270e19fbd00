#include "tune/group_tuner.hpp"

#include <algorithm>
#include <cmath>

#include "grid/hier_grid.hpp"
#include <limits>
#include <numeric>
#include <set>

#include "core/hier_bcast.hpp"
#include "core/kernel_registry.hpp"
#include "exec/executor.hpp"
#include "model/cost_model.hpp"
#include "net/topology.hpp"

namespace hs::tune {

namespace {

// Truncated problem: `outer_steps` outer blocks, keeping all divisibility
// preconditions (k' must be a multiple of lcm(s,t) * B and of lcm(s,t) * b,
// which B | k' and the b | B precondition already give).
core::ProblemSpec truncated_problem(const core::ProblemSpec& problem,
                                    grid::GridShape grid, int outer_steps) {
  const auto outer = problem.effective_outer_block();
  const auto lcm = std::lcm(static_cast<long long>(grid.rows),
                            static_cast<long long>(grid.cols));
  core::ProblemSpec sample = problem;
  sample.k = std::min<la::index_t>(
      problem.k, static_cast<la::index_t>(outer_steps) *
                     static_cast<la::index_t>(lcm) * outer);
  if (sample.k == 0 || problem.k % sample.k != 0) sample.k = problem.k;
  return sample;
}

}  // namespace

TuneResult tune_groups(const TuneOptions& options) {
  HS_REQUIRE(options.network != nullptr);
  HS_REQUIRE(options.sample_outer_steps >= 1);

  std::vector<int> candidates = options.candidates;
  if (candidates.empty()) candidates = grid::valid_group_counts(options.grid);
  HS_REQUIRE_MSG(!candidates.empty(), "no valid group counts for this grid");
  if (std::find(candidates.begin(), candidates.end(), 1) == candidates.end())
    candidates.insert(candidates.begin(), 1);

  if (options.max_candidates > 0 &&
      static_cast<int>(candidates.size()) > options.max_candidates) {
    // Keep the candidates nearest (in log-space) to the model's predicted
    // optimum G = sqrt(p), plus G = 1.
    const double target = std::sqrt(static_cast<double>(options.grid.size()));
    std::stable_sort(candidates.begin(), candidates.end(),
                     [target](int a, int b) {
                       const auto d = [target](int g) {
                         return std::fabs(std::log2(static_cast<double>(g)) -
                                          std::log2(target));
                       };
                       return d(a) < d(b);
                     });
    candidates.resize(static_cast<std::size_t>(options.max_candidates));
    if (std::find(candidates.begin(), candidates.end(), 1) ==
        candidates.end())
      candidates.back() = 1;
    std::sort(candidates.begin(), candidates.end());
  }

  // Look-ahead depths are sampled jointly with G: overlap shifts which
  // communication is exposed, so the best group count can move with D.
  // Depth support is validated here (rather than deep in run_sim_job) so a
  // misconfigured sweep fails before any sample runs.
  std::vector<int> depths = options.lookaheads;
  if (depths.empty()) depths = {0};
  const core::KernelDescriptor& descriptor =
      core::kernel_descriptor(options.kernel);
  for (int depth : depths) core::require_lookahead(descriptor, depth);

  // Factorization kernels keep the full problem: their panel steps shrink
  // as the factorization advances, so a truncated prefix would not be
  // representative (and m == k == n is a kernel precondition).
  const bool factorization = descriptor.factorization;
  const core::ProblemSpec sample_problem =
      factorization ? options.problem
                    : truncated_problem(options.problem, options.grid,
                                        options.sample_outer_steps);
  const double scale =
      static_cast<double>(options.problem.k) /
      static_cast<double>(sample_problem.k);

  // Multi-level candidate chains, sampled after every scalar G (so a chain
  // wins only by strictly beating the whole scalar sweep): explicit
  // candidates, balanced divisor chains of the valid group counts, and
  // platform-derived chains whose outermost level matches the network's
  // own hierarchy (one group per switch / torus node).
  std::vector<core::GroupHierarchy> chains;
  {
    std::set<std::string> seen;
    const auto push = [&](const core::GroupHierarchy& chain) {
      if (chain.depth() < 2) return;  // the scalar sweep covers it
      if (!core::hierarchy_fits(chain, options.grid)) return;
      if (seen.insert(chain.to_string()).second) chains.push_back(chain);
    };
    for (const core::GroupHierarchy& chain : options.hierarchies) {
      HS_REQUIRE_MSG(core::hierarchy_fits(chain, options.grid),
                     "candidate hierarchy " << chain.to_string()
                                            << " does not fit a "
                                            << options.grid.rows << "x"
                                            << options.grid.cols << " grid");
      push(chain);
    }
    if (options.max_levels >= 2) {
      for (const core::GroupHierarchy& chain :
           core::candidate_hierarchies(options.grid, options.max_levels))
        push(chain);
      const int p = options.grid.size();
      if (const auto* two = dynamic_cast<const net::TwoLevelModel*>(
              options.network.get())) {
        const int rps = two->ranks_per_switch();
        if (rps > 1 && p % rps == 0 && p / rps > 1) {
          const int switches = p / rps;
          push(core::GroupHierarchy(core::full_group_chain(switches, 2)));
          for (int f : core::balanced_levels(rps, 2))
            push(core::GroupHierarchy({switches, f}));
        }
      }
      if (const auto* torus = dynamic_cast<const net::Torus3DModel*>(
              options.network.get())) {
        const int rpn = torus->ranks_per_node();
        if (rpn > 1 && p % rpn == 0 && p / rpn > 1) {
          const int nodes = p / rpn;
          push(core::GroupHierarchy(core::full_group_chain(nodes, 2)));
          for (int f : core::balanced_levels(rpn, 2))
            push(core::GroupHierarchy({nodes, f}));
        }
      }
    }
  }

  // Every runnable candidate x D pair becomes one executor job
  // (run_sim_job applies the same flat/hier/multilevel adaptation this
  // loop used to). Jobs are submitted before any result is read — with an
  // executor the whole sampling sweep runs concurrently — and aggregated in
  // candidate order, so samples and the best pick match the serial path
  // exactly.
  struct Candidate {
    core::GroupHierarchy hierarchy;
    int groups = 1;
    int lookahead = 0;
    grid::GridShape arrangement{1, 1};
  };
  std::vector<Candidate> runnable;
  std::vector<exec::SimJob> jobs;
  const auto base_job = [&] {
    exec::SimJob job;
    job.network = options.network;
    job.gamma_flop = options.machine_config.gamma_flop;
    job.collective_mode = options.machine_config.collective_mode;
    job.machine_bcast_algo = options.machine_config.bcast_algo;
    job.rank_gamma = options.machine_config.rank_gamma;
    job.algorithm = options.kernel;  // adapt_hierarchy picks the kernel
    job.grid = options.grid;
    job.problem = sample_problem;
    job.bcast_algo = options.bcast_algo;
    job.faults = options.faults;
    return job;
  };
  for (int groups : candidates) {
    const grid::GridShape arrangement =
        grid::group_arrangement(options.grid, groups);
    if (arrangement.size() != groups) continue;
    for (int depth : depths) {
      exec::SimJob job = base_job();
      job.groups = groups;
      job.lookahead = depth;
      runnable.push_back({core::GroupHierarchy::from_scalar(groups), groups,
                          depth, arrangement});
      jobs.push_back(std::move(job));
    }
  }
  for (const core::GroupHierarchy& chain : chains) {
    const grid::GridShape outer =
        core::arrange_hierarchy(chain, options.grid).levels.front();
    for (int depth : depths) {
      exec::SimJob job = base_job();
      job.hierarchy = chain;
      job.lookahead = depth;
      runnable.push_back(
          {chain, static_cast<int>(chain.product()), depth, outer});
      jobs.push_back(std::move(job));
    }
  }

  std::vector<std::size_t> indices;
  if (options.executor != nullptr)
    for (const exec::SimJob& job : jobs)
      indices.push_back(options.executor->submit(job));

  TuneResult result;
  result.best_comm_time = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < runnable.size(); ++i) {
    const core::RunResult run = options.executor != nullptr
                                    ? options.executor->result(indices[i])
                                    : exec::run_sim_job(jobs[i]);

    Sample sample;
    sample.groups = runnable[i].groups;
    sample.lookahead = runnable[i].lookahead;
    sample.hierarchy = runnable[i].hierarchy;
    sample.arrangement = runnable[i].arrangement;
    sample.comm_time = run.timing.max_comm_time * scale;
    sample.total_time =
        (run.timing.max_comm_time + run.timing.max_comp_time) * scale;
    result.samples.push_back(sample);

    // Exposed comm is the right joint metric: flops are invariant across
    // both G and D, so argmin(exposed comm) == argmin(total). Strict `<`
    // keeps the first-sampled pair on ties — deeper D never wins unless
    // it actually hides something, and a chain never wins unless it beats
    // every scalar G.
    if (sample.comm_time < result.best_comm_time) {
      result.best_comm_time = sample.comm_time;
      result.best_groups = sample.groups;
      result.best_lookahead = sample.lookahead;
      result.best_hierarchy = sample.hierarchy;
      result.best_arrangement = sample.arrangement;
    }
  }
  HS_REQUIRE_MSG(!result.samples.empty(),
                 "no group candidate was runnable on this grid");
  return result;
}

}  // namespace hs::tune
