#include "exec/sim_job.hpp"

#include <sstream>

#include "core/kernel_registry.hpp"

namespace hs::exec {

namespace {

grid::GridShape resolve_grid(const SimJob& job) {
  if (job.grid.rows > 0 && job.grid.cols > 0) return job.grid;
  HS_REQUIRE_MSG(job.ranks >= 1, "SimJob needs either a grid or a rank count");
  return grid::near_square_shape(job.ranks);
}

}  // namespace

std::string SimJob::cache_key() const {
  // A negative depth fails in core::run; it must not alias D = 0 here.
  HS_REQUIRE_MSG(lookahead >= 0, "lookahead must be >= 0");
  // Jobs with observability sinks must actually run: a cache or coalesce
  // hit would return the RunResult without ever filling the sinks.
  if (recorder != nullptr || metrics != nullptr) return {};
  std::string net_part;
  if (network != nullptr) {
    net_part = network->describe();
    if (net_part.empty()) return {};  // indescribable network: uncacheable
  } else {
    // Identical to HockneyModel::describe() of platform.make_network().
    net_part = "hockney(" + net::describe_double(platform.alpha) + "," +
               net::describe_double(platform.beta) + ")";
  }
  const grid::GridShape shape = grid.rows > 0 && grid.cols > 0
                                    ? grid
                                    : grid::near_square_shape(ranks);
  // Depth <= 1 hierarchies collapse onto the legacy scalar `;groups=` field
  // byte-for-byte (a depth-1 chain {G} and the scalar job G run the same
  // simulation, so they must share a cache entry — and every pre-hierarchy
  // key stays valid). Only real chains append the `;h=` component below.
  int groups_key = groups;
  if (!hierarchy.is_flat())
    groups_key = hierarchy.is_scalar() ? hierarchy.scalar() : 1;
  std::ostringstream key;
  key << "net=" << net_part << ";gamma=" << net::describe_double(gamma_flop)
      << ";cm=" << static_cast<int>(collective_mode)
      << ";mba=" << static_cast<int>(machine_bcast_algo)
      << ";alg=" << static_cast<int>(algorithm) << ";grid=" << shape.rows
      << "x" << shape.cols << ";layers=" << layers << ";groups=" << groups_key
      << ";rl=";
  for (int level : row_levels) key << level << ",";
  key << ";cl=";
  for (int level : col_levels) key << level << ",";
  key << ";prob=" << problem.m << "," << problem.k << "," << problem.n << ","
      << problem.block << "," << problem.outer_block
      << ";mode=" << static_cast<int>(mode)
      << ";bcast=" << (bcast_algo ? static_cast<int>(*bcast_algo) : -1)
      << ";ovl=0;la=" << (lookahead == 0 ? -1 : lookahead)
      << ";verify=" << verify
      << ";seed=" << seed
      << ";ns=" << net::describe_double(noise_sigma)
      << ";nseed=" << noise_seed;
  if (hierarchy.depth() >= 2) key << ";h=" << hierarchy.to_string();
  if (!rank_gamma.empty()) {
    key << ";rg=";
    for (double g : rank_gamma) key << net::describe_double(g) << ",";
  }
  if (faults != nullptr && !faults->empty())
    key << ";fault=" << faults->canonical();
  return key.str();
}

core::RunResult run_sim_job(const SimJob& job) {
  const grid::GridShape shape = resolve_grid(job);
  HS_REQUIRE(shape.size() >= 1);
  HS_REQUIRE(job.layers >= 1);

  std::shared_ptr<const net::NetworkModel> network =
      job.network != nullptr ? job.network : job.platform.make_network();
  mpc::CollectiveMode collective_mode = job.collective_mode;
  if (job.noise_sigma > 0.0) {
    network = std::make_shared<net::NoisyModel>(std::move(network),
                                                job.noise_sigma,
                                                job.noise_seed);
    collective_mode = mpc::CollectiveMode::PointToPoint;
  }
  const bool faulty = job.faults != nullptr && !job.faults->empty();
  if (faulty) collective_mode = mpc::CollectiveMode::PointToPoint;

  desim::Engine engine;
  mpc::Machine machine(engine, std::move(network),
                       {.ranks = shape.size() * job.layers,
                        .collective_mode = collective_mode,
                        .bcast_algo = job.machine_bcast_algo,
                        .gamma_flop = job.gamma_flop,
                        .rank_gamma = job.rank_gamma});

  core::RunOptions options;
  options.grid = shape;
  options.problem = job.problem;
  options.mode = job.mode;
  options.bcast_algo = job.bcast_algo;
  options.layers = job.layers;
  options.algorithm = job.algorithm;
  options.lookahead = job.lookahead;
  options.verify = job.verify;
  options.seed = job.seed;
  options.row_levels = job.row_levels;
  options.col_levels = job.col_levels;

  // The registry's hierarchy-adaptation policy: the SUMMA families pick
  // flat vs hierarchical vs multi-level from the chain (G = 1 is exactly
  // SUMMA, as the paper notes; depth >= 2 recurses into the multilevel
  // kernel) and the factorizations map the chain onto hierarchical panel
  // broadcast level factors, so one job description covers a whole sweep.
  HS_REQUIRE_MSG(job.hierarchy.is_flat() || job.groups <= 1,
                 "SimJob got both a scalar group count ("
                     << job.groups << ") and a hierarchy ("
                     << job.hierarchy.to_string() << "); set only one");
  core::adapt_hierarchy(job.effective_hierarchy(), options);
  options.recorder = job.recorder;
  options.trace_sample = job.trace_sample;
  options.metrics = job.metrics;
  if (faulty) {
    if (job.recorder != nullptr) job.faults->emit_plan_spans(*job.recorder);
    options.faults = job.faults.get();
  }
  core::RunResult result = core::run(machine, options);
  if (job.metrics != nullptr) {
    machine.collect_metrics(*job.metrics);
    trace::collect_engine_metrics(engine, *job.metrics);
  }
  return result;
}

}  // namespace hs::exec
