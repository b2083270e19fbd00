// The paper's conclusion: "the optimal number of groups ... can be easily
// automated and incorporated into the implementation by using few
// iterations of HSUMMA." This bench runs the hs::tune autotuner and
// verifies its pick against an exhaustive sweep.
//
// --algorithm picks any registered kernel: for the factorizations (lu,
// cholesky) the tuned group count G maps onto hierarchical panel broadcast
// level factors (core::adapt_groups), the exact analogue of HSUMMA's G.
#include "bench_util.hpp"

#include <cstdio>
#include <iostream>

#include "core/kernel_registry.hpp"
#include "tune/group_tuner.hpp"

namespace {

int bench_main(int argc, char** argv) {
  long long n = 16384, block = 128, ranks = 1024;
  long long sample_steps = 2, max_candidates = 8, max_levels = 1;
  long long jobs = 0;
  std::string cache_dir;
  std::string platform_name = "bluegene-p-calibrated";
  std::string algo_name = "vandegeijn";
  std::string kernel_name = "summa";

  hs::CliParser cli("Group-count autotuner demo (paper's conclusions)");
  hs::bench::add_jobs_option(cli, &jobs);
  hs::bench::add_cache_dir_option(cli, &cache_dir);
  hs::bench::add_algorithm_option(cli, &kernel_name);
  cli.add_int("n", "matrix dimension", &n);
  cli.add_int("block", "block size", &block);
  cli.add_int("p", "number of processes", &ranks);
  cli.add_int("sample-steps", "outer steps sampled per candidate",
              &sample_steps);
  cli.add_int("max-candidates", "candidate cap (0 = all)", &max_candidates);
  cli.add_int("max-levels",
              "maximum hierarchy depth to search (>= 2 adds multi-level "
              "candidate chains to the scalar-G sweep)",
              &max_levels);
  cli.add_string("platform", "platform preset", &platform_name);
  cli.add_string("bcast", "broadcast algorithm", &algo_name);
  if (!cli.parse(argc, argv)) return 1;

  const auto platform = hs::net::Platform::by_name(platform_name);
  const auto algo = hs::net::bcast_algo_from_string(algo_name);
  const auto kernel = hs::core::algorithm_from_string(kernel_name);
  const bool factorization =
      hs::core::kernel_descriptor(kernel).factorization;
  const auto problem =
      factorization ? hs::core::ProblemSpec::factorization(n, block)
                    : hs::core::ProblemSpec::square(n, block);
  hs::bench::print_banner(
      "Autotuner — few-iteration group-count selection",
      "platform=" + platform.name + "  kernel=" + kernel_name +
          "  p=" + std::to_string(ranks) + "  n=" + std::to_string(n) +
          "  b=B=" + std::to_string(block) +
          "  sample steps=" + std::to_string(sample_steps));

  // One executor for the whole demo: the tuner's samples run concurrently,
  // and the tuned pick's full-problem re-run below is a cache hit against
  // the exhaustive sweep.
  hs::exec::ParallelExecutor executor(
      hs::bench::executor_options(jobs, cache_dir));

  hs::tune::TuneOptions options;
  options.kernel = kernel;
  options.executor = &executor;
  options.grid = hs::grid::near_square_shape(static_cast<int>(ranks));
  options.problem = problem;
  options.network = platform.make_network();
  options.machine_config = {.ranks = static_cast<int>(ranks),
                            .collective_mode =
                                hs::mpc::CollectiveMode::ClosedForm,
                            .bcast_algo = algo,
                            .gamma_flop = platform.gamma_flop};
  options.bcast_algo = algo;
  options.sample_outer_steps = static_cast<int>(sample_steps);
  options.max_candidates = static_cast<int>(max_candidates);
  options.max_levels = static_cast<int>(max_levels);

  const auto tuned = hs::tune::tune_groups(options);

  hs::Table table({"hierarchy", "G", "arrangement", "projected comm",
                   "projected total"});
  for (const auto& sample : tuned.samples)
    table.add_row({sample.hierarchy.to_string(),
                   std::to_string(sample.groups),
                   std::to_string(sample.arrangement.rows) + "x" +
                       std::to_string(sample.arrangement.cols),
                   hs::format_seconds(sample.comm_time),
                   hs::format_seconds(sample.total_time)});
  table.print(std::cout);
  std::printf("\nautotuner pick: %s (G=%d, %dx%d), projected comm %s\n",
              tuned.best_hierarchy.to_string().c_str(), tuned.best_groups,
              tuned.best_arrangement.rows, tuned.best_arrangement.cols,
              hs::format_seconds(tuned.best_comm_time).c_str());

  // Verify against an exhaustive full-problem sweep.
  hs::bench::Config config;
  config.platform = platform;
  config.ranks = static_cast<int>(ranks);
  config.problem = problem;
  config.algo = algo;
  config.algorithm = kernel;
  const std::vector<int> group_counts =
      hs::bench::pow2_group_counts(config.ranks);
  std::vector<hs::bench::Config> points;
  for (int g : group_counts) {
    config.groups = g;
    points.push_back(config);
  }
  const auto sweep = hs::bench::run_configs(points, &executor);
  double best = 0.0;
  int best_groups = 1;
  for (std::size_t i = 0; i < group_counts.size(); ++i) {
    const double comm = sweep[i].timing.max_comm_time;
    if (best == 0.0 || comm < best) {
      best = comm;
      best_groups = group_counts[i];
    }
  }
  // Served from the executor's cache when the pick is a scalar the sweep
  // above already ran; multi-level picks re-run as a chain.
  if (tuned.best_hierarchy.depth() >= 2) {
    config.groups = 1;
    config.hierarchy = tuned.best_hierarchy;
  } else {
    config.groups = tuned.best_groups;
  }
  const double tuned_full =
      hs::bench::run_configs({config}, &executor)[0].timing.max_comm_time;
  std::printf(
      "exhaustive scalar-G sweep best: G=%d with %s; tuner's pick measures "
      "%s (scalar best / pick = %.2fx, >1 means a chain beat every G)\n\n",
      best_groups, hs::format_seconds(best).c_str(),
      hs::format_seconds(tuned_full).c_str(), best / tuned_full);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hs::bench::run_main(argc, argv, bench_main);
}
