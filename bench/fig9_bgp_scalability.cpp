// Figure 9: SUMMA vs HSUMMA communication time on BlueGene/P as the core
// count scales (p = 2048 ... 16384), n = 65536, b = B = 256.
//
// The paper reports the gap widening with scale: 2.08x less communication
// at 2048 cores and 5.89x at 16384. For each p we report SUMMA and HSUMMA
// at its best power-of-two G.
#include "bench_util.hpp"

#include <cmath>
#include <cstdio>
#include <iostream>

namespace {

int bench_main(int argc, char** argv) {
  long long n = 65536, block = 256;
  long long jobs = 0;
  std::string cache_dir;
  std::vector<long long> process_counts{2048, 4096, 8192, 16384};
  std::string platform_name = "bluegene-p-calibrated";
  std::string algo_name = "vandegeijn";
  std::string csv;
  hs::bench::TraceCli trace;

  hs::CliParser cli("Reproduce Figure 9 (BlueGene/P scalability)");
  hs::bench::add_jobs_option(cli, &jobs);
  hs::bench::add_cache_dir_option(cli, &cache_dir);
  hs::bench::add_trace_options(cli, &trace);
  cli.add_int("n", "matrix dimension", &n);
  cli.add_int("block", "block size b = B", &block);
  cli.add_int_list("procs", "process counts", &process_counts);
  cli.add_string("platform", "platform preset", &platform_name);
  cli.add_string("bcast", "broadcast algorithm", &algo_name);
  cli.add_string("csv", "CSV output path", &csv);
  if (!cli.parse(argc, argv)) return 1;

  const auto platform = hs::net::Platform::by_name(platform_name);
  const auto algo = hs::net::bcast_algo_from_string(algo_name);

  hs::bench::print_banner(
      "Figure 9 — SUMMA and HSUMMA communication scalability on BlueGene/P",
      "platform=" + platform.name + "  n=" + std::to_string(n) +
          "  b=B=" + std::to_string(block) + "  bcast=" +
          std::string(hs::net::to_string(algo)));

  hs::Table table({"p", "grid", "SUMMA comm", "HSUMMA comm (best G)",
                   "best G", "improvement"});
  std::vector<std::vector<std::string>> csv_rows;

  hs::exec::ParallelExecutor executor(
      hs::bench::executor_options(jobs, cache_dir));
  hs::bench::Config traced_config;
  for (long long p : process_counts) {
    hs::bench::Config config;
    config.platform = platform;
    config.ranks = static_cast<int>(p);
    config.problem = hs::core::ProblemSpec::square(n, block);
    config.algo = algo;

    // Sweep G around the model's sqrt(p) optimum (a factor of 8 each way)
    // instead of the full range: the full 16384-rank sweep lives in fig8.
    const double sqrt_p = std::sqrt(static_cast<double>(p));
    std::vector<int> group_counts;
    for (int g : hs::bench::pow2_group_counts(config.ranks)) {
      if (g > 1 && (g < sqrt_p / 8.0 || g > sqrt_p * 8.0)) continue;
      group_counts.push_back(g);
    }
    const auto best = hs::bench::run_best_g(config, group_counts, &executor);
    // Largest p wins the trace: it is the point the figure is about.
    traced_config = config;
    traced_config.groups = best.best_groups;

    const auto shape = hs::grid::near_square_shape(config.ranks);
    table.add_row({std::to_string(p),
                   std::to_string(shape.rows) + "x" + std::to_string(shape.cols),
                   hs::format_seconds(best.summa_comm),
                   hs::format_seconds(best.best_comm),
                   std::to_string(best.best_groups),
                   hs::format_ratio(best.summa_comm / best.best_comm)});
    csv_rows.push_back({std::to_string(p),
                        hs::format_double(best.summa_comm, 9),
                        hs::format_double(best.best_comm, 9),
                        std::to_string(best.best_groups)});
  }
  table.print(std::cout);
  std::printf("\n");
  hs::bench::maybe_write_csv(csv, csv_rows,
                             {"procs", "summa_comm_seconds",
                              "hsumma_best_comm_seconds", "best_groups"});
  if (!process_counts.empty())
    hs::bench::run_traced(traced_config, trace,
                          "HSUMMA p=" + std::to_string(traced_config.ranks) +
                              " G=" + std::to_string(traced_config.groups));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hs::bench::run_main(argc, argv, bench_main);
}
