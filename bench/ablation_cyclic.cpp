// Extension (the paper's main future work): block-cyclic distribution.
// "...by using block-cyclic distribution the communication can be better
// overlapped and parallelized and thus the communication cost can be
// reduced even further."
//
// This bench compares, on the same platform/problem:
//   block distribution,   blocking      (the paper's evaluated setup)
//   block distribution,   overlapped
//   block-cyclic,         blocking      (same tree shapes -> same time)
//   block-cyclic,         overlapped    (rotating pivot owners)
// for SUMMA and for HSUMMA at the model-optimal G.
#include "bench_util.hpp"

#include <cmath>
#include <cstdio>
#include <iostream>

namespace {

int bench_main(int argc, char** argv) {
  long long n = 16384, block = 128, ranks = 1024;
  std::string platform_name = "bluegene-p-calibrated";
  std::string algo_name = "vandegeijn";
  std::string csv;
  hs::bench::TraceCli trace;

  hs::CliParser cli("Extension: block-cyclic distribution + overlap");
  hs::bench::add_trace_options(cli, &trace);
  cli.add_int("n", "matrix dimension", &n);
  cli.add_int("block", "block size b = B", &block);
  cli.add_int("p", "number of processes", &ranks);
  cli.add_string("platform", "platform preset", &platform_name);
  cli.add_string("bcast", "broadcast algorithm", &algo_name);
  cli.add_string("csv", "CSV output path", &csv);
  if (!cli.parse(argc, argv)) return 1;

  const auto platform = hs::net::Platform::by_name(platform_name);
  const auto algo = hs::net::bcast_algo_from_string(algo_name);
  const int sqrt_g = 1 << (static_cast<int>(std::log2(ranks)) / 2);

  hs::bench::print_banner(
      "Extension — block-cyclic distribution and overlap",
      "platform=" + platform.name + "  p=" + std::to_string(ranks) +
          "  n=" + std::to_string(n) + "  b=B=" + std::to_string(block) +
          "  HSUMMA at G=" + std::to_string(sqrt_g));

  hs::Table table({"configuration", "total time", "exposed comm",
                   "vs block+blocking"});
  std::vector<std::vector<std::string>> csv_rows;
  double baseline = 0.0;
  hs::bench::Config traced_config;
  std::string traced_label;
  double traced_total = 0.0;

  using Algorithm = hs::core::Algorithm;
  auto add = [&](const std::string& name, Algorithm algorithm,
                 int groups, bool overlap) {
    hs::bench::Config config;
    config.platform = platform;
    config.ranks = static_cast<int>(ranks);
    config.groups = groups;
    config.problem = hs::core::ProblemSpec::square(n, block);
    // Give the hierarchical inner pipeline depth: B = 4b for HSUMMA rows.
    if (algorithm == Algorithm::Hsumma ||
        algorithm == Algorithm::HsummaCyclic)
      config.problem.outer_block = 4 * block;
    config.algo = algo;
    config.algorithm = algorithm;
    config.lookahead = overlap ? 1 : 0;
    const auto result = hs::bench::run_config(config);
    if (baseline == 0.0) baseline = result.timing.total_time;
    if (traced_label.empty() || result.timing.total_time < traced_total) {
      // Trace the fastest configuration seen across the comparison.
      traced_total = result.timing.total_time;
      traced_config = config;
      traced_label = name;
    }
    table.add_row({name, hs::format_seconds(result.timing.total_time),
                   hs::format_seconds(result.timing.max_comm_time),
                   hs::format_ratio(baseline / result.timing.total_time)});
    csv_rows.push_back({name,
                        hs::format_double(result.timing.total_time, 9),
                        hs::format_double(result.timing.max_comm_time, 9)});
  };

  add("SUMMA  block    blocking", Algorithm::Summa, 1, false);
  add("SUMMA  block    overlap", Algorithm::Summa, 1, true);
  add("SUMMA  cyclic   blocking", Algorithm::SummaCyclic, 1, false);
  add("SUMMA  cyclic   overlap", Algorithm::SummaCyclic, 1, true);
  add("HSUMMA block    blocking", Algorithm::Hsumma, sqrt_g, false);
  add("HSUMMA block    overlap", Algorithm::Hsumma, sqrt_g, true);
  add("HSUMMA cyclic   blocking", Algorithm::HsummaCyclic, sqrt_g, false);
  add("HSUMMA cyclic   overlap", Algorithm::HsummaCyclic, sqrt_g, true);
  table.print(std::cout);
  std::printf(
      "\nHierarchy, overlap and the cyclic layout compose; blocking times "
      "match across layouts (same broadcast trees), gains appear where the "
      "pipeline can hide work.\n\n");
  hs::bench::maybe_write_csv(
      csv, csv_rows, {"configuration", "total_seconds", "exposed_comm_seconds"});
  hs::bench::run_traced(traced_config, trace, traced_label);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hs::bench::run_main(argc, argv, bench_main);
}
