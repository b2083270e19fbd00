// Ablation: decoupling the outer block size B from the inner block size b
// (the paper's Section III allows B >= b but evaluates only b = B "for a
// fair comparison"). Larger B batches the inter-group phase into fewer,
// bigger messages, trading inter-group latency against pipelining
// granularity.
#include "bench_util.hpp"

#include <cstdio>
#include <iostream>

namespace {

int bench_main(int argc, char** argv) {
  long long n = 16384, block = 64, ranks = 1024, groups = 32;
  std::string platform_name = "bluegene-p-calibrated";
  std::string algo_name = "vandegeijn";
  std::string csv;
  hs::bench::TraceCli trace;

  hs::CliParser cli("Ablation: outer block size B vs inner block size b");
  hs::bench::add_trace_options(cli, &trace);
  cli.add_int("n", "matrix dimension", &n);
  cli.add_int("block", "inner block size b", &block);
  cli.add_int("p", "number of processes", &ranks);
  cli.add_int("groups", "group count G", &groups);
  cli.add_string("platform", "platform preset", &platform_name);
  cli.add_string("bcast", "broadcast algorithm", &algo_name);
  cli.add_string("csv", "CSV output path", &csv);
  if (!cli.parse(argc, argv)) return 1;

  const auto platform = hs::net::Platform::by_name(platform_name);
  const auto algo = hs::net::bcast_algo_from_string(algo_name);
  hs::bench::print_banner(
      "Ablation — outer block size B (inner b fixed)",
      "platform=" + platform.name + "  p=" + std::to_string(ranks) +
          "  n=" + std::to_string(n) + "  b=" + std::to_string(block) +
          "  G=" + std::to_string(groups));

  hs::Table table({"B", "outer steps", "inner steps/outer", "comm time",
                   "vs B=b"});
  std::vector<std::vector<std::string>> csv_rows;
  double base = 0.0;
  hs::bench::Config traced_config;
  double traced_comm = 0.0;
  const auto shape = hs::grid::near_square_shape(static_cast<int>(ranks));
  const long long max_outer =
      n / std::max<long long>(shape.rows, shape.cols);
  for (long long outer = block; outer <= max_outer; outer *= 2) {
    if (n % (shape.cols * outer) != 0 || n % (shape.rows * outer) != 0)
      continue;
    hs::bench::Config config;
    config.platform = platform;
    config.ranks = static_cast<int>(ranks);
    config.groups = static_cast<int>(groups);
    config.problem = hs::core::ProblemSpec::square(n, block);
    config.problem.outer_block = outer;
    config.algo = algo;
    const double comm = hs::bench::run_config(config).timing.max_comm_time;
    if (base == 0.0) base = comm;
    if (traced_comm == 0.0 || comm < traced_comm) {
      // Trace the best outer block size.
      traced_comm = comm;
      traced_config = config;
    }
    table.add_row({std::to_string(outer), std::to_string(n / outer),
                   std::to_string(outer / block), hs::format_seconds(comm),
                   hs::format_ratio(base / comm)});
    csv_rows.push_back({std::to_string(outer), hs::format_double(comm, 9)});
  }
  table.print(std::cout);
  std::printf("\n");
  hs::bench::maybe_write_csv(csv, csv_rows, {"outer_block", "comm_seconds"});
  if (traced_comm != 0.0)
    hs::bench::run_traced(
        traced_config, trace,
        "B=" + std::to_string(traced_config.problem.outer_block));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hs::bench::run_main(argc, argv, bench_main);
}
