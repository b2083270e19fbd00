// Where the time goes: per group count, HSUMMA's communication split into
// the inter-group (outer) and intra-group (inner) phases — the measured
// counterpart of the paper's Table I/II column structure. At small G the
// inner phase dominates (big groups), at large G the outer phase does; the
// optimum balances them, exactly where dT/dG = 0 predicts.
#include "bench_util.hpp"

#include <cstdio>
#include <iostream>

namespace {

int bench_main(int argc, char** argv) {
  long long n = 16384, block = 128, ranks = 1024;
  std::string platform_name = "bluegene-p-calibrated";
  std::string algo_name = "vandegeijn";
  std::string csv;

  hs::CliParser cli("Outer/inner communication phase breakdown per G");
  cli.add_int("n", "matrix dimension", &n);
  cli.add_int("block", "block size b = B", &block);
  cli.add_int("p", "number of processes", &ranks);
  cli.add_string("platform", "platform preset", &platform_name);
  cli.add_string("bcast", "broadcast algorithm", &algo_name);
  cli.add_string("csv", "CSV output path", &csv);
  if (!cli.parse(argc, argv)) return 1;

  const auto platform = hs::net::Platform::by_name(platform_name);
  const auto algo = hs::net::bcast_algo_from_string(algo_name);
  hs::bench::print_banner(
      "Phase breakdown — inter-group vs intra-group communication",
      "platform=" + platform.name + "  p=" + std::to_string(ranks) +
          "  n=" + std::to_string(n) + "  b=B=" + std::to_string(block) +
          "  bcast=" + std::string(hs::net::to_string(algo)));

  hs::Table table({"G", "total comm", "outer (inter-group)",
                   "inner (intra-group)", "outer share"});
  std::vector<std::vector<std::string>> csv_rows;

  for (int g : hs::bench::pow2_group_counts(static_cast<int>(ranks))) {
    if (g == 1) continue;  // SUMMA has no outer phase
    hs::bench::Config config;
    config.platform = platform;
    config.ranks = static_cast<int>(ranks);
    config.groups = g;
    config.problem = hs::core::ProblemSpec::square(n, block);
    config.algo = algo;
    const auto result = hs::bench::run_config(config);
    // HSUMMA's outer phase is chain level 0, its inner phase level 1.
    const double outer = result.timing.level_comm(0);
    const double inner = result.timing.level_comm(1);
    table.add_row(
        {std::to_string(g), hs::format_seconds(result.timing.max_comm_time),
         hs::format_seconds(outer), hs::format_seconds(inner),
         hs::format_double(100.0 * outer / (outer + inner), 3) + "%"});
    csv_rows.push_back({std::to_string(g), hs::format_double(outer, 9),
                        hs::format_double(inner, 9)});
  }
  table.print(std::cout);
  std::printf(
      "\nThe optimum G balances the two phases — the measured face of the "
      "paper's dT/dG = 0 at G = sqrt(p).\n\n");
  hs::bench::maybe_write_csv(
      csv, csv_rows, {"groups", "outer_comm_seconds", "inner_comm_seconds"});
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hs::bench::run_main(argc, argv, bench_main);
}
