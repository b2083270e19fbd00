// Ablation: how much of HSUMMA's win depends on the underlying broadcast
// algorithm (Section IV-C: "independent of the broadcast algorithm
// employed, HSUMMA will either outperform SUMMA or be at least equally
// fast").
//
// Expected pattern: broadcasts whose latency factor grows linearly in the
// participant count (flat, van de Geijn's ring phase, pipelined chain) gain
// a lot from hierarchy; purely logarithmic broadcasts (binomial,
// scatter + recursive doubling) split additively and tie.
#include "bench_util.hpp"

#include <cstdio>
#include <iostream>

namespace {

int bench_main(int argc, char** argv) {
  long long n = 16384, block = 128, ranks = 1024;
  std::string platform_name = "bluegene-p-calibrated";
  std::string csv;
  hs::bench::TraceCli trace;

  hs::CliParser cli("Ablation: HSUMMA gain per broadcast algorithm");
  hs::bench::add_trace_options(cli, &trace);
  cli.add_int("n", "matrix dimension", &n);
  cli.add_int("block", "block size b = B", &block);
  cli.add_int("p", "number of processes", &ranks);
  cli.add_string("platform", "platform preset", &platform_name);
  cli.add_string("csv", "CSV output path", &csv);
  if (!cli.parse(argc, argv)) return 1;

  const auto platform = hs::net::Platform::by_name(platform_name);
  hs::bench::print_banner(
      "Ablation — broadcast algorithm sensitivity",
      "platform=" + platform.name + "  p=" + std::to_string(ranks) +
          "  n=" + std::to_string(n) + "  b=B=" + std::to_string(block));

  hs::Table table({"broadcast", "SUMMA comm", "HSUMMA comm (best G)",
                   "best G", "improvement"});
  std::vector<std::vector<std::string>> csv_rows;
  hs::bench::Config traced_config;
  std::string traced_label;
  double traced_comm = 0.0;

  for (auto algo :
       {hs::net::BcastAlgo::Flat, hs::net::BcastAlgo::Binomial,
        hs::net::BcastAlgo::ScatterRingAllgather,
        hs::net::BcastAlgo::ScatterRecDblAllgather,
        hs::net::BcastAlgo::MpichAuto}) {
    hs::bench::Config config;
    config.platform = platform;
    config.ranks = static_cast<int>(ranks);
    config.problem = hs::core::ProblemSpec::square(n, block);
    config.algo = algo;

    config.groups = 1;
    const double summa = hs::bench::run_config(config).timing.max_comm_time;
    double best = summa;
    int best_groups = 1;
    for (int g : hs::bench::pow2_group_counts(config.ranks)) {
      config.groups = g;
      const double comm = hs::bench::run_config(config).timing.max_comm_time;
      if (comm < best) {
        best = comm;
        best_groups = g;
      }
    }
    const std::string name(hs::net::to_string(algo));
    if (traced_label.empty() || best < traced_comm) {
      // Trace the fastest (bcast, G) pair seen across the whole ablation.
      traced_comm = best;
      traced_config = config;
      traced_config.groups = best_groups;
      traced_label = name + " G=" + std::to_string(best_groups);
    }
    table.add_row({name, hs::format_seconds(summa), hs::format_seconds(best),
                   std::to_string(best_groups),
                   hs::format_ratio(summa / best)});
    csv_rows.push_back({name, hs::format_double(summa, 9),
                        hs::format_double(best, 9),
                        std::to_string(best_groups)});
  }
  table.print(std::cout);
  std::printf(
      "\nHSUMMA never loses; it wins exactly where the broadcast latency "
      "factor is super-logarithmic in the participant count.\n\n");
  hs::bench::maybe_write_csv(csv, csv_rows,
                             {"bcast", "summa_comm_seconds",
                              "hsumma_best_comm_seconds", "best_groups"});
  hs::bench::run_traced(traced_config, trace, traced_label);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hs::bench::run_main(argc, argv, bench_main);
}
