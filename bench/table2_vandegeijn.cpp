// Table II: SUMMA vs HSUMMA cost decomposition under the van de Geijn
// (scatter + ring allgather) broadcast, including the paper's
// G = sqrt(p), b = B specialization (eq. 12).
#include "bench_util.hpp"

#include "model/tables.hpp"

#include <cstdio>
#include <iostream>

namespace {

void print_symbolic(const std::vector<hs::model::TableRow>& rows) {
  hs::Table table({"Algorithm", "Comp. cost", "Latency (inside)",
                   "Latency (between)", "Bandwidth (inside)",
                   "Bandwidth (between)"});
  for (const auto& row : rows)
    table.add_row({row.algorithm, row.computation, row.latency_inside,
                   row.latency_between, row.bandwidth_inside,
                   row.bandwidth_between});
  table.print(std::cout);
  std::printf("\n");
}

void print_numeric(const char* platform_name, double n, double p, double b,
                   double groups) {
  const auto platform = hs::net::Platform::by_name(platform_name);
  const auto rows = hs::model::evaluate_table(
      hs::net::BcastAlgo::ScatterRingAllgather, n, p, b, groups,
      hs::model::PlatformModel::from(platform));
  std::printf("numeric on %s (n=%.0f, p=%.0f, b=B=%.0f, G=%.0f):\n",
              platform_name, n, p, b, groups);
  hs::Table table({"Algorithm", "latency", "bandwidth", "comm total",
                   "compute"});
  for (const auto& row : rows)
    table.add_row({row.algorithm, hs::format_seconds(row.cost.latency),
                   hs::format_seconds(row.cost.bandwidth),
                   hs::format_seconds(row.cost.comm()),
                   hs::format_seconds(row.cost.compute)});
  table.print(std::cout);
  std::printf("\n");
}

int bench_main(int argc, char** argv) {
  hs::CliParser cli("Reproduce Table II (van de Geijn broadcast costs)");
  if (!cli.parse(argc, argv)) return 1;

  hs::bench::print_banner(
      "Table II — comparison with van de Geijn broadcast",
      "symbolic cost terms + numeric evaluation (incl. G = sqrt(p) row)");
  print_symbolic(hs::model::table2_symbolic());
  print_numeric("grid5000", 8192, 128, 64, 8);
  print_numeric("bluegene-p", 65536, 16384, 256, 512);
  print_numeric("bluegene-p-calibrated", 65536, 16384, 256, 512);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hs::bench::run_main(argc, argv, bench_main);
}
