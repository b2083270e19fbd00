// Table I: SUMMA vs HSUMMA cost decomposition under the binomial tree
// broadcast — symbolic terms plus numeric evaluation on the paper's
// platforms. The binomial broadcast's log terms split additively
// (log2(G) + log2(p/G) = log2(p)), so with b = B the two algorithms tie —
// exactly what the table's structure implies and the numeric rows confirm.
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
                   double groups, hs::net::BcastAlgo algo) {
  const auto platform = hs::net::Platform::by_name(platform_name);
  const auto rows = hs::model::evaluate_table(
      algo, n, p, b, groups, hs::model::PlatformModel::from(platform));
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
  hs::CliParser cli("Reproduce Table I (binomial tree broadcast costs)");
  if (!cli.parse(argc, argv)) return 1;

  hs::bench::print_banner("Table I — comparison with binomial tree broadcast",
                          "symbolic cost terms + numeric evaluation");
  print_symbolic(hs::model::table1_symbolic());
  print_numeric("grid5000", 8192, 128, 64, 8, hs::net::BcastAlgo::Binomial);
  print_numeric("bluegene-p", 65536, 16384, 256, 128,
                hs::net::BcastAlgo::Binomial);
  std::printf(
      "Note: under the binomial broadcast the log terms split additively, "
      "so HSUMMA with b = B matches SUMMA at every G — hierarchy pays off "
      "with broadcasts whose latency grows super-logarithmically (Table "
      "II).\n\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hs::bench::run_main(argc, argv, bench_main);
}
