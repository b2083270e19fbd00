// CollMark-style collective benchmark (the paper cites Shroff & van de
// Geijn's CollMark [17]): broadcast completion time per algorithm across a
// message-size sweep, locating the crossover points that justify
// MPICH-style size-based dispatch — the dispatch MpichAuto reproduces.
#include "bench_util.hpp"

#include <cstdio>
#include <iostream>
#include <memory>

#include "common/units.hpp"

#include "mpc/collectives.hpp"

namespace {

double time_bcast(const hs::net::Platform& platform, int ranks,
                  std::size_t elements, hs::net::BcastAlgo algo) {
  hs::desim::Engine engine;
  hs::mpc::Machine machine(engine, platform.make_network(), {.ranks = ranks});
  auto program = [&](hs::mpc::Comm comm) -> hs::desim::Task<void> {
    co_await hs::mpc::bcast(comm, 0, hs::mpc::Buf::phantom(elements), algo);
  };
  return hs::mpc::run_spmd(machine, program);
}

int bench_main(int argc, char** argv) {
  long long ranks = 64;
  std::string platform_name = "grid5000";
  std::string csv;

  hs::CliParser cli("CollMark-style broadcast algorithm sweep");
  cli.add_int("p", "number of processes", &ranks);
  cli.add_string("platform", "platform preset", &platform_name);
  cli.add_string("csv", "CSV output path", &csv);
  if (!cli.parse(argc, argv)) return 1;

  const auto platform = hs::net::Platform::by_name(platform_name);
  hs::bench::print_banner(
      "Broadcast algorithm sweep (after CollMark)",
      "platform=" + platform.name + "  p=" + std::to_string(ranks) +
          "  per-message time from routed tree simulation");

  const hs::net::BcastAlgo algos[] = {
      hs::net::BcastAlgo::Flat, hs::net::BcastAlgo::Binomial,
      hs::net::BcastAlgo::ScatterRingAllgather,
      hs::net::BcastAlgo::ScatterRecDblAllgather,
      hs::net::BcastAlgo::Pipelined};

  hs::Table table({"message", "flat", "binomial", "vandegeijn",
                   "scatter-recdbl", "pipelined", "auto picks"});
  std::vector<std::vector<std::string>> csv_rows;
  for (std::size_t elements = 16; elements <= (1u << 21); elements *= 8) {
    std::vector<std::string> row{hs::format_bytes(elements * 8)};
    std::vector<std::string> csv_row{std::to_string(elements * 8)};
    double best = 0.0;
    for (auto algo : algos) {
      const double t =
          time_bcast(platform, static_cast<int>(ranks), elements, algo);
      if (best == 0.0 || t < best) best = t;
      row.push_back(hs::format_seconds(t));
      csv_row.push_back(hs::format_double(t, 9));
    }
    row.push_back(std::string(hs::net::to_string(hs::net::resolve_auto(
        hs::net::BcastAlgo::MpichAuto, static_cast<int>(ranks),
        elements * 8))));
    table.add_row(row);
    csv_rows.push_back(csv_row);
  }
  table.print(std::cout);
  std::printf(
      "\nSmall messages favor the log-depth binomial tree; large ones the "
      "bandwidth-optimal scatter+allgather — the crossover MpichAuto "
      "implements, and the regime distinction behind the paper's Table I "
      "vs Table II.\n\n");
  hs::bench::maybe_write_csv(csv, csv_rows,
                             {"bytes", "flat", "binomial", "vandegeijn",
                              "scatter_recdbl", "pipelined"});
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hs::bench::run_main(argc, argv, bench_main);
}
