// Baseline comparison: Cannon, Fox, SUMMA, HSUMMA and 2.5D-style
// replicated SUMMA on the same platform and problem — communication time,
// messages, wire volume and per-rank memory factor. Contextualizes the
// paper's introduction: why SUMMA (generality) and why hierarchy (latency)
// rather than replication (memory).
#include "bench_util.hpp"

#include <cmath>
#include <cstdio>
#include <iostream>

#include "common/units.hpp"

namespace {

int bench_main(int argc, char** argv) {
  long long n = 8192, block = 128, ranks = 256;
  std::string platform_name = "bluegene-p-calibrated";
  std::string csv, hierarchy_spec;

  hs::CliParser cli("Compare Cannon / Fox / SUMMA / HSUMMA / 2.5D");
  cli.add_int("n", "matrix dimension", &n);
  cli.add_int("block", "block size (SUMMA-family)", &block);
  cli.add_int("p", "number of processes (perfect square)", &ranks);
  cli.add_string("platform", "platform preset", &platform_name);
  hs::bench::add_hierarchy_option(cli, &hierarchy_spec);
  cli.add_string("csv", "CSV output path", &csv);
  if (!cli.parse(argc, argv)) return 1;

  const int q = static_cast<int>(std::lround(std::sqrt(double(ranks))));
  if (q * q != ranks) {
    std::fprintf(stderr, "error: p must be a perfect square (Cannon/Fox)\n");
    return 1;
  }
  const auto platform = hs::net::Platform::by_name(platform_name);
  hs::bench::print_banner(
      "Baseline comparison on " + platform.name,
      "p=" + std::to_string(ranks) + " (" + std::to_string(q) + "x" +
          std::to_string(q) + ")  n=" + std::to_string(n) +
          "  b=" + std::to_string(block));

  hs::Table table({"algorithm", "comm time", "messages", "wire volume",
                   "memory factor"});
  std::vector<std::vector<std::string>> csv_rows;

  auto add_row = [&](const std::string& name, const hs::core::RunResult& r,
                     double memory_factor) {
    table.add_row({name, hs::format_seconds(r.timing.max_comm_time),
                   std::to_string(r.messages),
                   hs::format_bytes(r.wire_bytes),
                   hs::format_double(memory_factor, 3)});
    csv_rows.push_back({name, hs::format_double(r.timing.max_comm_time, 9),
                        std::to_string(r.messages),
                        std::to_string(r.wire_bytes)});
  };

  hs::bench::Config config;
  config.platform = platform;
  config.ranks = static_cast<int>(ranks);
  config.problem = hs::core::ProblemSpec::square(n, block);
  config.mode = hs::mpc::CollectiveMode::PointToPoint;
  config.algo = hs::net::BcastAlgo::MpichAuto;

  config.algorithm = hs::core::Algorithm::Cannon;
  add_row("Cannon", hs::bench::run_config(config), 1.0);

  config.algorithm = hs::core::Algorithm::Fox;
  add_row("Fox", hs::bench::run_config(config), 1.0);

  config.algorithm = hs::core::Algorithm::Summa;
  config.groups = 1;
  add_row("SUMMA", hs::bench::run_config(config), 1.0);

  config.algorithm = hs::core::Algorithm::Hsumma;
  double best = 0.0;
  int best_groups = 1;
  hs::core::RunResult best_result;
  for (int g : hs::bench::pow2_group_counts(config.ranks)) {
    config.groups = g;
    auto r = hs::bench::run_config(config);
    if (best == 0.0 || r.timing.max_comm_time < best) {
      best = r.timing.max_comm_time;
      best_groups = g;
      best_result = r;
    }
  }
  add_row("HSUMMA (G=" + std::to_string(best_groups) + ")", best_result, 1.0);

  // --hierarchy: one extra row running the recursive multi-level kernel
  // with the requested group chain (e.g. --hierarchy 8x4).
  if (!hierarchy_spec.empty()) {
    config.algorithm = hs::core::Algorithm::Summa;
    config.groups = 1;
    config.hierarchy = hs::core::GroupHierarchy::parse(hierarchy_spec);
    add_row("hierarchy " + config.hierarchy.to_string(),
            hs::bench::run_config(config), 1.0);
    config.hierarchy = {};
  }

  config.algorithm = hs::core::Algorithm::Summa25D;
  config.groups = 1;
  for (int layers : {2, 4}) {
    if ((n / block) % layers != 0) continue;
    // Keep total ranks constant: shrink the per-layer grid.
    const int per_layer = static_cast<int>(ranks) / layers;
    const int ql = static_cast<int>(std::lround(std::sqrt(double(per_layer))));
    if (ql * ql != per_layer) continue;
    config.ranks = per_layer;
    config.layers = layers;
    add_row("2.5D c=" + std::to_string(layers) + " (same total p)",
            hs::bench::run_config(config), static_cast<double>(layers));
  }
  table.print(std::cout);
  std::printf(
      "\nCannon/Fox need square grids; 2.5D needs c extra matrix copies "
      "per rank; HSUMMA needs neither — the paper's positioning.\n\n");
  hs::bench::maybe_write_csv(
      csv, csv_rows, {"algorithm", "comm_seconds", "messages", "wire_bytes"});
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hs::bench::run_main(argc, argv, bench_main);
}
