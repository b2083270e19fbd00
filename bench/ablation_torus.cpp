// Ablation: topology sensitivity — the "zigzags" of the paper's Figure 8.
//
// The paper attributes the non-monotone wiggles in its BG/P G-sweep to how
// logical communication layouts map onto the 3-D torus (Balaji et al.).
// Here we run the *point-to-point* simulator (every tree message routed
// individually) over a BG/P-like torus with per-hop latency and compare
// against the flat Hockney network: the torus curve picks up exactly such
// mapping-dependent wiggles because different group arrangements place
// tree neighbors at different hop distances.
#include "bench_util.hpp"

#include <cstdio>
#include <iostream>

#include "net/topology.hpp"

namespace {

double run_on_network(std::shared_ptr<const hs::net::NetworkModel> network,
                      int ranks, int groups, const hs::core::ProblemSpec& problem,
                      hs::net::BcastAlgo algo,
                      hs::trace::Recorder* recorder = nullptr,
                      hs::trace::MetricsRegistry* metrics = nullptr) {
  hs::desim::Engine engine;
  hs::mpc::Machine machine(engine, std::move(network),
                           {.ranks = ranks,
                            .collective_mode =
                                hs::mpc::CollectiveMode::PointToPoint,
                            .bcast_algo = algo,
                            .gamma_flop = 0.0});
  hs::core::RunOptions options;
  options.algorithm = groups == 1 ? hs::core::Algorithm::Summa
                                  : hs::core::Algorithm::Hsumma;
  options.grid = hs::grid::near_square_shape(ranks);
  options.groups = hs::grid::group_arrangement(options.grid, groups);
  options.problem = problem;
  options.mode = hs::core::PayloadMode::Phantom;
  options.bcast_algo = algo;
  options.recorder = recorder;
  const double comm = hs::core::run(machine, options).timing.max_comm_time;
  if (metrics != nullptr) {
    machine.collect_metrics(*metrics);
    hs::trace::collect_engine_metrics(engine, *metrics);
  }
  return comm;
}

int bench_main(int argc, char** argv) {
  long long n = 2048, block = 64, ranks = 256;
  double hop_latency_us = 50.0;
  std::string csv;
  hs::bench::TraceCli trace;

  hs::CliParser cli(
      "Ablation: 3-D torus topology vs flat network (Figure 8 zigzags)");
  hs::bench::add_trace_options(cli, &trace);
  cli.add_int("n", "matrix dimension", &n);
  cli.add_int("block", "block size", &block);
  cli.add_int("p", "number of processes", &ranks);
  cli.add_double("hop-latency-us", "per-hop routing latency (microseconds)",
                 &hop_latency_us);
  cli.add_string("csv", "CSV output path", &csv);
  if (!cli.parse(argc, argv)) return 1;

  const auto platform = hs::net::Platform::bluegene_p_calibrated();
  const auto algo = hs::net::BcastAlgo::ScatterRingAllgather;
  const auto problem = hs::core::ProblemSpec::square(n, block);

  auto flat = std::make_shared<hs::net::HockneyModel>(platform.alpha,
                                                      platform.beta);
  auto torus = hs::net::make_bgp_torus(static_cast<int>(ranks),
                                       platform.alpha,
                                       hop_latency_us * 1e-6, platform.beta);

  hs::bench::print_banner(
      "Ablation — torus mapping effects (p2p-routed collectives)",
      "p=" + std::to_string(ranks) + "  n=" + std::to_string(n) +
          "  b=" + std::to_string(block) + "  per-hop latency " +
          hs::format_double(hop_latency_us, 3) + " us");

  hs::Table table({"G", "flat network", "3-D torus", "torus/flat"});
  std::vector<std::vector<std::string>> csv_rows;
  int traced_groups = 1;
  double traced_comm = 0.0;
  for (int g : hs::bench::pow2_group_counts(static_cast<int>(ranks))) {
    const double flat_time =
        run_on_network(flat, static_cast<int>(ranks), g, problem, algo);
    const double torus_time =
        run_on_network(torus, static_cast<int>(ranks), g, problem, algo);
    if (traced_comm == 0.0 || torus_time < traced_comm) {
      traced_comm = torus_time;
      traced_groups = g;
    }
    table.add_row({std::to_string(g), hs::format_seconds(flat_time),
                   hs::format_seconds(torus_time),
                   hs::format_double(torus_time / flat_time, 4)});
    csv_rows.push_back({std::to_string(g), hs::format_double(flat_time, 9),
                        hs::format_double(torus_time, 9)});
  }
  table.print(std::cout);
  std::printf(
      "\nThe torus/flat column wiggles non-monotonically across G — the "
      "mapping-dependent \"zigzag\" effect the paper observes; grouping "
      "that aligns with the torus keeps tree neighbors close.\n\n");
  hs::bench::maybe_write_csv(
      csv, csv_rows, {"groups", "flat_comm_seconds", "torus_comm_seconds"});

  if (trace.enabled()) {
    // Re-run the best torus point with the sinks attached. This is the one
    // bench whose machine to_sim_job cannot describe (explicit topology),
    // so the sinks are filled here and only the rendering is shared. The
    // point-to-point mode means the timeline shows every routed tree
    // message as a wire span.
    hs::trace::Recorder recorder;
    hs::trace::MetricsRegistry metrics;
    run_on_network(torus, static_cast<int>(ranks), traced_groups, problem,
                   algo, trace.trace_path.empty() ? nullptr : &recorder,
                   trace.metrics ? &metrics : nullptr);
    hs::bench::emit_trace_artifacts(
        recorder, metrics, trace,
        "torus G=" + std::to_string(traced_groups));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hs::bench::run_main(argc, argv, bench_main);
}
