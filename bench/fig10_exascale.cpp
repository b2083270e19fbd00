// Figure 10: predicted SUMMA vs HSUMMA execution time on an exascale
// platform (p = 2^20, n = 2^22, b = 256, alpha = 500 ns, 100 GB/s links,
// 1e18 flop/s aggregate) as a function of the group count.
//
// The table itself is evaluated with the Section IV analytic model, like
// the paper's figure. --mode picks the physics for the *simulated* point
// that accompanies it:
//
//   auto   (default) analytic table only; --trace falls back to a
//          reduced-scale closed-form simulation with an explicit warning.
//   closed simulate the p-rank point with closed-form collectives.
//   p2p    simulate the p-rank point with true point-to-point collectives —
//          every tree message of every broadcast routed through the
//          network individually. Feasible at p = 2^20 on one core because
//          k is truncated to the smallest legal panel count (the grid
//          side); each SUMMA/HSUMMA step costs the same, so the full
//          figure's time is the simulated time scaled by
//          (n/b) / simulated_steps, and the table reports both.
//
// With closed/p2p physics, --trace records the requested instance itself:
// rank sampling (--trace-sample, default root+leaders) keeps the recorder
// at O(sampled ranks) spans so even p = 2^20 traces in bounded memory, and
// a metrics JSON with transfer-latency and per-level broadcast quantiles
// lands next to the trace. --trace-reduced restores the old p=1024 stand-in.
#include "bench_util.hpp"

#include <cmath>
#include <cstdio>
#include <iostream>

namespace {

int bench_main(int argc, char** argv) {
  long long n = 1ll << 22, block = 256, ranks = 1 << 20;
  long long sim_steps = 0, sim_groups = 0;
  std::string algo_name = "vandegeijn";
  std::string mode_name = "auto";
  std::string sim_bcast_name = "binomial";
  bool include_compute = false;
  bool trace_reduced = false;
  std::string csv;
  hs::bench::TraceCli trace;

  hs::CliParser cli("Reproduce Figure 10 (exascale prediction)");
  hs::bench::add_trace_options(cli, &trace);
  cli.add_int("n", "matrix dimension", &n);
  cli.add_int("block", "block size b = B", &block);
  cli.add_int("p", "number of processes", &ranks);
  cli.add_string("bcast", "broadcast algorithm (analytic table)", &algo_name);
  cli.add_string("mode",
                 "simulation physics: auto (analytic only), closed "
                 "(closed-form collectives), p2p (true point-to-point)",
                 &mode_name);
  cli.add_int("sim-steps",
              "panel count for the simulated point (0 = minimum legal, "
              "the grid side)",
              &sim_steps);
  cli.add_int("sim-groups",
              "HSUMMA group count for the simulated point (0 = sqrt(p), "
              "the paper's optimum)",
              &sim_groups);
  cli.add_string("sim-bcast", "broadcast algorithm for the simulated point",
                 &sim_bcast_name);
  cli.add_flag("include-compute",
               "add the 2n^3/p computation term to every row", &include_compute);
  cli.add_flag("trace-reduced",
               "trace a reduced-scale stand-in (p=1024, G=32) instead of the "
               "requested instance",
               &trace_reduced);
  cli.add_string("csv", "CSV output path", &csv);
  if (!cli.parse(argc, argv)) return 1;

  const auto sim_mode = hs::bench::parse_sim_mode(mode_name);
  const auto platform = hs::net::Platform::exascale();
  const auto algo = hs::net::bcast_algo_from_string(algo_name);
  const auto platform_model = hs::model::PlatformModel::from(platform);
  const double nd = static_cast<double>(n);
  const double pd = static_cast<double>(ranks);
  const double bd = static_cast<double>(block);

  hs::bench::print_banner(
      "Figure 10 — exascale prediction (analytic model, as in the paper)",
      "p=" + std::to_string(ranks) + "  n=" + std::to_string(n) +
          "  b=B=" + std::to_string(block) +
          "  alpha=500ns  bw=100GB/s  bcast=" +
          std::string(hs::net::to_string(algo)));

  const auto summa = hs::model::summa_cost(nd, pd, bd, algo, platform_model);
  const double summa_time =
      include_compute ? summa.total() : summa.comm();

  hs::Table table({"G", "HSUMMA time", "SUMMA time", "improvement"});
  std::vector<std::vector<std::string>> csv_rows;
  double best = summa_time;
  double best_groups = 1.0;
  for (double g : hs::model::pow2_group_counts(pd)) {
    // Thin the sweep: the paper plots every 4th power of two.
    const double lg = std::log2(g);
    if (std::fmod(lg, 2.0) != 0.0 && g != pd) continue;
    const auto hsumma =
        hs::model::hsumma_cost(nd, pd, g, bd, bd, algo, platform_model);
    const double time = include_compute ? hsumma.total() : hsumma.comm();
    if (time < best) {
      best = time;
      best_groups = g;
    }
    table.add_row({hs::format_double(g, 10), hs::format_seconds(time),
                   hs::format_seconds(summa_time),
                   hs::format_ratio(summa_time / time)});
    csv_rows.push_back({hs::format_double(g, 10), hs::format_double(time, 9),
                        hs::format_double(summa_time, 9)});
  }
  table.print(std::cout);
  std::printf(
      "\nPredicted best: G=%.0f with %s vs SUMMA %s (%s). The paper's "
      "figure shows SUMMA ~15 s flat and HSUMMA dipping to ~2.5 s.\n\n",
      best_groups, hs::format_seconds(best).c_str(),
      hs::format_seconds(summa_time).c_str(),
      hs::format_ratio(summa_time / best).c_str());
  hs::bench::maybe_write_csv(
      csv, csv_rows, {"groups", "hsumma_seconds", "summa_seconds"});

  if (sim_mode.has_value()) {
    // Simulate the figure's p-rank point for real — SUMMA (G = 1) and
    // HSUMMA at G = sqrt(p) — with the requested collective physics.
    hs::bench::ScalePoint point;
    point.platform = platform;
    point.ranks = static_cast<int>(ranks);
    point.steps = sim_steps;
    point.n = n;
    point.block = block;
    point.mode = *sim_mode;
    point.algo = hs::net::bcast_algo_from_string(sim_bcast_name);

    const long long steps = hs::bench::resolve_scale_steps(point);
    const long long full_steps = n / block;
    int sqrt_groups = 1;
    while (static_cast<long long>(sqrt_groups) * sqrt_groups < ranks)
      sqrt_groups *= 2;
    const int hsumma_groups =
        sim_groups > 0 ? static_cast<int>(sim_groups) : sqrt_groups;

    std::printf(
        "Simulated point (--mode %s, bcast=%s): k truncated to %lld panels "
        "of the figure's %lld; per-step cost is identical, so 'full k' "
        "scales the simulated time by %.1f.\n\n",
        mode_name.c_str(),
        std::string(hs::net::to_string(point.algo)).c_str(), steps,
        full_steps, static_cast<double>(full_steps) / steps);

    hs::Table sim_table({"algorithm", "G", "steps", "virtual time", "full k",
                         "messages"});
    // Host cost differs run to run, so it goes to stderr: stdout stays a
    // function of the arguments.
    hs::Table host_table(
        {"algorithm", "G", "events/sec", "wall s", "peak RSS MB"});
    for (const int g : {1, hsumma_groups}) {
      point.groups = g;
      const hs::bench::ScaleRunResult run = hs::bench::run_scale_point(point);
      const double scale = static_cast<double>(full_steps) / run.steps;
      const std::string algorithm = g == 1 ? "SUMMA" : "HSUMMA";
      sim_table.add_row({algorithm, std::to_string(g),
                         std::to_string(run.steps),
                         hs::format_seconds(run.virtual_time),
                         hs::format_seconds(run.virtual_time * scale),
                         std::to_string(run.messages)});
      host_table.add_row(
          {algorithm, std::to_string(g),
           hs::format_double(run.wall_seconds > 0.0
                                 ? static_cast<double>(run.events) /
                                       run.wall_seconds
                                 : 0.0,
                             0),
           hs::format_double(run.wall_seconds, 1),
           hs::format_double(static_cast<double>(run.peak_rss_kb) / 1024.0,
                             1)});
      std::printf("digest [%s G=%d]: %s\n", algorithm.c_str(), g,
                  run.digest().c_str());
    }
    std::printf("\n");
    sim_table.print(std::cout);
    std::printf("\n");
    std::fflush(stdout);
    host_table.print(std::cerr);
  }

  if (trace.enabled() && sim_mode.has_value() && !trace_reduced) {
    // Trace the *requested* instance — the figure's HSUMMA point at
    // G = sqrt(p) with the chosen collective physics. Rank sampling is
    // what makes this viable at p = 2^20: the recorder keeps
    // O(sampled ranks) spans, everything else is filtered at store time.
    hs::bench::ScalePoint point;
    point.platform = platform;
    point.ranks = static_cast<int>(ranks);
    point.steps = sim_steps;
    point.n = n;
    point.block = block;
    point.mode = *sim_mode;
    point.algo = hs::net::bcast_algo_from_string(sim_bcast_name);
    int sqrt_groups = 1;
    while (static_cast<long long>(sqrt_groups) * sqrt_groups < ranks)
      sqrt_groups *= 2;
    point.groups = sim_groups > 0 ? static_cast<int>(sim_groups) : sqrt_groups;

    hs::bench::TraceCli scale_trace = trace;
    if (!scale_trace.trace_path.empty() && scale_trace.sample.empty()) {
      std::printf(
          "note: no --trace-sample given; tracing p=%lld with "
          "'root+leaders' (pass --trace-sample all to record every rank, "
          "or --trace-reduced for the old reduced stand-in).\n",
          ranks);
      scale_trace.sample = "root+leaders";
    }
    if (!scale_trace.trace_path.empty() && scale_trace.metrics_json.empty())
      scale_trace.metrics_json = scale_trace.trace_path + ".metrics.json";
    hs::bench::run_scale_traced(
        point, scale_trace,
        "HSUMMA exascale G=" + std::to_string(point.groups));
  } else if (trace.enabled()) {
    // Reduced-scale stand-in of the same shape — HSUMMA at G = sqrt(p) on
    // the exascale link parameters. This is the only traced path when
    // --mode auto leaves no simulation physics to trace with.
    hs::bench::Config config;
    config.platform = platform;
    config.ranks = 1024;
    config.groups = 32;
    config.problem = hs::core::ProblemSpec::square(8192, block);
    config.algo = algo;
    if (sim_mode.has_value()) {
      config.mode = *sim_mode;
    } else {
      std::printf(
          "warning: --mode auto falls back to closed-form collectives for "
          "a reduced traced instance; pass --mode p2p (or closed) to trace "
          "the requested p=%lld point itself.\n",
          ranks);
      config.mode = hs::mpc::CollectiveMode::ClosedForm;
    }
    std::printf(
        "note: tracing a reduced instance (p=%d, G=%d, n=%lld), not the "
        "requested p=%lld point.\n",
        config.ranks, config.groups,
        static_cast<long long>(config.problem.n), ranks);
    hs::bench::run_traced(config, trace, "HSUMMA exascale-scaled");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hs::bench::run_main(argc, argv, bench_main);
}
