// Timeline demo: run the same problem as flat SUMMA and hierarchical
// HSUMMA, export both timelines into one Chrome-trace JSON (open in
// https://ui.perfetto.dev — each run gets its own process pair), and print
// the critical-path decomposition of each. The side-by-side trace is the
// visual version of the paper's core claim: HSUMMA swaps a long flat
// broadcast chain for a short outer + pipelined inner one.
#include "bench_util.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <vector>

namespace {

// Valid pow2 group count nearest sqrt(p), the model's optimum.
int default_groups(int ranks) {
  const double target = std::sqrt(static_cast<double>(ranks));
  int best = 1;
  for (int g : hs::bench::pow2_group_counts(ranks))
    if (g > 1 && std::abs(std::log2(g) - std::log2(target)) <
                     std::abs(std::log2(best == 1 ? ranks : best) -
                              std::log2(target)))
      best = g;
  return best == 1 ? ranks : best;
}

int bench_main(int argc, char** argv) {
  long long n = 2048, block = 64, ranks = 128, groups = 0;
  std::string platform_name = "grid5000-calibrated";
  std::string algo_name = "vandegeijn";
  std::string mode_name = "closed";
  std::string trace_path;
  bool metrics = false;

  hs::CliParser cli(
      "Trace timeline demo: SUMMA vs HSUMMA span timelines + critical path");
  cli.add_int("n", "matrix dimension", &n);
  cli.add_int("block", "block size b = B", &block);
  cli.add_int("p", "number of processes", &ranks);
  cli.add_int("groups", "HSUMMA group count G (0 = nearest pow2 to sqrt(p))",
              &groups);
  cli.add_string("platform", "platform preset", &platform_name);
  cli.add_string("bcast", "broadcast algorithm", &algo_name);
  cli.add_string("mode", "collective mode: closed or p2p", &mode_name);
  cli.add_string("trace", "Chrome-trace JSON output path (both runs)",
                 &trace_path);
  cli.add_flag("metrics", "print machine/engine counters per run", &metrics);
  if (!cli.parse(argc, argv)) return 1;

  hs::mpc::CollectiveMode mode;
  if (mode_name == "closed") {
    mode = hs::mpc::CollectiveMode::ClosedForm;
  } else if (mode_name == "p2p") {
    mode = hs::mpc::CollectiveMode::PointToPoint;
  } else {
    std::fprintf(stderr, "error: --mode must be 'closed' or 'p2p'\n");
    return 1;
  }

  const auto platform = hs::net::Platform::by_name(platform_name);
  const auto algo = hs::net::bcast_algo_from_string(algo_name);
  const int g = groups > 0 ? static_cast<int>(groups)
                           : default_groups(static_cast<int>(ranks));

  hs::bench::print_banner(
      "Trace timeline — SUMMA vs HSUMMA, one Perfetto file",
      "platform=" + platform.name + "  p=" + std::to_string(ranks) +
          "  n=" + std::to_string(n) + "  b=B=" + std::to_string(block) +
          "  G=" + std::to_string(g) + "  mode=" + mode_name + "  bcast=" +
          std::string(hs::net::to_string(algo)));

  hs::bench::Config config;
  config.platform = platform;
  config.ranks = static_cast<int>(ranks);
  config.problem = hs::core::ProblemSpec::square(n, block);
  config.algo = algo;
  config.mode = mode;

  struct Run {
    std::string label;
    int groups = 1;
    hs::trace::Recorder recorder;
    hs::trace::MetricsRegistry metrics;
    hs::core::RunResult result;
  };
  std::vector<Run> runs(2);
  runs[0].label = "SUMMA";
  runs[0].groups = 1;
  runs[1].label = "HSUMMA G=" + std::to_string(g);
  runs[1].groups = g;

  for (Run& run : runs) {
    config.groups = run.groups;
    hs::exec::SimJob job = hs::bench::to_sim_job(config);
    job.recorder = &run.recorder;
    if (metrics) job.metrics = &run.metrics;
    run.result = hs::exec::run_sim_job(job);
  }

  hs::Table table({"run", "total", "comm(max)", "critical comp",
                   "critical comm", "critical idle"});
  for (Run& run : runs) {
    const auto path = hs::trace::analyze_critical_path(run.recorder);
    std::printf("critical path [%s]: %s\n", run.label.c_str(),
                path.summary().c_str());
    table.add_row(
        {run.label, hs::format_seconds(run.result.timing.total_time),
         hs::format_seconds(run.result.timing.max_comm_time),
         hs::format_seconds(path.comp),
         hs::format_seconds(path.comm()),
         hs::format_seconds(path.idle)});
  }
  std::printf("\n");
  table.print(std::cout);
  std::printf(
      "\nSUMMA %s vs HSUMMA %s (%s): the trace shows where the critical "
      "path moved.\n\n",
      hs::format_seconds(runs[0].result.timing.total_time).c_str(),
      hs::format_seconds(runs[1].result.timing.total_time).c_str(),
      hs::format_ratio(runs[0].result.timing.total_time /
                       runs[1].result.timing.total_time)
          .c_str());

  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot open trace output '%s'\n",
                   trace_path.c_str());
      return 1;
    }
    const std::vector<hs::trace::TraceSession> sessions{
        {&runs[0].recorder, runs[0].label},
        {&runs[1].recorder, runs[1].label}};
    hs::trace::write_chrome_trace(out, sessions);
    std::fprintf(stderr, "wrote %s (open in https://ui.perfetto.dev)\n",
                 trace_path.c_str());
  }
  if (metrics) {
    for (Run& run : runs) {
      std::printf("metrics [%s]:\n", run.label.c_str());
      run.metrics.to_table().print(std::cout);
      std::printf("\n");
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hs::bench::run_main(argc, argv, bench_main);
}
