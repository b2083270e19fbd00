// Figure 8: SUMMA and HSUMMA on 16384 BlueGene/P cores — execution AND
// communication time vs the number of groups; n = 65536, b = B = 256.
//
// Paper: SUMMA 50.2 s total / 36.46 s comm; HSUMMA best 21.26 s / 6.19 s at
// G = 512 (2.36x / 5.89x). The default platform is the calibrated BG/P
// preset (alpha_eff fitted to the paper's measured SUMMA communication
// time; beta and gamma from the paper — see EXPERIMENTS.md). The full
// 16384-rank sweep takes about a minute of host time; use --p for smaller
// machines.
#include "bench_util.hpp"

namespace {

int bench_main(int argc, char** argv) {
  long long n = 65536, block = 256, ranks = 16384;
  long long jobs = 0;
  std::string cache_dir;
  std::string platform_name = "bluegene-p-calibrated";
  std::string algo_name = "vandegeijn";
  long long lookahead = 0;
  std::string csv;
  hs::bench::TraceCli trace;

  hs::CliParser cli(
      "Reproduce Figure 8 (BG/P 16384 cores: execution and communication "
      "time vs G)");
  hs::bench::add_jobs_option(cli, &jobs);
  hs::bench::add_cache_dir_option(cli, &cache_dir);
  hs::bench::add_trace_options(cli, &trace);
  cli.add_int("n", "matrix dimension", &n);
  cli.add_int("block", "block size b = B", &block);
  cli.add_int("p", "number of processes", &ranks);
  cli.add_string("platform", "platform preset", &platform_name);
  cli.add_string("bcast", "broadcast algorithm", &algo_name);
  hs::bench::add_lookahead_option(cli, &lookahead);
  cli.add_string("csv", "CSV output path", &csv);
  if (!cli.parse(argc, argv)) return 1;

  hs::bench::GSweepParams params;
  params.title =
      "Figure 8 — SUMMA and HSUMMA on BlueGene/P, execution and "
      "communication time vs G";
  params.platform = hs::net::Platform::by_name(platform_name);
  params.ranks = static_cast<int>(ranks);
  params.problem = hs::core::ProblemSpec::square(n, block);
  params.algo = hs::net::bcast_algo_from_string(algo_name);
  params.show_execution = true;
  params.lookahead = static_cast<int>(lookahead);
  params.csv_path = csv;
  params.trace = trace;
  hs::exec::ParallelExecutor executor(
      hs::bench::executor_options(jobs, cache_dir));
  params.executor = &executor;
  hs::bench::run_g_sweep(params);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hs::bench::run_main(argc, argv, bench_main);
}
