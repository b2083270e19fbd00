// Figure 5: HSUMMA vs SUMMA communication time on Grid5000 as a function of
// the number of groups; n = 8192, p = 128, b = B = 64.
//
// The paper measures ~23 s for SUMMA and a deep U-shaped HSUMMA curve. The
// default platform here is the *calibrated* Grid5000 preset (effective
// alpha/beta fitted to the paper's measured SUMMA baselines, see
// EXPERIMENTS.md); pass --platform grid5000 for the raw model parameters.
#include "bench_util.hpp"

namespace {

int bench_main(int argc, char** argv) {
  long long n = 8192, block = 64, ranks = 128;
  long long jobs = 0;
  std::string cache_dir;
  std::string platform_name = "grid5000-calibrated";
  std::string algo_name = "vandegeijn";
  long long lookahead = 0;
  std::string csv;
  hs::bench::TraceCli trace;

  hs::CliParser cli("Reproduce Figure 5 (Grid5000 G-sweep, b = B = 64)");
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
  params.title = "Figure 5 — HSUMMA on Grid5000, communication time vs G";
  params.platform = hs::net::Platform::by_name(platform_name);
  params.ranks = static_cast<int>(ranks);
  params.problem = hs::core::ProblemSpec::square(n, block);
  params.algo = hs::net::bcast_algo_from_string(algo_name);
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
