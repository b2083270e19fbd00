// Figure 6: as Figure 5 but with the largest block size b = B = 512.
//
// The paper reports a 1.6x best-case improvement (4.53 s -> 2.81 s): larger
// blocks mean fewer steps, so the latency saving shrinks relative to b=64.
#include "bench_util.hpp"

namespace {

int bench_main(int argc, char** argv) {
  long long n = 8192, block = 512, ranks = 128;
  long long jobs = 0;
  std::string cache_dir;
  std::string platform_name = "grid5000-calibrated";
  std::string algo_name = "vandegeijn";
  long long lookahead = 0;
  std::string csv;
  hs::bench::TraceCli trace;

  hs::CliParser cli("Reproduce Figure 6 (Grid5000 G-sweep, b = B = 512)");
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
  params.title = "Figure 6 — HSUMMA on Grid5000, communication time vs G";
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
