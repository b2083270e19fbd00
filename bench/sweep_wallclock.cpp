// Sweep-executor wall-clock A/B: the same fig8-shaped G-sweep and the same
// autotuner-plus-verification workload, run (a) serially, (b) through the
// parallel executor with a cold cache, and (c) against a warm cache. Every
// variant's results are compared bit-for-bit against the serial run — the
// speedup must come from scheduling and memoization, never from computing
// something different.
//
// A second A/B exercises the durable tier on the same sweep: cold disk
// (simulate + publish), warm disk (fresh executor — a process restart —
// served entirely from the store) and warm memory, written to --store-out.
//
// Results are written as machine-readable JSON (--out; BENCH_sweep.json
// and BENCH_store.json at the repo root keep committed before/after
// snapshots, including the host core count — thread-parallel speedup is
// bounded by it, while warm-cache speedup is not). --smoke shrinks the
// workload for use as a ctest smoke test.
#include "bench_util.hpp"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "tune/group_tuner.hpp"

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}


struct Scenario {
  std::string name;
  int jobs = 1;
  std::size_t points = 0;
  double wall_seconds = 0.0;
  double speedup_vs_serial = 0.0;
  std::uint64_t engines_run = 0;
  std::uint64_t cache_hits = 0;
  bool identical_to_serial = true;
  std::uint64_t store_hits = 0;
};

void write_json(const std::string& path, const std::string& bench,
                const std::string& methodology,
                const std::vector<Scenario>& scenarios) {
  std::ofstream out(path);
  HS_REQUIRE_MSG(out.good(), "cannot open JSON output path " << path);
  out << "{\n  \"bench\": \"" << bench << "\",\n  \"methodology\": \""
      << methodology << "\",\n  \"scenarios\": [\n";
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const Scenario& s = scenarios[i];
    char buffer[512];
    std::snprintf(buffer, sizeof(buffer),
                  "    {\"name\": \"%s\", \"jobs\": %d, \"points\": %zu, "
                  "\"wall_seconds\": %.6f, \"speedup_vs_serial\": %.2f, "
                  "\"engines_run\": %llu, \"cache_hits\": %llu, "
                  "\"store_hits\": %llu, \"identical_to_serial\": %s}%s\n",
                  s.name.c_str(), s.jobs, s.points, s.wall_seconds,
                  s.speedup_vs_serial,
                  static_cast<unsigned long long>(s.engines_run),
                  static_cast<unsigned long long>(s.cache_hits),
                  static_cast<unsigned long long>(s.store_hits),
                  s.identical_to_serial ? "true" : "false",
                  i + 1 < scenarios.size() ? "," : "");
    out << buffer;
  }
  out << "  ]\n}\n";
  std::cout << "JSON written to " << path << "\n";
}

int bench_main(int argc, char** argv) {
  long long n = 16384, block = 256, ranks = 1024;
  long long jobs = 0;
  std::string cache_dir;
  bool smoke = false;
  std::string platform_name = "bluegene-p-calibrated";
  std::string out = "BENCH_sweep.json";
  std::string store_out = "BENCH_store.json";

  hs::CliParser cli(
      "Sweep-executor wall-clock A/B: fig8-shaped G-sweep and autotuner "
      "workload, serial vs parallel vs warm cache, with bit-exactness "
      "asserted");
  hs::bench::add_jobs_option(cli, &jobs);
  hs::bench::add_cache_dir_option(cli, &cache_dir);
  cli.add_int("n", "matrix dimension", &n);
  cli.add_int("block", "block size b = B", &block);
  cli.add_int("p", "number of processes", &ranks);
  cli.add_string("platform", "platform preset", &platform_name);
  cli.add_flag("smoke", "tiny configuration for CI smoke runs", &smoke);
  cli.add_string("out", "JSON output path", &out);
  cli.add_string("store-out", "JSON output path for the disk-store A/B",
                 &store_out);
  if (!cli.parse(argc, argv)) return 1;

  if (smoke) {
    ranks = 64;
    n = 2048;
    block = 64;
  }

  const auto platform = hs::net::Platform::by_name(platform_name);
  const int hw = hs::exec::default_jobs();
  hs::bench::print_banner(
      "Sweep-executor wall-clock A/B",
      "platform=" + platform.name + "  p=" + std::to_string(ranks) +
          "  n=" + std::to_string(n) + "  b=B=" + std::to_string(block) +
          "  jobs=" + std::to_string(jobs) + "  host cores=" +
          std::to_string(hw));

  // The fig8-shaped workload: the full power-of-two G-sweep (SUMMA
  // baseline + every valid G) on one platform.
  hs::bench::Config config;
  config.platform = platform;
  config.ranks = static_cast<int>(ranks);
  config.problem = hs::core::ProblemSpec::square(n, block);
  config.algo = hs::net::BcastAlgo::MpichAuto;
  std::vector<hs::bench::Config> points;
  config.groups = 1;
  points.push_back(config);
  for (int g : hs::bench::pow2_group_counts(config.ranks)) {
    config.groups = g;
    points.push_back(config);
  }

  std::vector<Scenario> scenarios;

  // (a) Serial reference.
  double start = now_seconds();
  const auto serial = hs::bench::run_configs(points, nullptr);
  const double serial_wall = now_seconds() - start;
  scenarios.push_back({"g_sweep_serial", 1, points.size(), serial_wall, 1.0,
                       static_cast<std::uint64_t>(points.size()), 0, true});

  // (b) Parallel, cold cache.
  hs::exec::ParallelExecutor executor(
      hs::bench::executor_options(jobs, cache_dir));
  start = now_seconds();
  const auto cold = hs::bench::run_configs(points, &executor);
  const double cold_wall = now_seconds() - start;
  scenarios.push_back({"g_sweep_parallel_cold", executor.jobs(),
                       points.size(), cold_wall, serial_wall / cold_wall,
                       executor.engines_run(), executor.cache_hits(),
                       serial == cold});

  // (c) Same sweep again: pure cache hits.
  const std::uint64_t engines_before = executor.engines_run();
  start = now_seconds();
  const auto warm = hs::bench::run_configs(points, &executor);
  const double warm_wall = now_seconds() - start;
  scenarios.push_back({"g_sweep_warm_cache", executor.jobs(), points.size(),
                       warm_wall, serial_wall / warm_wall,
                       executor.engines_run() - engines_before,
                       executor.cache_hits(), serial == warm});

  // --- disk-store three-way A/B (BENCH_store.json) ---------------------
  // The same G-sweep against the durable tier: (1) cold disk — an empty
  // store directory, every point simulates and publishes; (2) warm disk —
  // a *fresh* executor (empty memory cache, models a process restart) on
  // the same directory, every point loads from disk; (3) warm memory —
  // the warm-disk executor runs the sweep again, every point is a memory
  // hit. All three must be bit-identical to the serial reference.
  std::vector<Scenario> store_scenarios;
  const std::string store_root =
      cache_dir.empty()
          ? std::string("/tmp/hsumma-store-ab-") + std::to_string(::getpid())
          : cache_dir + "/wallclock-ab";
  std::filesystem::remove_all(store_root);  // guarantee a cold start
  {
    hs::exec::ParallelExecutor cold_disk(
        hs::bench::executor_options(jobs, store_root));
    start = now_seconds();
    const auto cold_disk_results = hs::bench::run_configs(points, &cold_disk);
    const double cold_disk_wall = now_seconds() - start;
    store_scenarios.push_back({"g_sweep_cold_disk", cold_disk.jobs(),
                               points.size(), cold_disk_wall,
                               serial_wall / cold_disk_wall,
                               cold_disk.engines_run(), cold_disk.cache_hits(),
                               serial == cold_disk_results,
                               cold_disk.store_hits()});
  }  // executor (and store) destroyed: the memory tier is gone, disk stays
  hs::exec::ParallelExecutor warm_disk(
      hs::bench::executor_options(jobs, store_root));
  start = now_seconds();
  const auto warm_disk_results = hs::bench::run_configs(points, &warm_disk);
  const double warm_disk_wall = now_seconds() - start;
  HS_REQUIRE_MSG(warm_disk.engines_run() == 0,
                 "warm-disk pass ran " << warm_disk.engines_run()
                                       << " engines; expected 0");
  store_scenarios.push_back({"g_sweep_warm_disk", warm_disk.jobs(),
                             points.size(), warm_disk_wall,
                             serial_wall / warm_disk_wall,
                             warm_disk.engines_run(), warm_disk.cache_hits(),
                             serial == warm_disk_results,
                             warm_disk.store_hits()});
  const std::uint64_t disk_hits_before = warm_disk.store_hits();
  start = now_seconds();
  const auto warm_memory_results = hs::bench::run_configs(points, &warm_disk);
  const double warm_memory_wall = now_seconds() - start;
  HS_REQUIRE_MSG(warm_disk.store_hits() == disk_hits_before,
                 "warm-memory pass touched the disk tier");
  store_scenarios.push_back({"g_sweep_warm_memory", warm_disk.jobs(),
                             points.size(), warm_memory_wall,
                             serial_wall / warm_memory_wall, 0,
                             warm_disk.cache_hits(),
                             serial == warm_memory_results,
                             warm_disk.store_hits() - disk_hits_before});
  if (cache_dir.empty()) std::filesystem::remove_all(store_root);

  // The autotuner workload: sample candidates, then verify against an
  // exhaustive full-problem sweep (autotune_demo's structure). Serially
  // the tuner and the sweep each simulate their configurations from
  // scratch; with one executor the sweep runs concurrently and the
  // duplicated points are memoized.
  hs::tune::TuneOptions tune_options;
  tune_options.grid = hs::grid::near_square_shape(static_cast<int>(ranks));
  tune_options.problem = hs::core::ProblemSpec::square(n, block);
  tune_options.network = platform.make_network();
  tune_options.machine_config = {.ranks = static_cast<int>(ranks),
                                 .collective_mode =
                                     hs::mpc::CollectiveMode::ClosedForm,
                                 .bcast_algo = hs::net::BcastAlgo::MpichAuto,
                                 .gamma_flop = platform.gamma_flop};
  tune_options.bcast_algo = hs::net::BcastAlgo::MpichAuto;
  tune_options.max_candidates = 8;

  start = now_seconds();
  const auto tuned_serial = hs::tune::tune_groups(tune_options);
  const auto verify_serial = hs::bench::run_configs(points, nullptr);
  const double tune_serial_wall = now_seconds() - start;
  scenarios.push_back({"autotune_serial", 1,
                       tuned_serial.samples.size() + points.size(),
                       tune_serial_wall, 1.0,
                       static_cast<std::uint64_t>(
                           tuned_serial.samples.size() + points.size()),
                       0, true});

  hs::exec::ParallelExecutor tune_executor({.jobs = static_cast<int>(jobs)});
  tune_options.executor = &tune_executor;
  start = now_seconds();
  const auto tuned_parallel = hs::tune::tune_groups(tune_options);
  const auto verify_parallel = hs::bench::run_configs(points, &tune_executor);
  const double tune_parallel_wall = now_seconds() - start;
  const bool tune_identical =
      tuned_parallel.best_groups == tuned_serial.best_groups &&
      tuned_parallel.best_comm_time == tuned_serial.best_comm_time &&
      verify_serial == verify_parallel;
  scenarios.push_back({"autotune_parallel_cached", tune_executor.jobs(),
                       tuned_parallel.samples.size() + points.size(),
                       tune_parallel_wall,
                       tune_serial_wall / tune_parallel_wall,
                       tune_executor.engines_run(),
                       tune_executor.cache_hits(), tune_identical});

  bool all_identical = true;
  hs::Table table({"scenario", "jobs", "points", "wall s", "speedup",
                   "engines", "cache hits", "disk hits", "identical"});
  for (const std::vector<Scenario>* list : {&scenarios, &store_scenarios})
    for (const Scenario& s : *list) {
      all_identical = all_identical && s.identical_to_serial;
      table.add_row({s.name, std::to_string(s.jobs), std::to_string(s.points),
                     hs::format_double(s.wall_seconds, 4),
                     hs::format_double(s.speedup_vs_serial, 2) + "x",
                     std::to_string(s.engines_run),
                     std::to_string(s.cache_hits),
                     std::to_string(s.store_hits),
                     s.identical_to_serial ? "yes" : "NO"});
    }
  table.print(std::cout);
  HS_REQUIRE_MSG(all_identical,
                 "parallel/cached results diverged from the serial run");
  std::printf(
      "\nAll parallel and cached runs are bit-identical to the serial "
      "reference.\n\n");

  const std::string methodology =
      "host has " + std::to_string(hw) +
      " hardware thread(s); thread-parallel speedup is bounded by that, "
      "warm-cache speedup is not. p=" + std::to_string(ranks) +
      ", n=" + std::to_string(n) + ", b=B=" + std::to_string(block) +
      ", platform=" + platform.name;
  write_json(out, "sweep_wallclock", methodology, scenarios);
  write_json(store_out, "sweep_wallclock_store",
             "disk-store three-way A/B on the same G-sweep: cold disk "
             "(simulate + publish), warm disk (fresh executor, every point "
             "loads from the store — a process restart), warm memory "
             "(second pass on the warm executor). " + methodology,
             store_scenarios);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hs::bench::run_main(argc, argv, bench_main);
}
