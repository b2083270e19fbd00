// Resilience study: how does the group count change HSUMMA's sensitivity
// to stragglers?
//
// The paper's G-sweep assumes a homogeneous machine. This bench re-runs the
// SUMMA-vs-HSUMMA comparison under scripted stragglers
// (fault/fault_plan.hpp): k ranks run `factor`x slower for the whole run.
// For every G and every straggler factor it reports the communication-time
// inflation relative to the straggler-free run of the *same*
// configuration, so the curve isolates straggler sensitivity from the
// ordinary G-dependence of communication time. Straggler plans force
// point-to-point collectives, so the clean baselines run point-to-point
// too — inflation never conflates collective modes.
//
// The punchline mirrors the paper's: G is a real tuning knob under faults.
// A straggler inside one group slows that group's broadcasts only; with
// G = 1 every broadcast includes it. The closing section re-runs the
// autotuner with the fault plan attached to show the picked G shifting.
#include "bench_util.hpp"

#include <cstdio>
#include <iostream>
#include <string>
#include <utility>

#include "common/strings.hpp"
#include "fault/fault_plan.hpp"
#include "tune/group_tuner.hpp"

namespace {

std::vector<double> parse_factors(const std::string& text) {
  std::vector<double> factors;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    const std::string item = text.substr(pos, comma - pos);
    const std::optional<double> factor = hs::parse_double(item);
    HS_REQUIRE_MSG(factor.has_value(),
                   "--factors entry '" << item << "' is not a number");
    factors.push_back(*factor);
    pos = comma + 1;
  }
  HS_REQUIRE_MSG(!factors.empty(), "--factors needs at least one value");
  return factors;
}

int bench_main(int argc, char** argv) {
  long long n = 2048, block = 64, ranks = 64;
  long long stragglers = 1;
  long long seed = 2013;
  long long jobs = 0;
  std::string cache_dir;
  std::string factors_text = "2,4,8,16";
  std::string platform_name = "grid5000-calibrated";
  std::string algo_name = "vandegeijn";
  std::string csv;
  hs::bench::TraceCli trace;

  hs::CliParser cli(
      "Fault-injection study: straggler resilience vs group count");
  hs::bench::add_jobs_option(cli, &jobs);
  hs::bench::add_cache_dir_option(cli, &cache_dir);
  cli.add_int("n", "matrix dimension", &n);
  cli.add_int("block", "block size b = B", &block);
  cli.add_int("p", "number of processes", &ranks);
  cli.add_int("stragglers", "straggler rank count k", &stragglers);
  cli.add_string("factors", "comma-separated straggler slowdown factors",
                 &factors_text);
  cli.add_int("seed", "fault plan seed (picks the straggler ranks)", &seed);
  cli.add_string("platform", "platform preset", &platform_name);
  cli.add_string("bcast", "broadcast algorithm", &algo_name);
  cli.add_string("csv", "CSV output path", &csv);
  hs::bench::add_trace_options(cli, &trace);
  if (!cli.parse(argc, argv)) return 1;

  const auto platform = hs::net::Platform::by_name(platform_name);
  const auto algo = hs::net::bcast_algo_from_string(algo_name);
  const std::vector<double> factors = parse_factors(factors_text);
  const std::vector<int> groups =
      hs::bench::pow2_group_counts(static_cast<int>(ranks));

  hs::bench::print_banner(
      "Fault study — straggler resilience vs group count",
      "platform=" + platform.name + "  p=" + std::to_string(ranks) +
          "  n=" + std::to_string(n) + "  b=B=" + std::to_string(block) +
          "  stragglers=" + std::to_string(stragglers) +
          "  seed=" + std::to_string(seed));

  auto make_plan = [&](double factor) {
    return std::make_shared<const hs::fault::FaultPlan>(
        hs::fault::FaultPlan::stragglers(static_cast<int>(ranks),
                                         static_cast<int>(stragglers), factor,
                                         static_cast<std::uint64_t>(seed)));
  };

  hs::bench::Config base;
  base.platform = platform;
  base.ranks = static_cast<int>(ranks);
  base.problem = hs::core::ProblemSpec::square(n, block);
  base.algo = algo;
  // Fault plans force point-to-point collectives; run the clean baselines
  // point-to-point too so inflation measures faults, not collective modes.
  base.mode = hs::mpc::CollectiveMode::PointToPoint;

  // Submit everything up front: per G one clean run plus one run per
  // factor. Collection order matches submission order, so the table is
  // byte-identical for any --jobs.
  std::vector<hs::bench::Config> points;
  for (int g : groups) {
    hs::bench::Config config = base;
    config.groups = g;
    points.push_back(config);  // clean baseline
    for (double factor : factors) {
      config.faults = make_plan(factor);
      points.push_back(config);
    }
  }
  hs::exec::ParallelExecutor executor(
      hs::bench::executor_options(jobs, cache_dir));
  const std::vector<hs::core::RunResult> results =
      hs::bench::run_configs(points, &executor);

  std::vector<std::string> columns{"G", "clean comm"};
  for (double factor : factors) {
    // Appending, not "x" + std::string&&: GCC 12 reports a false
    // -Wrestrict overlap inside the inlined string insert.
    std::string column = "x";
    column += hs::format_double(factor, 3);
    column += " inflation";
    columns.push_back(std::move(column));
  }
  hs::Table table(columns);
  std::vector<std::vector<std::string>> csv_rows;

  const std::size_t stride = 1 + factors.size();
  std::vector<double> best_inflation(factors.size(), 0.0);
  std::vector<int> best_groups(factors.size(), 1);
  std::vector<double> summa_inflation(factors.size(), 0.0);
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    const double clean = results[gi * stride].timing.max_comm_time;
    std::vector<std::string> row{
        groups[gi] == 1 ? "1 (SUMMA)" : std::to_string(groups[gi]),
        hs::format_seconds(clean)};
    for (std::size_t fi = 0; fi < factors.size(); ++fi) {
      const double faulty =
          results[gi * stride + 1 + fi].timing.max_comm_time;
      const double inflation = faulty / clean;
      row.push_back(hs::format_ratio(inflation));
      if (groups[gi] == 1) summa_inflation[fi] = inflation;
      if (best_inflation[fi] == 0.0 || inflation < best_inflation[fi]) {
        best_inflation[fi] = inflation;
        best_groups[fi] = groups[gi];
      }
      csv_rows.push_back({std::to_string(groups[gi]),
                          hs::format_double(factors[fi], 6),
                          hs::format_double(clean, 9),
                          hs::format_double(faulty, 9),
                          hs::format_double(inflation, 6)});
    }
    table.add_row(row);
  }
  table.print(std::cout);

  std::printf("\nper-factor resilience (comm inflation vs own clean run):\n");
  for (std::size_t fi = 0; fi < factors.size(); ++fi)
    std::printf("  x%-5s SUMMA %s  vs  best G=%d %s\n",
                hs::format_double(factors[fi], 3).c_str(),
                hs::format_ratio(summa_inflation[fi]).c_str(),
                best_groups[fi],
                hs::format_ratio(best_inflation[fi]).c_str());
  std::printf("\n");

  hs::bench::maybe_write_csv(csv, csv_rows,
                             {"groups", "factor", "clean_comm_seconds",
                              "faulty_comm_seconds", "inflation"});

  // Autotuning under faults: the tuner samples every candidate G with the
  // plan attached, so it picks the best G *for the faulty machine*.
  {
    const double factor = factors.back();
    hs::tune::TuneOptions options;
    options.kernel = hs::core::Algorithm::Summa;
    options.grid = hs::grid::near_square_shape(static_cast<int>(ranks));
    options.problem = base.problem;
    options.network = platform.make_network();
    options.machine_config.collective_mode =
        hs::mpc::CollectiveMode::PointToPoint;
    options.machine_config.gamma_flop = platform.gamma_flop;
    options.bcast_algo = algo;
    options.executor = &executor;
    options.faults = make_plan(factor);
    const auto tuned = hs::tune::tune_groups(options);
    std::printf(
        "autotuner under x%s stragglers picks G=%d (sampled comm %s)\n\n",
        hs::format_double(factor, 3).c_str(), tuned.best_groups,
        hs::format_seconds(tuned.best_comm_time).c_str());
  }

  if (trace.enabled()) {
    // Trace the strongest-fault run at its most resilient G: the Perfetto
    // export grows a "faults" track with the slowdown windows.
    hs::bench::Config config = base;
    config.groups = best_groups.back();
    config.faults = make_plan(factors.back());
    hs::bench::run_traced(
        config, trace,
        "HSUMMA G=" + std::to_string(config.groups) + " x" +
            hs::format_double(factors.back(), 3) + " stragglers");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hs::bench::run_main(argc, argv, bench_main);
}
