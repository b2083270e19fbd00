// Overlap frontier: what does the task-runtime look-ahead depth D buy on
// top of the paper's group-count knob G?
//
// The blocking schedule (D = 0) exposes every broadcast on the critical
// path; D = 1 reproduces the classic double-buffered pipeline; D >= 2 lets
// the per-rank scheduler prefetch across *outer* stage boundaries — the
// outer (inter-group) broadcast of stage s+1 streams in behind stage s's
// entire inner gemm sequence, which depth 1's one-slot outer ring cannot
// do. This bench sweeps kernel x G x D on the calibrated Grid5000 and
// BlueGene/P presets and reports the exposed communication time — the
// scheduler's join waits, i.e. exactly the reclaimable critical-path idle
// the trace analyzer counts — plus the total time per point.
//
// Three sections land in BENCH_overlap.json (see --out):
//   1. the frontier grid: summa / hsumma / cannon / lu at a moderate p,
//   2. the headline: HSUMMA at p = 2^14 (128 x 128 grid) with G = sqrt(p),
//      where D >= 2 must strictly reduce the exposed comm left by both the
//      blocking and the double-buffered schedules (the run exits nonzero
//      if it does not, so the JSON doubles as an acceptance certificate),
//   3. a x16-straggler variant (fault plans force point-to-point physics),
//      showing that look-ahead still composes with a degraded machine.
//
// --smoke shrinks every section for CI (p <= 256) and keeps the headline
// assertion live at the reduced scale.
#include "bench_util.hpp"

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/strings.hpp"

namespace {

struct Row {
  std::string preset;
  std::string kernel;
  int ranks = 0;
  int groups = 1;
  int lookahead = 0;
  int stragglers = 0;
  bool headline = false;
  hs::core::RunResult run;
};

void write_json(const std::string& path, const std::vector<Row>& rows) {
  std::ofstream out(path);
  HS_REQUIRE_MSG(out.good(), "cannot open JSON output path " << path);
  out << "{\n  \"bench\": \"overlap_frontier\",\n"
      << "  \"idle_metric\": \"exposed_comm_seconds = the scheduler's join "
         "waits, the reclaimable critical-path idle\",\n"
      << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    char buffer[512];
    std::snprintf(
        buffer, sizeof(buffer),
        "    {\"preset\": \"%s\", \"kernel\": \"%s\", \"ranks\": %d, "
        "\"groups\": %d, \"lookahead\": %d, \"stragglers\": %d, "
        "\"headline\": %s, \"exposed_comm_seconds\": %.17e, "
        "\"total_seconds\": %.17e, \"compute_seconds\": %.17e, "
        "\"messages\": %llu, \"wire_bytes\": %llu}%s\n",
        row.preset.c_str(), row.kernel.c_str(), row.ranks, row.groups,
        row.lookahead, row.stragglers, row.headline ? "true" : "false",
        row.run.timing.max_comm_time, row.run.timing.total_time,
        row.run.timing.max_comp_time,
        static_cast<unsigned long long>(row.run.messages),
        static_cast<unsigned long long>(row.run.wire_bytes),
        i + 1 < rows.size() ? "," : "");
    out << buffer;
  }
  out << "  ]\n}\n";
  std::printf("JSON written to %s\n", path.c_str());
}

int sqrt_pow2(int p) {
  int side = 1;
  while (side * side < p) side *= 2;
  return side;
}

int bench_main(int argc, char** argv) {
  long long frontier_p = 1024;
  long long headline_p = 1ll << 14;
  long long straggler_factor = 16;
  long long jobs = 0;
  std::string cache_dir;
  bool smoke = false;
  std::string out = "BENCH_overlap.json";
  std::string depths_text = "0,1,2,4";

  hs::CliParser cli(
      "Overlap frontier: kernel x G x D sweep of the task-runtime "
      "look-ahead on the calibrated Grid5000 and BlueGene/P presets");
  hs::bench::add_jobs_option(cli, &jobs);
  hs::bench::add_cache_dir_option(cli, &cache_dir);
  cli.add_int("p", "frontier-grid rank count", &frontier_p);
  cli.add_int("headline-p", "headline HSUMMA rank count (2^14 reproduces "
              "the paper's BG/P scale)", &headline_p);
  cli.add_string("depths", "comma-separated look-ahead depths", &depths_text);
  cli.add_int("straggler-factor", "slowdown factor for the fault variant",
              &straggler_factor);
  cli.add_flag("smoke", "tiny sweep (p <= 256) for CI smoke runs", &smoke);
  cli.add_string("out", "JSON output path", &out);
  if (!cli.parse(argc, argv)) return 1;

  if (smoke) {
    frontier_p = 64;
    headline_p = 256;
  }
  const auto parsed_depths = hs::parse_int_list(depths_text);
  HS_REQUIRE_MSG(parsed_depths.has_value() && !parsed_depths->empty(),
                 "--depths needs a comma-separated integer list");
  std::vector<int> depths;
  for (long long d : *parsed_depths) depths.push_back(static_cast<int>(d));

  const std::vector<std::string> presets = {"grid5000-calibrated",
                                            "bluegene-p-calibrated"};
  hs::bench::print_banner(
      "Overlap frontier — task-runtime look-ahead depth vs G",
      "presets=grid5000-calibrated,bluegene-p-calibrated  p=" +
          std::to_string(frontier_p) + "  headline p=" +
          std::to_string(headline_p) + " (HSUMMA G=sqrt(p))  depths=" +
          depths_text + "  straggler x" + std::to_string(straggler_factor));

  hs::exec::ParallelExecutor executor(
      hs::bench::executor_options(jobs, cache_dir));
  std::vector<Row> rows;

  // --- section 1: the frontier grid --------------------------------------
  // One task-plan kernel per family; G varies where the kernel has a
  // hierarchy to tune (HSUMMA groups, LU panel-broadcast levels).
  const int fp = static_cast<int>(frontier_p);
  const int fside = sqrt_pow2(fp);
  struct KernelPoint {
    const char* kernel;
    std::vector<int> groups;
  };
  const std::vector<KernelPoint> kernels = {
      {"summa", {1}},
      {"hsumma", {fside / 2, fside, 2 * fside}},
      {"cannon", {1}},
      {"lu", {1, fside}},
  };
  const long long fn = smoke ? 1024 : 8192;
  const long long fb = 64;

  struct Pending {
    Row row;
    std::size_t index = 0;
  };
  std::vector<Pending> pending;
  auto submit = [&](const std::string& preset, const std::string& kernel,
                    const hs::bench::Config& config, int depth,
                    int stragglers, bool headline) {
    Pending p;
    p.row.preset = preset;
    p.row.kernel = kernel;
    p.row.ranks = config.ranks;
    p.row.groups = config.groups;
    p.row.lookahead = depth;
    p.row.stragglers = stragglers;
    p.row.headline = headline;
    p.index = executor.submit(hs::bench::to_sim_job(config));
    pending.push_back(std::move(p));
  };

  for (const std::string& preset : presets) {
    const hs::net::Platform platform = hs::net::Platform::by_name(preset);
    for (const KernelPoint& kp : kernels) {
      for (int groups : kp.groups) {
        for (int depth : depths) {
          hs::bench::Config config;
          config.platform = platform;
          config.ranks = fp;
          config.groups = groups;
          config.algorithm = hs::core::algorithm_from_string(kp.kernel);
          config.problem =
              std::string(kp.kernel) == "lu"
                  ? hs::core::ProblemSpec::factorization(smoke ? 512 : 2048,
                                                         fb)
                  : hs::core::ProblemSpec::square(fn, fb);
          config.lookahead = depth;
          submit(preset, kp.kernel, config, depth, 0, false);
        }
      }
    }
  }

  // --- section 2: the headline -------------------------------------------
  // HSUMMA at p = 2^14 with G = sqrt(p). The outer block is large (few
  // outer stages, many inner steps each) so depth 2's cross-stage prefetch
  // has an outer broadcast worth hiding; blocks are sized to keep the task
  // graphs at ~200 tasks per rank.
  const int hp = static_cast<int>(headline_p);
  const int hside = sqrt_pow2(hp);
  const long long hn = smoke ? 8192 : 32768;
  hs::core::ProblemSpec headline_problem =
      hs::core::ProblemSpec::square(hn, smoke ? 64 : 128);
  headline_problem.outer_block = smoke ? 512 : 256;
  const std::vector<int> headline_depths = {0, 1, 2};
  for (const std::string& preset : presets) {
    for (int depth : headline_depths) {
      hs::bench::Config config;
      config.platform = hs::net::Platform::by_name(preset);
      config.ranks = hp;
      config.groups = hside;
      config.algorithm = hs::core::Algorithm::Hsumma;
      config.problem = headline_problem;
      config.lookahead = depth;
      submit(preset, "hsumma", config, depth, 0, true);
    }
  }

  // --- section 3: the straggler variant ----------------------------------
  // One rank runs `straggler_factor`x slower for the whole run; fault plans
  // force point-to-point collectives, so these rows measure overlap on the
  // routed physics too.
  const auto faults =
      std::make_shared<const hs::fault::FaultPlan>(hs::fault::FaultPlan::
          stragglers(fp, 1, static_cast<double>(straggler_factor), 2013));
  for (const std::string& preset : presets) {
    for (int depth : {0, 1, 2}) {
      hs::bench::Config config;
      config.platform = hs::net::Platform::by_name(preset);
      config.ranks = fp;
      config.groups = fside;
      config.algorithm = hs::core::Algorithm::Hsumma;
      config.problem = hs::core::ProblemSpec::square(fn, fb);
      config.lookahead = depth;
      config.faults = faults;
      submit(preset, "hsumma", config, depth,
             static_cast<int>(straggler_factor), false);
    }
  }

  for (Pending& p : pending) {
    p.row.run = executor.result(p.index);
    rows.push_back(std::move(p.row));
  }

  hs::Table table({"preset", "kernel", "p", "G", "D", "x16", "exposed comm",
                   "total", "vs D=0 idle"});
  auto blocking_of = [&rows](const Row& row) -> const Row* {
    for (const Row& other : rows)
      if (other.preset == row.preset && other.kernel == row.kernel &&
          other.ranks == row.ranks && other.groups == row.groups &&
          other.stragglers == row.stragglers &&
          other.headline == row.headline && other.lookahead == 0)
        return &other;
    return nullptr;
  };
  for (const Row& row : rows) {
    const Row* blocking = blocking_of(row);
    std::string reclaimed = "-";
    if (blocking != nullptr && row.lookahead > 0 &&
        blocking->run.timing.max_comm_time > 0.0) {
      const double ratio = 1.0 - row.run.timing.max_comm_time /
                                     blocking->run.timing.max_comm_time;
      char buffer[32];
      std::snprintf(buffer, sizeof buffer, "%.1f%%", 100.0 * ratio);
      reclaimed = buffer;
    }
    table.add_row({row.preset, row.kernel, std::to_string(row.ranks),
                   std::to_string(row.groups), std::to_string(row.lookahead),
                   row.stragglers > 0 ? "yes" : "-",
                   hs::format_seconds(row.run.timing.max_comm_time),
                   hs::format_seconds(row.run.timing.total_time), reclaimed});
  }
  table.print(std::cout);
  write_json(out, rows);

  // Acceptance gate: on at least one preset the headline's D = 2 schedule
  // must leave strictly less exposed comm than both D = 0 and D = 1.
  bool gate_passed = false;
  for (const std::string& preset : presets) {
    double exposed[3] = {-1.0, -1.0, -1.0};
    for (const Row& row : rows)
      if (row.headline && row.preset == preset &&
          row.lookahead <= 2)
        exposed[row.lookahead] = row.run.timing.max_comm_time;
    if (exposed[0] < 0.0 || exposed[1] < 0.0 || exposed[2] < 0.0) continue;
    const bool ok = exposed[2] < exposed[1] && exposed[2] < exposed[0];
    std::printf("headline %s: exposed comm D0=%s D1=%s D2=%s -> %s\n",
                preset.c_str(), hs::format_seconds(exposed[0]).c_str(),
                hs::format_seconds(exposed[1]).c_str(),
                hs::format_seconds(exposed[2]).c_str(),
                ok ? "D>=2 strictly reduces critical-path idle"
                   : "no strict reduction");
    gate_passed = gate_passed || ok;
  }
  if (!gate_passed) {
    std::fprintf(stderr,
                 "error: depth 2 did not strictly reduce the headline "
                 "HSUMMA's exposed comm on any preset\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hs::bench::run_main(argc, argv, bench_main);
}
