#include "bench_util.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>

#include "common/logging.hpp"
#include "core/kernel_registry.hpp"
#include "desim/engine.hpp"
#include "mpc/machine.hpp"
#include "trace/stream_sink.hpp"

namespace hs::bench {

int run_main(int argc, char** argv, int (*body)(int, char**)) {
  try {
    return body(argc, argv);
  } catch (const PreconditionError& error) {
    std::cerr << argv[0] << ": " << error.what() << "\n";
    return 1;
  }
}

exec::SimJob to_sim_job(const Config& config) {
  HS_REQUIRE(config.ranks >= 1);
  exec::SimJob job;
  job.platform = config.platform;
  job.gamma_flop = config.platform.gamma_flop;
  job.collective_mode = config.mode;
  job.machine_bcast_algo = config.algo;
  job.algorithm = config.algorithm;
  job.ranks = config.ranks;
  job.layers = config.layers;
  job.groups = config.groups;
  job.hierarchy = config.hierarchy;
  job.rank_gamma = config.rank_gamma;
  job.row_levels = config.row_levels;
  job.col_levels = config.col_levels;
  job.problem = config.problem;
  job.bcast_algo = config.algo;
  job.lookahead = config.lookahead;
  job.faults = config.faults;
  return job;
}

core::RunResult run_config(const Config& config) {
  return exec::run_sim_job(to_sim_job(config));
}

std::vector<core::RunResult> run_configs(const std::vector<Config>& configs,
                                         exec::ParallelExecutor* executor) {
  std::vector<core::RunResult> results;
  results.reserve(configs.size());
  if (executor == nullptr) {
    for (const Config& config : configs)
      results.push_back(run_config(config));
    return results;
  }
  std::vector<std::size_t> indices;
  indices.reserve(configs.size());
  for (const Config& config : configs)
    indices.push_back(executor->submit(to_sim_job(config)));
  for (std::size_t index : indices)
    results.push_back(executor->result(index));
  return results;
}

void add_jobs_option(CliParser& cli, long long* dest) {
  *dest = exec::default_jobs();
  cli.add_int("jobs", "simulation worker threads (output is identical "
              "for any count)", dest);
}

void add_cache_dir_option(CliParser& cli, std::string* dest) {
  cli.add_string("cache-dir",
                 "on-disk result store root, one file per simulated "
                 "configuration: repeated runs and concurrent processes "
                 "pointed at one directory skip configurations any of them "
                 "has simulated, bit-identically (delete it to start over)",
                 dest);
}

exec::ExecutorOptions executor_options(long long jobs,
                                       const std::string& cache_dir) {
  exec::ExecutorOptions options;
  options.jobs = static_cast<int>(jobs);
  if (!cache_dir.empty())
    options.store = std::make_shared<store::ResultStore>(
        store::StoreOptions{.root = cache_dir});
  return options;
}

void add_trace_options(CliParser& cli, TraceCli* dest) {
  cli.add_string("trace",
                 "write a Chrome-trace JSON timeline to this path (open in "
                 "https://ui.perfetto.dev) and print the critical-path "
                 "decomposition",
                 &dest->trace_path);
  cli.add_flag("metrics", "print machine/engine/executor counters",
               &dest->metrics);
  cli.add_string("trace-sample",
                 "rank-sampling spec for the trace: '+'-separated terms from "
                 "all, root, leaders[:N], random:K, slowest:K (empty records "
                 "every rank; see trace/sample.hpp)",
                 &dest->sample);
  cli.add_int("trace-buffer-mb",
              "in-memory span budget in MiB; above it completed spans spill "
              "to <trace>.spans and are reloaded for export (0 = unbounded)",
              &dest->stream_budget_mb);
  cli.add_string("metrics-json",
                 "write the metrics registry (counters, gauges, histogram "
                 "quantiles) as JSON to this path",
                 &dest->metrics_json);
}

void run_traced(const Config& config, const TraceCli& trace,
                const std::string& label) {
  if (!trace.enabled()) return;
  trace::Recorder recorder;
  trace::MetricsRegistry metrics;
  exec::SimJob job = to_sim_job(config);
  if (!trace.trace_path.empty()) {
    job.recorder = &recorder;
    job.trace_sample = trace.sample;
  }
  if (trace.metrics || !trace.metrics_json.empty()) job.metrics = &metrics;
  std::optional<trace::SpanChunkWriter> stream;
  if (!trace.trace_path.empty() && trace.stream_budget_mb > 0) {
    stream.emplace(trace.trace_path + ".spans");
    recorder.set_stream(
        &*stream, static_cast<std::size_t>(trace.stream_budget_mb) << 20);
  }
  exec::run_sim_job(job);
  if (stream.has_value()) {
    recorder.flush_stream();
    stream->finish();
    // The chunk file now holds the complete span stream in store order;
    // reload it so analysis and export see the whole run.
    trace::Recorder merged;
    trace::load_span_chunks(stream->path(), merged);
    std::fprintf(stderr, "streamed %llu spans through %s\n",
                 static_cast<unsigned long long>(stream->spans_written()),
                 stream->path().c_str());
    emit_trace_artifacts(merged, metrics, trace, label);
    return;
  }
  emit_trace_artifacts(recorder, metrics, trace, label);
}

void emit_trace_artifacts(const trace::Recorder& recorder,
                          const trace::MetricsRegistry& metrics,
                          const TraceCli& trace, const std::string& label) {
  if (!trace.trace_path.empty()) {
    std::ofstream out(trace.trace_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot open trace output '%s'\n",
                   trace.trace_path.c_str());
    } else {
      trace::write_chrome_trace(out, recorder, label);
      std::fprintf(stderr, "wrote %s (open in https://ui.perfetto.dev)\n",
                   trace.trace_path.c_str());
    }
    const trace::CriticalPathSplit path =
        trace::analyze_critical_path(recorder);
    std::printf("critical path [%s]: %s\n", label.c_str(),
                path.summary().c_str());
    path.breakdown_table().print(std::cout);
    std::printf("\n");
  }
  if (trace.metrics) {
    std::printf("metrics [%s]:\n", label.c_str());
    metrics.to_table().print(std::cout);
    std::printf("\n");
  }
  if (!trace.metrics_json.empty()) {
    std::ofstream out(trace.metrics_json);
    if (!out) {
      std::fprintf(stderr, "error: cannot open metrics output '%s'\n",
                   trace.metrics_json.c_str());
    } else {
      metrics.write_json(out);
      std::fprintf(stderr, "wrote %s\n", trace.metrics_json.c_str());
    }
  }
}

void add_lookahead_option(CliParser& cli, long long* lookahead) {
  *lookahead = 0;
  cli.add_int("lookahead",
              "look-ahead depth D (0 blocking, 1 the broadcast/update "
              "overlap pipeline, D >= 2 prefetches D steps ahead; D >= 1 "
              "runs on: " +
                  core::lookahead_kernel_name_list() + ")",
              lookahead);
}

void add_hierarchy_option(CliParser& cli, std::string* dest) {
  cli.add_string("hierarchy",
                 "multi-level group chain, outermost first (e.g. 64x16x4), "
                 "or 'flat'; chains run the recursive kernel on: " +
                     core::multilevel_kernel_name_list(),
                 dest);
}

void add_algorithm_option(CliParser& cli, std::string* dest) {
  cli.add_string("algorithm",
                 "kernel to simulate: " + core::kernel_name_list(), dest);
}

RepeatedResult run_repeated(const Config& config, int repetitions,
                            double noise_sigma, std::uint64_t seed,
                            exec::ParallelExecutor* executor) {
  HS_REQUIRE(repetitions >= 1);
  // One repetition = one job: each wraps the network in a deterministic
  // NoisyModel seeded with seed + rep (run_sim_job also forces
  // point-to-point collectives: noisy networks are not homogeneous
  // Hockney). Stats accumulate in repetition order, so the parallel path
  // is bit-identical to the serial one.
  std::vector<Config> reps(static_cast<std::size_t>(repetitions), config);
  std::vector<std::size_t> indices;
  std::vector<core::RunResult> results;
  for (int rep = 0; rep < repetitions; ++rep) {
    exec::SimJob job = to_sim_job(reps[static_cast<std::size_t>(rep)]);
    job.noise_sigma = noise_sigma;
    job.noise_seed = seed + static_cast<std::uint64_t>(rep);
    if (executor != nullptr) {
      indices.push_back(executor->submit(std::move(job)));
    } else {
      results.push_back(exec::run_sim_job(job));
    }
  }
  RepeatedResult stats;
  for (int rep = 0; rep < repetitions; ++rep) {
    const core::RunResult result =
        executor != nullptr
            ? executor->result(indices[static_cast<std::size_t>(rep)])
            : results[static_cast<std::size_t>(rep)];
    stats.comm_time.add(result.timing.max_comm_time);
    stats.total_time.add(result.timing.total_time);
  }
  return stats;
}

long long resolve_scale_steps(const ScalePoint& point) {
  if (point.steps > 0) return point.steps;
  int side = 1;
  while (static_cast<long long>(side) * side < point.ranks) side *= 2;
  return side;
}

std::string ScaleRunResult::digest() const {
  char buffer[192];
  std::snprintf(buffer, sizeof(buffer),
                "vt=%a;events=%llu;msgs=%llu;bytes=%llu", virtual_time,
                static_cast<unsigned long long>(events),
                static_cast<unsigned long long>(messages),
                static_cast<unsigned long long>(wire_bytes));
  return buffer;
}

ScaleRunResult run_scale_point(const ScalePoint& point) {
  int side = 1;
  while (static_cast<long long>(side) * side < point.ranks) side *= 2;
  HS_REQUIRE_MSG(static_cast<long long>(side) * side == point.ranks,
                 "scale points need a power-of-four rank count, got "
                     << point.ranks);
  ScaleRunResult result;
  result.steps = resolve_scale_steps(point);

  const auto wall_start = std::chrono::steady_clock::now();
  desim::Engine engine;
  mpc::Machine machine(engine, point.platform.make_network(),
                       {.ranks = point.ranks,
                        .collective_mode = point.mode,
                        .bcast_algo = point.algo,
                        .gamma_flop = point.platform.gamma_flop});

  core::RunOptions options;
  options.grid = {side, side};
  options.problem = {point.n, result.steps * point.block, point.n,
                     point.block, 0};
  options.mode = core::PayloadMode::Phantom;
  options.bcast_algo = point.algo;
  options.recorder = point.recorder;
  options.trace_sample = point.trace_sample;
  options.metrics = point.metrics;
  core::adapt_groups(point.groups, options);
  const core::RunResult run = core::run(machine, options);
  if (point.metrics != nullptr) {
    machine.collect_metrics(*point.metrics);
    trace::collect_engine_metrics(engine, *point.metrics);
  }

  result.virtual_time = engine.now();
  result.events = engine.events_processed();
  result.messages = run.messages;
  result.wire_bytes = run.wire_bytes;
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  result.peak_rss_kb = peak_rss_kb();
  result.rank_pages_materialized = machine.rank_pages_materialized();
  result.rank_page_count = machine.rank_page_count();
  return result;
}

ScaleRunResult run_scale_traced(ScalePoint point, const TraceCli& trace,
                                const std::string& label) {
  trace::Recorder recorder;
  trace::MetricsRegistry metrics;
  if (!trace.trace_path.empty()) {
    point.recorder = &recorder;
    point.trace_sample = trace.sample;
  }
  if (trace.metrics || !trace.metrics_json.empty()) point.metrics = &metrics;
  std::optional<trace::SpanChunkWriter> stream;
  if (point.recorder != nullptr && trace.stream_budget_mb > 0) {
    stream.emplace(trace.trace_path + ".spans");
    recorder.set_stream(
        &*stream, static_cast<std::size_t>(trace.stream_budget_mb) << 20);
  }
  const ScaleRunResult result = run_scale_point(point);
  if (stream.has_value()) {
    recorder.flush_stream();
    stream->finish();
    trace::Recorder merged;
    trace::load_span_chunks(stream->path(), merged);
    std::fprintf(stderr, "streamed %llu spans through %s\n",
                 static_cast<unsigned long long>(stream->spans_written()),
                 stream->path().c_str());
    emit_trace_artifacts(merged, metrics, trace, label);
  } else {
    emit_trace_artifacts(recorder, metrics, trace, label);
  }
  return result;
}

long long peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      long long kb = 0;
      std::sscanf(line.c_str(), "VmHWM: %lld", &kb);
      return kb;
    }
  }
  return 0;
}

std::optional<mpc::CollectiveMode> parse_sim_mode(const std::string& name) {
  if (name == "auto") return std::nullopt;
  if (name == "closed") return mpc::CollectiveMode::ClosedForm;
  if (name == "p2p") return mpc::CollectiveMode::PointToPoint;
  HS_REQUIRE_MSG(false, "unknown --mode '" << name
                        << "' (choices: auto, closed, p2p)");
}

std::vector<int> pow2_group_counts(int ranks) {
  const grid::GridShape shape = grid::near_square_shape(ranks);
  std::vector<int> counts;
  for (int g = 1; g <= ranks; g *= 2)
    if (grid::group_arrangement(shape, g).size() == g) counts.push_back(g);
  if (counts.empty() || counts.back() != ranks) counts.push_back(ranks);
  return counts;
}

void maybe_write_csv(const std::string& path,
                     const std::vector<std::vector<std::string>>& rows,
                     std::initializer_list<std::string_view> header) {
  if (path.empty()) return;
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "error: cannot open CSV output '%s'\n", path.c_str());
    return;
  }
  CsvWriter csv(out);
  csv.header(header);
  for (const auto& row : rows) csv.row_strings(row);
  std::fprintf(stderr, "wrote %s\n", path.c_str());
}

void print_banner(const std::string& title, const std::string& params) {
  std::printf("=== %s ===\n%s\n\n", title.c_str(), params.c_str());
}

double run_g_sweep(const GSweepParams& params) {
  std::vector<int> groups =
      params.groups.empty() ? pow2_group_counts(params.ranks) : params.groups;

  const grid::GridShape shape = grid::near_square_shape(params.ranks);
  char header[256];
  std::snprintf(header, sizeof header,
                "platform=%s  p=%d (%dx%d grid)  n=%lld  b=%lld  B=%lld  "
                "bcast=%s",
                params.platform.name.c_str(), params.ranks, shape.rows,
                shape.cols, static_cast<long long>(params.problem.n),
                static_cast<long long>(params.problem.block),
                static_cast<long long>(params.problem.effective_outer_block()),
                std::string(net::to_string(params.algo)).c_str());
  print_banner(params.title, header);

  Config config;
  config.platform = params.platform;
  config.ranks = params.ranks;
  config.problem = params.problem;
  config.algo = params.algo;
  config.lookahead = params.lookahead;

  // Submit every point (SUMMA baseline first) before reading any result:
  // with an executor the whole sweep runs concurrently, and collecting in
  // submission order keeps the output byte-identical to the serial loop.
  std::vector<Config> points;
  config.groups = 1;
  points.push_back(config);
  for (int g : groups) {
    config.groups = g;
    points.push_back(config);
  }
  const std::vector<core::RunResult> results =
      run_configs(points, params.executor);

  const core::RunResult& summa = results.front();
  const double summa_comm = summa.timing.max_comm_time;
  const double summa_exec = summa.timing.total_time;

  const model::PlatformModel platform_model =
      model::PlatformModel::from(params.platform);

  std::vector<std::string> columns{"G", "arrangement", "comm time",
                                   "comm vs SUMMA", "model comm"};
  if (params.show_execution) {
    columns.insert(columns.begin() + 3, "exec time");
    columns.push_back("exec vs SUMMA");
  }
  Table table(columns);
  std::vector<std::vector<std::string>> csv_rows;

  double best_comm = summa_comm;
  int best_groups = 1;
  for (std::size_t i = 0; i < groups.size(); ++i) {
    const int g = groups[i];
    const core::RunResult& result = results[i + 1];
    const double comm = result.timing.max_comm_time;
    const double exec = result.timing.total_time;
    if (comm < best_comm) {
      best_comm = comm;
      best_groups = g;
    }
    const auto modeled = model::hsumma_cost(
        static_cast<double>(params.problem.n),
        static_cast<double>(params.ranks), static_cast<double>(g),
        static_cast<double>(params.problem.block),
        static_cast<double>(params.problem.effective_outer_block()),
        params.algo, platform_model);
    const auto arrangement = grid::group_arrangement(shape, g);
    const std::string arrangement_str = std::to_string(arrangement.rows) +
                                        "x" +
                                        std::to_string(arrangement.cols);
    std::vector<std::string> row{std::to_string(g), arrangement_str,
                                 format_seconds(comm),
                                 format_ratio(summa_comm / comm),
                                 format_seconds(modeled.comm())};
    if (params.show_execution) {
      row.insert(row.begin() + 3, format_seconds(exec));
      row.push_back(format_ratio(summa_exec / exec));
    }
    table.add_row(row);
    csv_rows.push_back({std::to_string(g), format_double(comm, 9),
                        format_double(exec, 9),
                        format_double(modeled.comm(), 9)});
  }
  table.print(std::cout);
  std::printf(
      "\nSUMMA baseline: comm %s, exec %s. Best HSUMMA comm %s (%s of "
      "SUMMA).\n\n",
      format_seconds(summa_comm).c_str(), format_seconds(summa_exec).c_str(),
      format_seconds(best_comm).c_str(),
      format_ratio(summa_comm / best_comm).c_str());

  maybe_write_csv(params.csv_path, csv_rows,
                  {"groups", "comm_seconds", "exec_seconds",
                   "model_comm_seconds"});

  if (params.trace.metrics && params.executor != nullptr) {
    trace::MetricsRegistry executor_metrics;
    params.executor->collect_metrics(executor_metrics);
    std::printf("sweep executor metrics:\n");
    executor_metrics.to_table().print(std::cout);
    std::printf("\n");
  }
  if (params.trace.enabled()) {
    // Trace the sweep's winner (G = 1 when SUMMA held the lead).
    config.groups = best_groups;
    run_traced(config, params.trace,
               best_groups > 1 ? "HSUMMA G=" + std::to_string(best_groups)
                               : "SUMMA");
  }
  return best_comm;
}

BestGResult run_best_g(const Config& config,
                       const std::vector<int>& group_counts,
                       exec::ParallelExecutor* executor) {
  std::vector<Config> points;
  Config point = config;
  point.groups = 1;
  points.push_back(point);
  for (int g : group_counts) {
    point.groups = g;
    points.push_back(point);
  }
  const std::vector<core::RunResult> results =
      run_configs(points, executor);

  BestGResult best;
  best.summa_comm = results.front().timing.max_comm_time;
  best.best_comm = best.summa_comm;
  best.best_groups = 1;
  for (std::size_t i = 0; i < group_counts.size(); ++i) {
    const double comm = results[i + 1].timing.max_comm_time;
    if (comm < best.best_comm) {
      best.best_comm = comm;
      best.best_groups = group_counts[i];
    }
  }
  return best;
}

}  // namespace hs::bench
