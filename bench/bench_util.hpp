// Shared plumbing for the figure-reproduction benchmarks.
//
// Every bench binary follows the same pattern: parse a few CLI options,
// run a series of simulated configurations, print a paper-style table to
// stdout and (optionally) a CSV twin. run_config builds a fresh engine +
// machine per point so virtual clocks never leak between configurations.
//
// Sweeps accept an optional exec::ParallelExecutor: points are submitted
// up front and collected in submission order, so tables, CSVs and best-G
// picks are byte-identical to the serial path for any worker count, and
// configurations shared between sweeps (the SUMMA baseline, overlapping G
// points) are simulated once and served from the executor's result cache
// afterwards. Bench mains expose this as --jobs N (add_jobs_option).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/stats.hpp"
#include "common/csv.hpp"
#include "common/table.hpp"
#include "core/runner.hpp"
#include "exec/executor.hpp"
#include "fault/fault_plan.hpp"
#include "grid/hier_grid.hpp"
#include "model/cost_model.hpp"
#include "net/platform.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/critical_path.hpp"
#include "trace/metrics.hpp"

namespace hs::bench {

/// Every bench's main: runs `body` and turns an hs::PreconditionError that
/// escapes it (a bad argument combination, say) into its message on stderr
/// and exit status 1, instead of an abort.
int run_main(int argc, char** argv, int (*body)(int, char**));

struct Config {
  net::Platform platform;
  int ranks = 0;
  int groups = 1;                 // 1 -> SUMMA
  /// Multi-level group chain (core::GroupHierarchy). Flat (the default)
  /// defers to the scalar `groups`; non-flat chains require groups <= 1
  /// and route the run through the recursive multilevel kernel (see
  /// exec::SimJob::hierarchy).
  core::GroupHierarchy hierarchy;
  /// Per-rank static compute speed multipliers (empty = homogeneous); see
  /// mpc::MachineConfig::rank_gamma.
  std::vector<double> rank_gamma;
  core::ProblemSpec problem;
  net::BcastAlgo algo = net::BcastAlgo::ScatterRingAllgather;
  mpc::CollectiveMode mode = mpc::CollectiveMode::ClosedForm;
  core::Algorithm algorithm = core::Algorithm::Summa;  // adjusted by groups
  std::vector<int> row_levels;    // multilevel only
  std::vector<int> col_levels;
  int layers = 1;                 // 2.5D only
  /// Look-ahead depth D (see core::RunOptions::lookahead): 0 blocking, 1
  /// the double-buffered pipeline, >= 2 deeper prefetch; D >= 1 needs a
  /// task-plan kernel.
  int lookahead = 0;
  /// Optional scripted fault plan (fault/fault_plan.hpp); null or empty
  /// perturbs nothing. Forces point-to-point collectives in run_sim_job.
  std::shared_ptr<const fault::FaultPlan> faults;
};

/// The executor job describing `config` (phantom payloads, grid from
/// near_square_shape(ranks), the SUMMA/HSUMMA family adaptation applied by
/// exec::run_sim_job).
exec::SimJob to_sim_job(const Config& config);

/// Run one configuration on a fresh machine (phantom payloads).
core::RunResult run_config(const Config& config);

/// Run every configuration and return results in input order. With an
/// executor, all points are submitted first and run concurrently (results
/// are identical to the serial path, bit for bit); executor == nullptr
/// runs them serially on the calling thread.
std::vector<core::RunResult> run_configs(const std::vector<Config>& configs,
                                         exec::ParallelExecutor* executor);

/// Registers --jobs (simulation worker threads) and sets *dest to the
/// default, exec::default_jobs().
void add_jobs_option(CliParser& cli, long long* dest);

/// Registers --cache-dir: the content-addressed on-disk result store root
/// (store/result_store.hpp). Empty (the default) keeps results in memory
/// only; repeated runs — or concurrent processes — pointed at one
/// directory serve configurations any of them has simulated from disk,
/// bit-identically. Nothing bounds the directory's size.
void add_cache_dir_option(CliParser& cli, std::string* dest);

/// ExecutorOptions for a bench main: worker count from --jobs and, when
/// --cache-dir is nonempty, a durable store tier at that root.
exec::ExecutorOptions executor_options(long long jobs,
                                       const std::string& cache_dir);

/// Observability options shared by every bench binary: --trace writes a
/// Chrome-trace JSON timeline (open in https://ui.perfetto.dev) plus a
/// critical-path decomposition, --metrics prints the machine/engine counter
/// registry. Both re-run one configuration serially with the sinks
/// attached; the traced run is bit-identical to the sweep's (recorders
/// never perturb results), it just isn't served from the result cache.
struct TraceCli {
  std::string trace_path;  // empty = no trace export
  bool metrics = false;
  /// Rank-sampling spec (trace::TraceSample syntax, e.g.
  /// "root+leaders+slowest:4"); empty records every rank. Makes tracing
  /// viable at p = 2^20: the recorder stores O(sampled ranks) spans.
  std::string sample;
  /// Streaming span-sink budget in MiB; 0 keeps all spans in memory. When
  /// set, completed spans spill to `trace_path + ".spans"` whenever the
  /// in-memory estimate crosses the budget, and are reloaded for analysis
  /// and export after the run.
  long long stream_budget_mb = 0;
  /// Writes the metrics registry as JSON to this path (in addition to the
  /// stdout table when --metrics is also set).
  std::string metrics_json;
  bool enabled() const {
    return !trace_path.empty() || metrics || !metrics_json.empty();
  }
};

/// Registers --trace, --metrics, --trace-sample, --trace-buffer-mb and
/// --metrics-json into `cli`.
void add_trace_options(CliParser& cli, TraceCli* dest);

/// Re-run `config` with observability sinks per `trace` and emit the
/// requested artifacts (trace JSON + critical-path summary, metrics
/// table). No-op when trace.enabled() is false. `label` names the trace
/// process track and the printed headers.
void run_traced(const Config& config, const TraceCli& trace,
                const std::string& label);

/// Emit the artifacts for sinks the caller filled itself (benches that
/// run machines to_sim_job cannot describe, e.g. explicit topologies):
/// trace JSON + critical path when trace.trace_path is set, the metrics
/// table when trace.metrics is set.
void emit_trace_artifacts(const trace::Recorder& recorder,
                          const trace::MetricsRegistry& metrics,
                          const TraceCli& trace, const std::string& label);

/// Registers --lookahead D (default 0 = blocking; 1 is the double-buffered
/// pipeline; D >= 1 needs a task-plan kernel) into `cli`.
void add_lookahead_option(CliParser& cli, long long* lookahead);

/// Registers --hierarchy ("flat" or a multi-level chain like "64x16x4");
/// parse the value with core::GroupHierarchy::parse. Kernels that accept
/// chains: core::multilevel_kernel_name_list().
void add_hierarchy_option(CliParser& cli, std::string* dest);

/// Registers --algorithm with the registry's kernel list in the help text;
/// *dest keeps its current value as the default. Resolve the parsed name
/// with core::algorithm_from_string (which rejects unknown names, again
/// listing every registered kernel).
void add_algorithm_option(CliParser& cli, std::string* dest);

/// Repeated-measurement statistics, mirroring the paper's "mean times of 30
/// experiments": each repetition perturbs every transfer with deterministic
/// multiplicative noise (net::NoisyModel, per-repetition seed) and the
/// communication / total times are aggregated.
struct RepeatedResult {
  RunningStats comm_time;
  RunningStats total_time;
};
RepeatedResult run_repeated(const Config& config, int repetitions,
                            double noise_sigma, std::uint64_t seed = 2013,
                            exec::ParallelExecutor* executor = nullptr);

/// Valid power-of-two group counts (plus p) for a grid of `ranks`.
std::vector<int> pow2_group_counts(int ranks);

// --- true-simulation scaling points ---------------------------------------

/// One true-simulation run of the exascale figure's shape, truncated in k:
/// a square rank grid (side = sqrt(ranks)) multiplying m = n = `n` with
/// k = steps * block panels. Every SUMMA/HSUMMA step costs the same, so a
/// `steps`-panel run measures the full figure's per-step physics while
/// keeping the message count proportional to `steps` rather than n/b;
/// virtual time extrapolates linearly (full time = vt * (n/block) / steps).
struct ScalePoint {
  net::Platform platform = net::Platform::exascale();
  int ranks = 0;
  int groups = 1;           // 1 -> SUMMA, otherwise HSUMMA with G groups
  long long steps = 0;      // 0 -> minimum legal panel count (the grid side)
  long long n = 1ll << 22;  // m = n, the full figure's matrix dimension
  long long block = 256;
  mpc::CollectiveMode mode = mpc::CollectiveMode::PointToPoint;
  /// Broadcast algorithm for the simulated collectives. Binomial by
  /// default: MpichAuto resolves the figure's payload sizes to
  /// scatter-ring-allgather, which doubles the point-to-point message
  /// count without changing what the scaling study measures.
  net::BcastAlgo algo = net::BcastAlgo::Binomial;
  /// Optional observability sinks, attached to the run when non-null (the
  /// caller owns them; they must outlive run_scale_point). With a sampling
  /// spec in `trace_sample`, the recorder stores O(sampled ranks) spans —
  /// the only way tracing survives p = 2^20 in bounded memory.
  trace::Recorder* recorder = nullptr;
  trace::MetricsRegistry* metrics = nullptr;
  std::string trace_sample;
};

struct ScaleRunResult {
  long long steps = 0;  // resolved panel count actually simulated
  double virtual_time = 0.0;
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  std::uint64_t wire_bytes = 0;
  double wall_seconds = 0.0;
  /// VmHWM after the run. Peak RSS is monotonic per process: in an
  /// ascending sweep each value is the running maximum so far.
  long long peak_rss_kb = 0;
  std::size_t rank_pages_materialized = 0;
  std::size_t rank_page_count = 0;
  /// Bit-exact run fingerprint: hexfloat virtual time + event/message/byte
  /// counters. Two runs of the same ScalePoint must produce equal digests.
  std::string digest() const;
};

/// The panel count a ScalePoint with steps == 0 resolves to (the grid
/// side — the smallest k the SUMMA divisibility rules admit).
long long resolve_scale_steps(const ScalePoint& point);

/// Runs the point on a fresh engine + machine (phantom payloads, lazy rank
/// state) and reports engine-level throughput counters alongside the
/// simulation result.
ScaleRunResult run_scale_point(const ScalePoint& point);

/// Runs the point with observability sinks per `trace` attached (rank
/// sampling from trace.sample, streaming spill when trace.stream_budget_mb
/// is set) and emits the requested artifacts, exactly like run_traced but
/// for the true-simulation scale path. This is how the exascale figure
/// traces its real p = 2^20 instance in bounded memory.
ScaleRunResult run_scale_traced(ScalePoint point, const TraceCli& trace,
                                const std::string& label);

/// Peak resident set size (VmHWM from /proc/self/status) in kB; 0 when
/// unavailable.
long long peak_rss_kb();

/// Parses a --mode value: "auto" -> nullopt, "closed" -> ClosedForm,
/// "p2p" -> PointToPoint. Anything else aborts via HS_REQUIRE_MSG.
std::optional<mpc::CollectiveMode> parse_sim_mode(const std::string& name);

/// Writes the CSV file when `path` is nonempty; logs the destination.
void maybe_write_csv(const std::string& path,
                     const std::vector<std::vector<std::string>>& rows,
                     std::initializer_list<std::string_view> header);

/// Standard figure banner.
void print_banner(const std::string& title, const std::string& params);

/// The shape shared by Figures 5, 6 and 8: sweep the group count G on one
/// platform, reporting HSUMMA communication (and optionally execution)
/// time per G against the SUMMA baseline, plus the Section IV model's
/// prediction for each point.
struct GSweepParams {
  std::string title;
  net::Platform platform;
  int ranks = 0;
  core::ProblemSpec problem;
  net::BcastAlgo algo = net::BcastAlgo::ScatterRingAllgather;
  std::vector<int> groups;  // empty -> pow2_group_counts(ranks)
  bool show_execution = false;
  int lookahead = 0;        // look-ahead depth D (1 = overlap pipeline)
  std::string csv_path;
  /// Optional parallel executor; output is byte-identical either way.
  exec::ParallelExecutor* executor = nullptr;
  /// When enabled, the best-G HSUMMA point is re-run traced after the
  /// sweep table (see run_traced).
  TraceCli trace;
};

/// Returns the best HSUMMA communication time observed (for callers that
/// chain sweeps, e.g. the scalability figures).
double run_g_sweep(const GSweepParams& params);

/// One point of the scalability figures (7 and 9): SUMMA vs HSUMMA at its
/// best group count over `group_counts`.
struct BestGResult {
  double summa_comm = 0.0;
  double best_comm = 0.0;
  int best_groups = 1;
};
BestGResult run_best_g(const Config& config,
                       const std::vector<int>& group_counts,
                       exec::ParallelExecutor* executor = nullptr);

}  // namespace hs::bench
