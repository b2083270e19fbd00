// perfbench: runs one pass of one benchmark workload through the
// simulator's public APIs and prints what it simulated and what it cost
// the host as one JSON object on stdout.
//
//   perfbench info                                   build provenance
//   perfbench run   <workload> --seed N --dir D [--workers W]
//                                                    untraced, as users run
//   perfbench setup <workload> --seed N --dir D      set-up phase only
//   perfbench trace <workload> --seed N --dir D --spans FILE
//                                                    serial, traced pass
//
// `run` is the end-to-end measurement: the workload's fixed job list with
// the worker counts users get (at most W per executor when given), an empty
// executor cache and an empty store directory. `setup` takes the same path
// as `run` and stops at the first simulation call: it yields one cold set-up
// sample in milliseconds, where a `run` takes seconds. `trace` runs the same
// job list serially, records a span around every call the benchmark makes
// into a library layer, resets the process peak RSS between jobs (so each
// job gets its own peak), harvests the engine/machine counters through
// SimJob::metrics, replays the store on the workload's own results and times
// la::gemm on the workload's local update shape. Spans are kept in memory
// and written to FILE at exit. Checking the simulated outputs against the
// committed expectations is the caller's job (perfbench/run.py); this binary
// only reports them.
#include <fcntl.h>
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "core/hierarchy.hpp"
#include "core/kernel_registry.hpp"
#include "core/runner.hpp"
#include "desim/engine.hpp"
#include "exec/executor.hpp"
#include "exec/sim_job.hpp"
#include "grid/hier_grid.hpp"
#include "grid/process_grid.hpp"
#include "la/gemm.hpp"
#include "la/matrix.hpp"
#include "mpc/machine.hpp"
#include "net/platform.hpp"
#include "store/result_store.hpp"
#include "trace/metrics.hpp"
#include "tune/group_tuner.hpp"

namespace {

using namespace hs;
using Clock = std::chrono::steady_clock;

#ifndef PB_BUILD_TYPE
#define PB_BUILD_TYPE "unknown"
#endif
#ifndef PB_CXX_FLAGS
#define PB_CXX_FLAGS ""
#endif
#ifndef PB_COMPILER
#define PB_COMPILER "unknown"
#endif

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

bool timing_build_ok() {
  return kOptimized && !kSanitized &&
         std::string(PB_CXX_FLAGS).find("-fsanitize") == std::string::npos;
}

// --- host probes -------------------------------------------------------------

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// The process peak RSS (VmHWM) in kB.
long long peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::atoll(line.c_str() + 6);
  return 0;
}

// Return freed heap to the kernel, then reset VmHWM to the current RSS, so
// the next peak reading belongs to what runs next and not to what ran
// before (glibc keeps freed arenas resident otherwise).
void reset_peak_rss() {
  malloc_trim(0);
  const int fd = ::open("/proc/self/clear_refs", O_WRONLY);
  HS_REQUIRE_MSG(fd >= 0, "cannot open /proc/self/clear_refs");
  const bool ok = ::write(fd, "5", 1) == 1;
  ::close(fd);
  HS_REQUIRE_MSG(ok, "cannot reset peak RSS through /proc/self/clear_refs");
}

// --- output formatting -------------------------------------------------------

std::string hexfloat(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%a", value);
  return buffer;
}

// --- spans -------------------------------------------------------------------

struct Span {
  int id = 0;
  int parent = -1;
  std::string name;
  std::string job;
  double start = 0.0;  // seconds since the pass started
  double end = 0.0;
  std::map<std::string, double> attrs;
  std::string kind;
};

// In-memory span recorder. A null Tracer* means untraced: every helper
// below is then a no-op, so run and trace share one code path.
class Tracer {
 public:
  explicit Tracer(Clock::time_point t0) : t0_(t0) {}

  int begin(std::string name, std::string job = {}) {
    Span span;
    span.id = static_cast<int>(spans_.size());
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.name = std::move(name);
    span.job = std::move(job);
    span.start = since(t0_);
    spans_.push_back(std::move(span));
    stack_.push_back(spans_.back().id);
    return spans_.back().id;
  }

  Span& end(int id) {
    HS_REQUIRE(!stack_.empty() && stack_.back() == id);
    stack_.pop_back();
    spans_[static_cast<std::size_t>(id)].end = since(t0_);
    return spans_[static_cast<std::size_t>(id)];
  }

  // A completed child of `parent` known only by its duration (a job's run
  // inside the executor, from ParallelExecutor::run_ns), placed to end at
  // `end` seconds since the pass started.
  Span& add_child(int parent, std::string name, std::string job, double end,
                  double seconds) {
    Span span;
    span.id = static_cast<int>(spans_.size());
    span.parent = parent;
    span.name = std::move(name);
    span.job = std::move(job);
    span.end = end;
    span.start = std::max(spans_[static_cast<std::size_t>(parent)].start,
                          end - seconds);
    spans_.push_back(std::move(span));
    return spans_.back();
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    HS_REQUIRE_MSG(out.good(), "cannot write spans to " << path);
    for (const Span& s : spans_) {
      JsonObject attrs;
      for (const auto& [key, value] : s.attrs) attrs[key] = JsonValue{value};
      out << write_json(JsonValue{JsonObject{
                 {"id", JsonValue{static_cast<double>(s.id)}},
                 {"parent", JsonValue{static_cast<double>(s.parent)}},
                 {"name", JsonValue{s.name}},
                 {"job", JsonValue{s.job}},
                 {"kind", JsonValue{s.kind}},
                 {"start", JsonValue{s.start}},
                 {"end", JsonValue{s.end}},
                 {"attrs", JsonValue{std::move(attrs)}}}})
          << "\n";
    }
  }

 private:
  Clock::time_point t0_;
  std::deque<Span> spans_;  // stable references: spans are annotated late
  std::vector<int> stack_;
};

// RAII span; inert when tracer is null.
class Scope {
 public:
  Scope(Tracer* tracer, std::string name, std::string job = {})
      : tracer_(tracer),
        id_(tracer ? tracer->begin(std::move(name), std::move(job)) : -1) {}
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() {
    if (tracer_ != nullptr && !ended_) tracer_->end(id_);
  }
  // Ends the span now and returns it for annotation (null when untraced).
  Span* close() {
    if (tracer_ == nullptr || ended_) return nullptr;
    ended_ = true;
    return &tracer_->end(id_);
  }

 private:
  Tracer* tracer_;
  int id_;
  bool ended_ = false;
};

// --- workload description ----------------------------------------------------

enum class Mode { Run, Setup, Trace };

// One simulation; `id` keys its committed expectation.
struct JobSpec {
  std::string id;
  exec::SimJob job;
};

// Jobs sharing one ParallelExecutor (one per paper figure or study).
struct Group {
  std::string name;
  std::vector<JobSpec> jobs;
  int workers = 1;
  // A paper figure's sweep: the seed shuffles its submission order. Other
  // job lists keep their order: with unequal jobs on fewer workers, the
  // order decides which jobs overlap, and so the pass's wall time and peak
  // memory, which must not depend on the seed.
  bool sweep = false;
};

struct Output {
  std::string id;
  core::RunResult result;
  std::string error;  // non-empty: the simulation threw
};

// Executor counters summed over a pass's executors.
struct ExecTotals {
  std::uint64_t jobs = 0;
  std::uint64_t engines_run = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t store_hits = 0;
  std::uint64_t run_ns = 0;
  double worker_seconds = 0.0;  // workers x executor lifetime
  int max_workers = 0;          // the widest executor's workers

  void add(const exec::ParallelExecutor& executor, double lifetime) {
    max_workers = std::max(max_workers, executor.jobs());
    jobs += executor.jobs_submitted();
    engines_run += executor.engines_run();
    cache_hits += executor.cache_hits();
    store_hits += executor.store_hits();
    run_ns += executor.run_ns_total();
    worker_seconds += executor.jobs() * lifetime;
  }
};

// Thrown by Pass::first_call in set-up mode: the set-up phase is over.
struct SetupDone {};

struct Pass {
  Mode mode = Mode::Run;
  std::uint64_t seed = 0;
  std::string dir;  // working root for store directories
  int max_workers = 0;  // cap on every executor's workers; 0: none
  Clock::time_point t0 = Clock::now();
  double setup_s = -1.0;  // workload start -> first simulation call
  Tracer* tracer = nullptr;
  std::vector<Output> outputs;
  std::map<std::string, std::string> picks;
  ExecTotals exec;
  std::map<std::string, double> counters;
  // Traced pass: the results it simulated, by cache key, in first-run
  // order (a key found here is a repeat; the store replay walks them).
  std::map<std::string, core::RunResult> done;
  std::vector<std::string> done_order;

  void first_call() {
    if (setup_s < 0.0) setup_s = since(t0);
    if (mode == Mode::Setup) throw SetupDone{};
  }

  int workers(int wanted) const {
    return max_workers > 0 ? std::min(wanted, max_workers) : wanted;
  }
};

int hw_workers() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

// Submission order, shuffled by the seed for a sweep; results are read
// back by index, so the simulated outputs do not depend on it.
std::vector<std::size_t> submission_order(const Group& group,
                                          std::uint64_t seed,
                                          std::uint64_t salt) {
  std::vector<std::size_t> order(group.jobs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  if (group.sweep) {
    std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + salt);
    std::shuffle(order.begin(), order.end(), rng);
  }
  return order;
}

// Which part of core runs the job; host time is bucketed by it.
std::string kind_of(const exec::SimJob& job) {
  if (job.mode == core::PayloadMode::Real) return "real";
  if (job.algorithm == core::Algorithm::SummaCyclic ||
      job.algorithm == core::Algorithm::HsummaCyclic)
    return "doublebuffer";
  if (job.lookahead >= 1) return "taskplan";
  const int depth = job.effective_hierarchy().depth();
  return depth >= 2 ? "multilevel" : depth == 1 ? "scalar" : "flat";
}

// --- the workloads -----------------------------------------------------------

// bgp_figures: Fig 8's G-sweep and Fig 9's best-G rows at n = 65536,
// b = 256, k truncated to the fewest panels the p = 4096 grid admits.
constexpr long long kBgpN = 65536;
constexpr long long kBgpBlock = 256;
constexpr long long kBgpK = 64 * kBgpBlock;
constexpr int kFig8Ranks = 4096;
const std::vector<int> kFig9Procs = {1024, 2048, 4096};
// Two chains in the sweep give the multilevel kernel traced counters; the
// tuner samples the same configurations and is served them by the store.
const std::vector<std::string> kFig8Chains = {"4x8", "8x8"};
constexpr int kTuneRanks = 4096;

exec::SimJob bgp_job(int ranks, int groups) {
  const net::Platform platform = net::Platform::bluegene_p_calibrated();
  exec::SimJob job;
  job.platform = platform;
  job.gamma_flop = platform.gamma_flop;
  job.collective_mode = mpc::CollectiveMode::ClosedForm;
  job.machine_bcast_algo = net::BcastAlgo::ScatterRingAllgather;
  job.bcast_algo = net::BcastAlgo::ScatterRingAllgather;
  job.ranks = ranks;
  job.groups = groups;
  job.problem = {kBgpN, kBgpK, kBgpN, kBgpBlock, 0};
  job.lookahead = 0;
  return job;
}

std::vector<int> pow2_groups(int ranks) {
  const grid::GridShape shape = grid::near_square_shape(ranks);
  std::vector<int> counts;
  for (int g = 1; g <= ranks; g *= 2)
    if (grid::group_arrangement(shape, g).size() == g) counts.push_back(g);
  return counts;
}

std::string fig8_prefix() { return "fig8/p" + std::to_string(kFig8Ranks); }

std::vector<Group> bgp_groups() {
  Group fig8{"fig8", {}, hw_workers(), true};
  fig8.jobs.push_back({fig8_prefix() + "/summa", bgp_job(kFig8Ranks, 1)});
  // G = 1 as a SimJob is SUMMA itself; fig8_hsumma_g1 runs HSUMMA's kernel.
  for (int g : pow2_groups(kFig8Ranks))
    if (g > 1)
      fig8.jobs.push_back({fig8_prefix() + "/G" + std::to_string(g),
                           bgp_job(kFig8Ranks, g)});
  for (const std::string& chain : kFig8Chains) {
    exec::SimJob job = bgp_job(kFig8Ranks, 1);
    job.hierarchy = core::GroupHierarchy::parse(chain);
    fig8.jobs.push_back({fig8_prefix() + "/h" + chain, job});
  }
  // Fig 9 samples G within a factor of 8 of sqrt(p), like bench/fig9.
  Group fig9{"fig9", {}, hw_workers(), true};
  for (int p : kFig9Procs) {
    const std::string prefix = "fig9/p" + std::to_string(p);
    fig9.jobs.push_back({prefix + "/summa", bgp_job(p, 1)});
    const double sqrt_p = std::sqrt(static_cast<double>(p));
    for (int g : pow2_groups(p))
      if (g >= sqrt_p / 8.0 && g <= sqrt_p * 8.0)
        fig9.jobs.push_back({prefix + "/G" + std::to_string(g),
                             bgp_job(p, g)});
  }
  return {fig8, fig9};
}

// lookahead: the task runtime (and the cyclic kernels' DoubleBuffer shim)
// at BG/P p = 1024, n = 16384, b = 128; the SUMMA-family multiplications
// run 64 of the 128 panels.
Group lookahead_group() {
  const net::Platform platform = net::Platform::bluegene_p_calibrated();
  const auto job = [&](core::Algorithm algorithm, int groups,
                       const std::string& chain, int depth) {
    exec::SimJob j;
    j.platform = platform;
    j.gamma_flop = platform.gamma_flop;
    j.collective_mode = mpc::CollectiveMode::ClosedForm;
    j.machine_bcast_algo = net::BcastAlgo::ScatterRingAllgather;
    j.bcast_algo = net::BcastAlgo::ScatterRingAllgather;
    j.algorithm = algorithm;
    j.ranks = 1024;
    j.groups = groups;
    if (!chain.empty()) j.hierarchy = core::GroupHierarchy::parse(chain);
    // Truncating k needs a k-panel loop: LU and Cannon keep k = n.
    j.problem = algorithm == core::Algorithm::Lu
                    ? core::ProblemSpec::factorization(16384, 128)
                : algorithm == core::Algorithm::Cannon
                    ? core::ProblemSpec::square(16384, 128)
                    : core::ProblemSpec{16384, 64 * 128, 16384, 128, 0};
    j.lookahead = depth;
    return j;
  };
  using core::Algorithm;
  Group g{"lookahead", {}, 1};
  g.jobs = {
      {"lookahead/summa/D1", job(Algorithm::Summa, 1, "", 1)},
      {"lookahead/summa/D2", job(Algorithm::Summa, 1, "", 2)},
      {"lookahead/hsumma-G32/D1", job(Algorithm::Summa, 32, "", 1)},
      {"lookahead/hsumma-G32/D2", job(Algorithm::Summa, 32, "", 2)},
      {"lookahead/h4x8/D2", job(Algorithm::Summa, 1, "4x8", 2)},
      {"lookahead/summa-cyclic/D1", job(Algorithm::SummaCyclic, 1, "", 1)},
      {"lookahead/hsumma-cyclic-G32/D1",
       job(Algorithm::SummaCyclic, 32, "", 1)},
      {"lookahead/cannon/D2", job(Algorithm::Cannon, 1, "", 2)},
      {"lookahead/lu/D2", job(Algorithm::Lu, 1, "", 2)},
  };
  g.workers = std::min(hw_workers(), static_cast<int>(g.jobs.size()));
  return g;
}

// real_verify: real payloads with the oracle on; the seed picks the inputs.
Group real_verify_group(std::uint64_t seed) {
  const net::Platform platform = net::Platform::grid5000_calibrated();
  const auto job = [&](core::Algorithm algorithm, int groups,
                       mpc::CollectiveMode mode) {
    exec::SimJob j;
    j.platform = platform;
    j.gamma_flop = platform.gamma_flop;
    j.collective_mode = mode;
    j.algorithm = algorithm;
    j.ranks = 16;
    j.groups = groups;
    j.problem = algorithm == core::Algorithm::Lu ||
                        algorithm == core::Algorithm::Cholesky
                    ? core::ProblemSpec::factorization(1024, 64)
                    : core::ProblemSpec::square(1024, 64);
    j.mode = core::PayloadMode::Real;
    j.verify = true;
    j.seed = seed;
    return j;
  };
  using core::Algorithm;
  using mpc::CollectiveMode;
  Group g{"real_verify", {}, 1};
  g.jobs = {
      {"real/summa", job(Algorithm::Summa, 1, CollectiveMode::ClosedForm)},
      {"real/hsumma-G4",
       job(Algorithm::Summa, 4, CollectiveMode::PointToPoint)},
      {"real/lu", job(Algorithm::Lu, 1, CollectiveMode::ClosedForm)},
      {"real/cholesky",
       job(Algorithm::Cholesky, 1, CollectiveMode::ClosedForm)},
  };
  g.workers = std::min(hw_workers(), static_cast<int>(g.jobs.size()));
  return g;
}

// One simulation the benchmark runs itself: core::run on an Engine and a
// Machine it owns, with run options it sets directly (no SimJob
// adaptation).
struct OwnedCase {
  std::string id;
  std::string kind;  // host-time bucket, as kind_of gives for a SimJob
  net::Platform platform;
  mpc::MachineConfig machine;
  core::RunOptions options;
};

// The closed-form G = 1 identity needs HSUMMA's own kernel: a SimJob with
// one group is adapted to flat SUMMA. This runs HSUMMA with a 1 x 1 group
// arrangement on Fig 8's job otherwise.
OwnedCase fig8_hsumma_g1() {
  const exec::SimJob job = bgp_job(kFig8Ranks, 1);
  OwnedCase c{fig8_prefix() + "/G1",
              "scalar",
              job.platform,
              {.ranks = kFig8Ranks,
               .collective_mode = job.collective_mode,
               .bcast_algo = job.machine_bcast_algo,
               .gamma_flop = job.gamma_flop},
              {}};
  c.options.algorithm = core::Algorithm::Hsumma;
  c.options.grid = grid::near_square_shape(kFig8Ranks);
  c.options.groups = {1, 1};
  c.options.problem = job.problem;
  c.options.mode = job.mode;
  c.options.bcast_algo = job.bcast_algo;
  c.options.lookahead = job.lookahead;
  return c;
}

// p2p_exascale: the Fig 10 exascale shape with 128 panels, binomial
// broadcasts routed message by message.
constexpr int kP2pRanks = 1 << 14;
constexpr int kP2pSide = 128;
constexpr long long kP2pN = 1ll << 22;
constexpr long long kP2pBlock = 256;

std::vector<OwnedCase> p2p_cases() {
  const net::Platform platform = net::Platform::exascale();
  std::vector<OwnedCase> cases;
  for (const auto& [id, groups] :
       {std::pair<std::string, int>{"p2p/p16384/summa", 1},
        {"p2p/p16384/G128", 128}}) {
    OwnedCase c{id,
                groups > 1 ? "scalar" : "flat",
                platform,
                {.ranks = kP2pRanks,
                 .collective_mode = mpc::CollectiveMode::PointToPoint,
                 .bcast_algo = net::BcastAlgo::Binomial,
                 .gamma_flop = platform.gamma_flop},
                {}};
    c.options.grid = {kP2pSide, kP2pSide};
    c.options.problem = {kP2pN, 128 * kP2pBlock, kP2pN, kP2pBlock, 0};
    c.options.mode = core::PayloadMode::Phantom;
    c.options.bcast_algo = net::BcastAlgo::Binomial;
    core::adapt_groups(groups, c.options);
    cases.push_back(std::move(c));
  }
  return cases;
}

// --- running executor jobs ---------------------------------------------------

std::shared_ptr<store::ResultStore> open_store(Pass& pass,
                                               const std::string& name) {
  const std::string root = pass.dir + "/" + name;
  std::filesystem::remove_all(root);
  Scope span(pass.tracer, "store.open");
  return std::make_shared<store::ResultStore>(
      store::StoreOptions{.root = root});
}

void annotate_counters(Span& span, const trace::MetricsRegistry& metrics) {
  const auto get = [&](const char* name) {
    return metrics.has_counter(name)
               ? static_cast<double>(metrics.counter(name))
               : 0.0;
  };
  span.attrs["events"] = get("desim.events_processed");
  span.attrs["heap_peak"] = get("desim.heap_peak");
  span.attrs["messages"] = get("mpc.messages");
  span.attrs["wire_bytes"] = get("mpc.wire_bytes");
}

// Untraced: every job submitted up front in seeded order on the group's
// workers, results read back by index, as the figure benches do.
std::vector<core::RunResult> run_group_parallel(
    Pass& pass, const Group& group,
    const std::shared_ptr<store::ResultStore>& store, std::uint64_t salt) {
  const auto start = Clock::now();
  exec::ParallelExecutor executor(
      {.jobs = pass.workers(group.workers), .store = store});
  std::vector<std::size_t> index(group.jobs.size());
  for (std::size_t i : submission_order(group, pass.seed, salt)) {
    pass.first_call();
    index[i] = executor.submit(group.jobs[i].job);
  }
  std::vector<core::RunResult> results(group.jobs.size());
  for (std::size_t i = 0; i < group.jobs.size(); ++i) {
    std::string error;
    try {
      results[i] = executor.result(index[i]);
    } catch (const std::exception& e) {
      error = e.what();
    }
    pass.outputs.push_back({group.jobs[i].id, results[i], error});
  }
  pass.exec.add(executor, since(start));
  return results;
}

// Traced: one job at a time, each on a fresh single-worker executor (the
// worker's coroutine frame pool dies with its thread) with the peak RSS
// reset first, so each job's span carries its own peak memory. Counters
// come through SimJob::metrics, which makes a job uncacheable, so the
// benchmark publishes each result to the store itself: a repeated
// configuration is then a store hit, as it is untraced.
std::vector<core::RunResult> run_group_serial(
    Pass& pass, const Group& group,
    const std::shared_ptr<store::ResultStore>& store, std::uint64_t salt) {
  Tracer* tracer = pass.tracer;
  std::vector<core::RunResult> results(group.jobs.size());
  std::vector<std::string> errors(group.jobs.size());
  for (std::size_t i : submission_order(group, pass.seed, salt)) {
    const JobSpec& spec = group.jobs[i];
    const std::string key = spec.job.cache_key();
    const bool repeat = store != nullptr && pass.done.count(key) > 0;
    trace::MetricsRegistry metrics;
    exec::SimJob job = spec.job;
    if (!repeat) job.metrics = &metrics;
    reset_peak_rss();
    std::unique_ptr<exec::ParallelExecutor> executor;
    {
      Scope span(tracer, "exec.ParallelExecutor", spec.id);
      executor = std::make_unique<exec::ParallelExecutor>(
          exec::ExecutorOptions{.jobs = 1, .store = store});
    }
    pass.first_call();
    std::size_t index = 0;
    {
      Scope span(tracer, "exec.submit", spec.id);
      index = executor->submit(job);
    }
    Scope wait(tracer, "exec.result", spec.id);
    try {
      results[i] = executor->result(index);
    } catch (const std::exception& e) {
      errors[i] = e.what();
    }
    Span* span = wait.close();
    if (!repeat) {
      Span& run = tracer->add_child(
          span->id, "core.run", spec.id, span->end,
          static_cast<double>(executor->run_ns(index)) * 1e-9);
      run.kind = kind_of(spec.job);
      run.attrs["rss_kb"] = static_cast<double>(peak_rss_kb());
      run.attrs["flops"] = static_cast<double>(results[i].timing.total_flops);
      annotate_counters(run, metrics);
    }
    {
      Scope join(tracer, "exec.~ParallelExecutor", spec.id);
      executor.reset();
    }
    if (repeat || !errors[i].empty()) continue;
    pass.done.emplace(key, results[i]);
    pass.done_order.push_back(key);
    if (store != nullptr) {
      Scope publish(tracer, "store.save", spec.id);
      store->save(key, results[i]);
    }
  }
  for (std::size_t i = 0; i < group.jobs.size(); ++i)
    pass.outputs.push_back({group.jobs[i].id, results[i], errors[i]});
  return results;
}

std::vector<core::RunResult> run_group(
    Pass& pass, const Group& group,
    const std::shared_ptr<store::ResultStore>& store, std::uint64_t salt) {
  return pass.mode == Mode::Trace
             ? run_group_serial(pass, group, store, salt)
             : run_group_parallel(pass, group, store, salt);
}

// Fig 9's best G per p: the smallest communication time, first on ties.
void fig9_picks(Pass& pass, const Group& fig9,
                const std::vector<core::RunResult>& results) {
  for (int p : kFig9Procs) {
    const std::string prefix = "fig9/p" + std::to_string(p) + "/";
    double best = 0.0;
    std::string best_id;
    for (std::size_t i = 0; i < fig9.jobs.size(); ++i) {
      const std::string& id = fig9.jobs[i].id;
      if (id.rfind(prefix, 0) != 0) continue;
      const double comm = results[i].timing.max_comm_time;
      if (best_id.empty() || comm < best) {
        best = comm;
        best_id = id.substr(prefix.size());
      }
    }
    pass.picks[prefix + "best"] = best_id;
  }
}

// The paper's method for choosing G, chain-aware (max_levels = 2), one
// outer step per sample. Shares the figures' store, so configurations the
// figures already simulated are store hits.
void run_tune(Pass& pass, const std::shared_ptr<store::ResultStore>& store) {
  const net::Platform platform = net::Platform::bluegene_p_calibrated();
  const auto start = Clock::now();
  exec::ParallelExecutor executor(
      {.jobs = pass.mode == Mode::Trace ? 1 : pass.workers(hw_workers()),
       .store = store});
  tune::TuneOptions options;
  options.kernel = core::Algorithm::Summa;
  options.grid = grid::near_square_shape(kTuneRanks);
  options.problem = core::ProblemSpec::square(kBgpN, kBgpBlock);
  options.network = platform.make_network();
  options.machine_config = {.collective_mode = mpc::CollectiveMode::ClosedForm,
                            .bcast_algo = net::BcastAlgo::ScatterRingAllgather,
                            .gamma_flop = platform.gamma_flop};
  options.bcast_algo = net::BcastAlgo::ScatterRingAllgather;
  options.sample_outer_steps = 1;
  options.max_levels = 2;
  options.executor = &executor;
  const std::string id = "tune/p" + std::to_string(kTuneRanks);
  tune::TuneResult result;
  Scope span(pass.tracer, "tune.tune_groups", id);
  try {
    result = tune::tune_groups(options);
  } catch (const std::exception& e) {
    pass.outputs.push_back({id, {}, e.what()});
    return;
  }
  if (Span* s = span.close()) {
    // One worker ran the samples back to back; lay them out that way.
    s->attrs["samples"] = static_cast<double>(result.samples.size());
    double end = s->end;
    for (std::size_t i = result.samples.size(); i-- > 0;) {
      const core::GroupHierarchy& chain = result.samples[i].hierarchy;
      const double seconds = static_cast<double>(executor.run_ns(i)) * 1e-9;
      Span& run = pass.tracer->add_child(
          s->id, "core.run", id + "/" + chain.to_string(), end, seconds);
      run.kind = chain.depth() >= 2 ? "multilevel"
                 : chain.depth() == 1 ? "scalar"
                                      : "flat";
      end = run.start;
    }
  }
  pass.picks[id + "/best"] = result.best_hierarchy.to_string() + " D=" +
                             std::to_string(result.best_lookahead);
  pass.picks[id + "/best_comm"] = hexfloat(result.best_comm_time);
  pass.exec.add(executor, since(start));
}

// --- simulations on engines the benchmark owns -------------------------------

void run_owned_case(Pass& pass, const OwnedCase& c) {
  Tracer* tracer = pass.tracer;
  std::unique_ptr<desim::Engine> engine;
  std::unique_ptr<mpc::Machine> machine;
  {
    Scope span(tracer, "desim.Engine", c.id);
    engine = std::make_unique<desim::Engine>();
  }
  {
    Scope span(tracer, "mpc.Machine", c.id);
    machine = std::make_unique<mpc::Machine>(
        *engine, c.platform.make_network(), c.machine);
  }
  core::RunOptions options = c.options;
  trace::MetricsRegistry metrics;
  if (tracer != nullptr) options.metrics = &metrics;
  pass.first_call();
  core::RunResult result;
  std::string error;
  Scope span(tracer, "core.run", c.id);
  try {
    result = core::run(*machine, options);
  } catch (const std::exception& e) {
    error = e.what();
  }
  if (Span* s = span.close()) {
    machine->collect_metrics(metrics);
    trace::collect_engine_metrics(*engine, metrics);
    s->kind = c.kind;
    s->attrs["rss_kb"] = static_cast<double>(peak_rss_kb());
    s->attrs["flops"] = static_cast<double>(result.timing.total_flops);
    annotate_counters(*s, metrics);
  }
  pass.outputs.push_back({c.id, result, error});
  // Counters the engine and machine expose for free.
  pass.counters["desim.events"] +=
      static_cast<double>(engine->events_processed());
  pass.counters["desim.heap_peak"] =
      std::max(pass.counters["desim.heap_peak"],
               static_cast<double>(engine->heap_peak()));
  pass.counters["mpc.messages"] +=
      static_cast<double>(machine->messages_transferred());
  pass.counters["mpc.wire_bytes"] +=
      static_cast<double>(machine->bytes_transferred());
}

// One simulation at a time. Untraced, all on the calling thread, as a user
// would run them; traced, each on a fresh thread (an engine is pinned to
// the thread that runs it, and the thread's frame pool dies with it) with
// the peak RSS reset first, so each case gets its own peak memory.
void run_owned(Pass& pass, const std::vector<OwnedCase>& cases) {
  for (const OwnedCase& c : cases) {
    if (pass.mode != Mode::Trace) {
      run_owned_case(pass, c);
      continue;
    }
    reset_peak_rss();
    std::exception_ptr error;
    std::thread worker([&] {
      try {
        run_owned_case(pass, c);
      } catch (...) {
        error = std::current_exception();
      }
    });
    worker.join();
    if (error) std::rethrow_exception(error);
  }
}

// --- the workloads' job lists -----------------------------------------------

void run_bgp(Pass& pass) {
  const std::vector<Group> groups = bgp_groups();
  const std::vector<OwnedCase> hsumma_g1 = {fig8_hsumma_g1()};
  // One store directory for both figures and the tuner.
  const auto store = open_store(pass, "bgp_store");
  run_group(pass, groups[0], store, 8);
  run_owned(pass, hsumma_g1);
  fig9_picks(pass, groups[1], run_group(pass, groups[1], store, 9));
  run_tune(pass, store);
}

void run_executor_workload(Pass& pass, const Group& group) {
  run_group(pass, group, open_store(pass, group.name), 1);
}

// real_verify's traced pass runs every case a second time with the oracle
// off, on the same inputs, so the oracle's host share can be measured.
void run_verify_off(Pass& pass, const Group& group) {
  Group off = group;
  for (JobSpec& spec : off.jobs) {
    spec.id += "/noverify";
    spec.job.verify = false;
  }
  run_group_serial(pass, off, nullptr, 99);
}

// --- traced-only probes ------------------------------------------------------

// ResultStore::save then ::load on the pass's own (key, result) pairs in a
// fresh store, one span per call.
void replay_store(Pass& pass) {
  if (pass.done_order.empty()) return;
  const auto store = open_store(pass, "replay_store");
  for (const std::string& key : pass.done_order) {
    Scope span(pass.tracer, "store.save");
    store->save(key, pass.done.at(key));
  }
  for (const std::string& key : pass.done_order) {
    std::optional<core::RunResult> loaded;
    {
      Scope span(pass.tracer, "store.load");
      loaded = store->load(key);
    }
    HS_REQUIRE_MSG(loaded.has_value() &&
                       loaded->timing.total_time ==
                           pass.done.at(key).timing.total_time,
                   "store replay lost " << key);
  }
  pass.counters["store.bytes"] = static_cast<double>(store->stats().bytes);
}

// la::gemm on one rank's local update of one panel step, C_ij += A_ik B_kj:
// (m/s) x b times b x (n/t), repeated for at least 0.2 s. Local blocks are
// capped at kGemmMaxDim per side (the exascale shape's 32768^2 C block
// alone would need 8 GiB).
constexpr la::index_t kGemmMaxDim = 2048;

void probe_gemm(Pass& pass, long long m, long long n, long long block,
                int ranks) {
  const grid::GridShape shape = grid::near_square_shape(ranks);
  const la::index_t rows = std::min<la::index_t>(m / shape.rows, kGemmMaxDim);
  const la::index_t cols = std::min<la::index_t>(n / shape.cols, kGemmMaxDim);
  la::Matrix a(rows, block), b(block, cols), c(rows, cols);
  std::mt19937_64 rng(pass.seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (la::index_t i = 0; i < rows; ++i)
    for (la::index_t j = 0; j < block; ++j) a(i, j) = dist(rng);
  for (la::index_t i = 0; i < block; ++i)
    for (la::index_t j = 0; j < cols; ++j) b(i, j) = dist(rng);
  const auto start = Clock::now();
  for (int calls = 0; calls < 3 || since(start) < 0.2; ++calls) {
    Scope span(pass.tracer, "la.gemm");
    la::gemm(a.view(), b.view(), c.view());
    span.close()->attrs["flops"] = la::gemm_flops(rows, cols, block);
  }
}

// --- entry points ------------------------------------------------------------

const std::vector<std::string> kWorkloads = {"bgp_figures", "lookahead",
                                             "p2p_exascale", "real_verify"};

// The workload's fixed job list: what a pass times end to end.
void run_jobs(Pass& pass, const std::string& workload) {
  if (workload == "bgp_figures") {
    run_bgp(pass);
  } else if (workload == "lookahead") {
    run_executor_workload(pass, lookahead_group());
  } else if (workload == "real_verify") {
    run_executor_workload(pass, real_verify_group(pass.seed));
  } else {
    run_owned(pass, p2p_cases());
  }
}

// The traced pass's measurements beside the job list, outside its wall.
void run_probes(Pass& pass, const std::string& workload) {
  if (workload == "bgp_figures") {
    probe_gemm(pass, kBgpN, kBgpN, kBgpBlock, kFig8Ranks);
  } else if (workload == "lookahead") {
    probe_gemm(pass, 16384, 16384, 128, 1024);
  } else if (workload == "real_verify") {
    run_verify_off(pass, real_verify_group(pass.seed));
    probe_gemm(pass, 1024, 1024, 64, 16);
  } else {
    probe_gemm(pass, kP2pN, kP2pN, kP2pBlock, kP2pRanks);
  }
  replay_store(pass);
}

JsonValue provenance() {
  return JsonValue{JsonObject{
      {"build_type", JsonValue{std::string(PB_BUILD_TYPE)}},
      {"cxx_flags", JsonValue{std::string(PB_CXX_FLAGS)}},
      {"compiler", JsonValue{std::string(PB_COMPILER)}},
      {"compiler_version", JsonValue{std::string(__VERSION__)}},
      {"optimized", JsonValue{kOptimized}},
      {"sanitized", JsonValue{kSanitized}},
      {"timing_ok", JsonValue{timing_build_ok()}},
      {"hardware_threads", JsonValue{static_cast<double>(hw_workers())}}}};
}

void print_pass(const Pass& pass, double wall_s) {
  const auto num = [](auto value) {
    return JsonValue{static_cast<double>(value)};
  };
  JsonArray outputs;
  for (const Output& o : pass.outputs) {
    const trace::TimingReport& t = o.result.timing;
    JsonObject out{{"id", JsonValue{o.id}}};
    if (!o.error.empty()) {
      out["error"] = JsonValue{o.error};
    } else {
      out["total"] = JsonValue{hexfloat(t.total_time)};
      out["comm"] = JsonValue{hexfloat(t.max_comm_time)};
      out["comp"] = JsonValue{hexfloat(t.max_comp_time)};
      out["messages"] = num(o.result.messages);
      out["wire_bytes"] = num(o.result.wire_bytes);
      out["max_error"] = num(o.result.max_error);
    }
    outputs.push_back(JsonValue{std::move(out)});
  }
  JsonObject picks, counters;
  for (const auto& [id, value] : pass.picks) picks[id] = JsonValue{value};
  for (const auto& [name, value] : pass.counters)
    counters[name] = JsonValue{value};
  const JsonObject exec{
      {"jobs", num(pass.exec.jobs)},
      {"engines_run", num(pass.exec.engines_run)},
      {"cache_hits", num(pass.exec.cache_hits)},
      {"store_hits", num(pass.exec.store_hits)},
      {"run_s", num(static_cast<double>(pass.exec.run_ns) * 1e-9)},
      {"worker_s", num(pass.exec.worker_seconds)},
      {"workers", num(pass.exec.max_workers)}};
  const JsonObject result{{"wall_s", num(wall_s)},
                          {"setup_s", num(pass.setup_s)},
                          {"peak_rss_kb", num(peak_rss_kb())},
                          {"outputs", JsonValue{std::move(outputs)}},
                          {"picks", JsonValue{std::move(picks)}},
                          {"exec", JsonValue{exec}},
                          {"counters", JsonValue{std::move(counters)}},
                          {"build", provenance()}};
  std::printf("%s\n", write_json(JsonValue{result}).c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench info\n"
               "       perfbench run|setup|trace <workload> --seed N --dir D "
               "[--workers W] [--spans FILE]\n"
               "workloads: bgp_figures lookahead p2p_exascale real_verify\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "info") {
    std::printf("%s\n", write_json(provenance()).c_str());
    return 0;
  }
  if (argc < 3 || (argc - 3) % 2 != 0) return usage();
  const std::string command = argv[1];
  const std::string workload = argv[2];
  if (std::find(kWorkloads.begin(), kWorkloads.end(), workload) ==
      kWorkloads.end())
    return usage();
  Pass pass;
  std::string spans_path;
  try {
    for (int i = 3; i + 1 < argc; i += 2) {
      const std::string flag = argv[i];
      const std::string value = argv[i + 1];
      if (flag == "--seed") {
        pass.seed = std::stoull(value);
      } else if (flag == "--dir") {
        pass.dir = value;
      } else if (flag == "--spans") {
        spans_path = value;
      } else if (flag == "--workers") {
        pass.max_workers = std::stoi(value);
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (pass.dir.empty()) return usage();
  if (!timing_build_ok()) {
    std::fprintf(stderr,
                 "perfbench: refusing to time a build that is not optimized "
                 "or has sanitizers: %s\n",
                 write_json(provenance()).c_str());
    return 3;
  }
  try {
    std::filesystem::create_directories(pass.dir);
    if (command == "run") {
      pass.t0 = Clock::now();
      run_jobs(pass, workload);
      print_pass(pass, since(pass.t0));
    } else if (command == "setup") {
      pass.mode = Mode::Setup;
      pass.t0 = Clock::now();
      try {
        run_jobs(pass, workload);
      } catch (const SetupDone&) {
      }
      print_pass(pass, 0.0);
    } else if (command == "trace" && !spans_path.empty()) {
      pass.mode = Mode::Trace;
      pass.t0 = Clock::now();
      Tracer tracer(pass.t0);
      pass.tracer = &tracer;
      double wall = 0.0;
      {
        Scope root(&tracer, "workload", workload);
        run_jobs(pass, workload);
        wall = since(pass.t0);
        run_probes(pass, workload);
      }
      tracer.write(spans_path);
      print_pass(pass, wall);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
