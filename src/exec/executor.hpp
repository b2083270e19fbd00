// Parallel sweep executor: run independent simulations concurrently with
// deterministic aggregation and a memoized result per job key.
//
// Every figure bench and the autotuner sweep configurations by running a
// serial loop of fresh-engine simulations; the simulations are pure
// functions of their SimJob, so they parallelize embarrassingly. The
// executor runs submitted jobs on a fixed pool of worker threads — each
// job's engine is created, run and destroyed entirely on one worker, which
// keeps it pinned to that thread's desim::FramePool (enforced by the
// engine's owner-thread check) — and exposes results by *submission index*,
// so callers aggregate in program order and sweep output (tables, CSVs,
// best-G selection) is byte-identical for any worker count, including 1.
//
// Completed jobs are memoized by SimJob::cache_key() for the executor's
// lifetime: the SUMMA baseline and shared G points re-simulated across
// fig5/fig6/fig8 and the autotuner's verification sweep become map
// lookups. An optional store::ResultStore adds a durable tier shared
// across processes — a submit that misses memory consults the disk store
// before queueing an engine, and every completed engine run is published
// back. Identical jobs submitted while the first is still queued, running,
// or being looked up on disk are coalesced onto it (in-flight dedupe), so
// a duplicate never runs an engine regardless of timing. Jobs whose
// network model is not describable bypass the memo and simply run.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "exec/sim_job.hpp"
#include "store/result_store.hpp"

namespace hs::exec {

/// Worker count used for `jobs <= 0`: one per hardware thread (at least 1).
int default_jobs();

struct ExecutorOptions {
  /// Worker threads; <= 0 selects default_jobs().
  int jobs = 0;
  /// Optional durable tier (see store/result_store.hpp). Shared: several
  /// executors — or several processes — may point at one store directory.
  std::shared_ptr<store::ResultStore> store;
};

class ParallelExecutor {
 public:
  explicit ParallelExecutor(ExecutorOptions options = {});
  ParallelExecutor(const ParallelExecutor&) = delete;
  ParallelExecutor& operator=(const ParallelExecutor&) = delete;
  /// Drains any still-queued jobs, then joins the workers.
  ~ParallelExecutor();

  /// Enqueue a job; returns its submission index. Never blocks on the job
  /// (a disk-store lookup may perform one small file read).
  std::size_t submit(SimJob job);

  /// Result of submission `index`; blocks until that job has finished and
  /// re-throws its exception if it failed. The reference stays valid for
  /// the executor's lifetime.
  const core::RunResult& result(std::size_t index);

  /// Block until every submitted job has finished (does not re-throw; use
  /// result() to observe failures).
  void wait_all();

  /// Worker thread count.
  int jobs() const noexcept { return static_cast<int>(workers_.size()); }

  /// The durable tier, when one is attached.
  const std::shared_ptr<store::ResultStore>& store() const noexcept {
    return store_;
  }

  // Counters (monotonic; safe to read while jobs are in flight).
  std::uint64_t jobs_submitted() const;
  /// Jobs that actually built and ran an engine.
  std::uint64_t engines_run() const;
  /// Jobs served without running an engine: memo and disk-store hits plus
  /// in-flight coalescing onto an identical queued/running job.
  std::uint64_t cache_hits() const;
  /// Cacheable jobs that found no prior result anywhere and ran an engine.
  std::uint64_t cache_misses() const;
  /// The in-flight-coalesce share of cache_hits().
  std::uint64_t coalesced() const;
  /// The disk-store share of cache_hits().
  std::uint64_t store_hits() const;
  /// Total wall-clock nanoseconds workers spent inside run_sim_job.
  std::uint64_t run_ns_total() const;
  /// Wall-clock nanoseconds job `index` spent in run_sim_job (0 for cache
  /// hits, coalesced jobs, and jobs still in flight). Requires index <
  /// jobs_submitted().
  std::uint64_t run_ns(std::size_t index) const;

  /// Dump executor counters into `metrics` under the exec.* namespace
  /// (plus the attached store's store.* counters, when one is set).
  void collect_metrics(trace::MetricsRegistry& metrics) const;

 private:
  struct Slot {
    SimJob job;
    std::string key;  // empty: uncacheable
    bool done = false;
    core::RunResult result;
    std::exception_ptr error;
    std::uint64_t run_ns = 0;  // wall time inside run_sim_job
  };

  void worker_loop();
  void finish_slot(Slot& slot, const core::RunResult& result,
                   std::exception_ptr error);
  /// Finish the in-flight primary `index` plus every coalesced alias, and
  /// memoize the result. Caller holds mutex_.
  void complete_primary_locked(std::size_t index,
                               const core::RunResult& result,
                               std::exception_ptr error);

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   // workers wait for queue items
  std::condition_variable done_cv_;   // result()/wait_all() wait here
  // unique_ptr keeps Slot addresses stable across slots_ growth, so
  // result() can hand out references while submissions continue.
  std::vector<std::unique_ptr<Slot>> slots_;
  std::deque<std::size_t> queue_;
  // Memo: key -> result of every job that completed without error.
  std::unordered_map<std::string, core::RunResult> cache_;
  // key -> submission indices coalesced onto the in-flight primary job.
  std::unordered_map<std::string, std::vector<std::size_t>> inflight_;
  std::shared_ptr<store::ResultStore> store_;
  std::vector<std::thread> workers_;
  std::size_t outstanding_ = 0;  // submitted, not yet done
  bool stop_ = false;
  std::uint64_t engines_run_ = 0;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;
  std::uint64_t coalesced_ = 0;
  std::uint64_t store_hits_ = 0;
  std::uint64_t run_ns_total_ = 0;
};

}  // namespace hs::exec
