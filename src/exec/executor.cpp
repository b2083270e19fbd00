#include "exec/executor.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include "common/check.hpp"

namespace hs::exec {

int default_jobs() {
  const unsigned hint = std::thread::hardware_concurrency();
  return hint == 0 ? 1 : static_cast<int>(hint);
}

ParallelExecutor::ParallelExecutor(ExecutorOptions options)
    : store_(std::move(options.store)) {
  const int jobs = options.jobs > 0 ? options.jobs : default_jobs();
  workers_.reserve(static_cast<std::size_t>(jobs));
  for (int i = 0; i < jobs; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ParallelExecutor::~ParallelExecutor() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

std::size_t ParallelExecutor::submit(SimJob job) {
  // The key is a pure function of the job; build it before locking.
  std::string key = job.cache_key();
  std::size_t index;
  bool consult_store = false;
  {
    std::lock_guard lock(mutex_);
    index = slots_.size();
    auto slot = std::make_unique<Slot>();
    slot->job = std::move(job);
    slot->key = key;

    if (!slot->key.empty()) {
      if (auto hit = cache_.find(slot->key); hit != cache_.end()) {
        // Memory hit: the slot is born done, no engine runs.
        slot->done = true;
        slot->result = hit->second;
        ++cache_hits_;
        slots_.push_back(std::move(slot));
        done_cv_.notify_all();
        return index;
      }
      if (auto running = inflight_.find(slot->key);
          running != inflight_.end()) {
        // An identical job is queued, running, or mid-store-lookup:
        // coalesce onto it. The slot is filled when the primary completes.
        running->second.push_back(index);
        ++cache_hits_;
        ++coalesced_;
        ++outstanding_;
        slots_.push_back(std::move(slot));
        return index;
      }
      // This submission is the in-flight primary for its key from here on:
      // concurrent identical submits coalesce onto it even while the disk
      // lookup below is still in progress.
      inflight_.emplace(slot->key, std::vector<std::size_t>{});
      if (store_ != nullptr) {
        slots_.push_back(std::move(slot));
        ++outstanding_;
        consult_store = true;
      } else {
        ++cache_misses_;
        slots_.push_back(std::move(slot));
        queue_.push_back(index);
        ++outstanding_;
      }
    } else {
      slots_.push_back(std::move(slot));
      queue_.push_back(index);
      ++outstanding_;
    }
  }
  if (!consult_store) {
    work_cv_.notify_one();
    return index;
  }

  // Durable-tier consult, outside the executor lock — one small file read
  // must never serialize the worker pool. `key` is the local copy: slots_
  // may reallocate while we are unlocked.
  std::optional<core::RunResult> hit = store_->load(key);
  {
    std::lock_guard lock(mutex_);
    if (hit.has_value()) {
      ++cache_hits_;
      ++store_hits_;
      complete_primary_locked(index, *hit, nullptr);
    } else {
      ++cache_misses_;
      queue_.push_back(index);
    }
  }
  if (hit.has_value())
    done_cv_.notify_all();
  else
    work_cv_.notify_one();
  return index;
}

void ParallelExecutor::worker_loop() {
  for (;;) {
    std::size_t index;
    SimJob job;
    std::string key;
    {
      std::unique_lock lock(mutex_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      // Drain the queue even when stopping: every submitted job completes.
      if (queue_.empty()) return;
      index = queue_.front();
      queue_.pop_front();
      job = slots_[index]->job;  // copies: run outside the lock
      key = slots_[index]->key;
    }

    core::RunResult result{};
    std::exception_ptr error;
    const auto run_start = std::chrono::steady_clock::now();
    try {
      result = run_sim_job(job);
    } catch (...) {
      error = std::current_exception();
    }
    const auto run_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - run_start)
            .count());

    // Publish to the durable tier BEFORE marking the slot done: once any
    // waiter (result()/wait_all(), and therefore a fresh executor on the
    // same store root) can observe the result, it is already on disk. The
    // store locks itself; a concurrent identical submit coalesces onto
    // this still-in-flight primary, so nobody re-runs during the write.
    if (!error && store_ != nullptr && !key.empty()) store_->save(key, result);

    {
      std::lock_guard lock(mutex_);
      ++engines_run_;
      run_ns_total_ += run_ns;
      slots_[index]->run_ns = run_ns;
      complete_primary_locked(index, result, error);
    }
    done_cv_.notify_all();
  }
}

void ParallelExecutor::complete_primary_locked(std::size_t index,
                                               const core::RunResult& result,
                                               std::exception_ptr error) {
  Slot& primary = *slots_[index];
  finish_slot(primary, result, error);
  if (primary.key.empty()) return;
  // Fill every coalesced duplicate; errors propagate to them too but are
  // never cached (a resubmission after failure runs again).
  if (auto running = inflight_.find(primary.key); running != inflight_.end()) {
    for (std::size_t alias : running->second)
      finish_slot(*slots_[alias], result, error);
    inflight_.erase(running);
  }
  if (!error) cache_.emplace(primary.key, result);
}

void ParallelExecutor::finish_slot(Slot& slot, const core::RunResult& result,
                                   std::exception_ptr error) {
  slot.result = result;
  slot.error = error;
  slot.done = true;
  HS_ASSERT(outstanding_ > 0);
  --outstanding_;
}

const core::RunResult& ParallelExecutor::result(std::size_t index) {
  std::unique_lock lock(mutex_);
  HS_REQUIRE_MSG(index < slots_.size(),
                 "result(" << index << ") out of range; " << slots_.size()
                           << " jobs submitted");
  Slot& slot = *slots_[index];
  done_cv_.wait(lock, [&slot] { return slot.done; });
  if (slot.error) std::rethrow_exception(slot.error);
  return slot.result;
}

void ParallelExecutor::wait_all() {
  std::unique_lock lock(mutex_);
  done_cv_.wait(lock, [this] { return outstanding_ == 0; });
}

std::uint64_t ParallelExecutor::jobs_submitted() const {
  std::lock_guard lock(mutex_);
  return static_cast<std::uint64_t>(slots_.size());
}

std::uint64_t ParallelExecutor::engines_run() const {
  std::lock_guard lock(mutex_);
  return engines_run_;
}

std::uint64_t ParallelExecutor::cache_hits() const {
  std::lock_guard lock(mutex_);
  return cache_hits_;
}

std::uint64_t ParallelExecutor::cache_misses() const {
  std::lock_guard lock(mutex_);
  return cache_misses_;
}

std::uint64_t ParallelExecutor::coalesced() const {
  std::lock_guard lock(mutex_);
  return coalesced_;
}

std::uint64_t ParallelExecutor::store_hits() const {
  std::lock_guard lock(mutex_);
  return store_hits_;
}

std::uint64_t ParallelExecutor::run_ns_total() const {
  std::lock_guard lock(mutex_);
  return run_ns_total_;
}

std::uint64_t ParallelExecutor::run_ns(std::size_t index) const {
  std::lock_guard lock(mutex_);
  HS_REQUIRE_MSG(index < slots_.size(),
                 "run_ns(" << index << ") out of range; " << slots_.size()
                           << " jobs submitted");
  return slots_[index]->run_ns;
}

void ParallelExecutor::collect_metrics(trace::MetricsRegistry& metrics) const {
  {
    std::lock_guard lock(mutex_);
    metrics.add_counter("exec.jobs_submitted",
                        static_cast<std::uint64_t>(slots_.size()));
    metrics.add_counter("exec.engines_run", engines_run_);
    metrics.add_counter("exec.cache_hits", cache_hits_);
    metrics.add_counter("exec.cache_misses", cache_misses_);
    metrics.add_counter("exec.inflight_coalesced", coalesced_);
    metrics.add_counter("exec.store_hits", store_hits_);
    metrics.add_counter("exec.run_ns_total", run_ns_total_);
    std::uint64_t run_ns_max = 0;
    for (const auto& slot : slots_)
      run_ns_max = std::max(run_ns_max, slot->run_ns);
    metrics.add_counter("exec.run_ns_max", run_ns_max);
    metrics.set_gauge("exec.workers", static_cast<double>(workers_.size()));
  }
  if (store_ != nullptr) store_->collect_metrics(metrics);
}

}  // namespace hs::exec
