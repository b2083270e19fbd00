// Discrete-event simulation engine.
//
// The Engine owns a virtual clock and a time-ordered event queue of
// coroutine handles. Simulated processes are coroutines (desim::Task) that
// suspend on `sleep_until` / `sleep` / `Gate::wait` awaitables; the engine
// resumes them in (time, FIFO-sequence) order, so simulations are exactly
// deterministic and independent of host scheduling.
//
// Ties are broken by insertion sequence: two events at the same virtual time
// run in the order they were scheduled. `run()` drives the queue to
// exhaustion; if any spawned process is still suspended afterwards, the
// simulation has deadlocked (e.g. a recv with no matching send) and run()
// throws DeadlockError naming the stuck processes. A process that throws
// aborts the whole run and its exception is re-thrown from run().
//
// Hot-path layout (see DESIGN.md "Performance & benchmarking"): the event
// queue is a hand-sifted 8-ary min-heap over a flat, reserved vector (no
// per-event allocation, no std::priority_queue indirection), with an O(1)
// FIFO side-queue for the common "resume at the current time" case (gates
// fired at `now`, zero-latency forks) and same-timestamp coalescing
// buckets for the bursts of bit-identical future times that synchronized
// ranks generate. All structures pop in exactly (time, seq) order, so the
// schedule is bit-for-bit identical to a single totally-ordered queue —
// asserted against seed-engine goldens by tests/desim/test_determinism.cpp.
// Coroutine frames (including the per-process supervise wrappers) are
// recycled through desim::FramePool.
#pragma once

#include <coroutine>
#include <cstdint>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/stats.hpp"
#include "desim/task.hpp"

namespace hs::desim {

using SimTime = double;

/// Thrown by Engine::run when the event queue drains while spawned
/// processes are still suspended.
class DeadlockError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current virtual time (the timestamp of the event being processed).
  SimTime now() const noexcept { return now_; }

  /// Register a top-level process starting at the current virtual time.
  /// `name` is used in deadlock diagnostics.
  void spawn(Task<void> task, std::string name = {}) {
    spawn_at(now_, std::move(task), std::move(name));
  }

  /// Register a top-level process starting at virtual time `start` (>= now).
  void spawn_at(SimTime start, Task<void> task, std::string name = {});

  /// Register a top-level process named "<prefix> rank <index>" without
  /// materializing the string. Large runs spawn one process per rank
  /// (2^20 at the scale frontier); storing a composed std::string per rank
  /// costs a heap allocation and ~48 bytes each, while the diagnostics
  /// that need the name (deadlock reports) fire at most once per run. The
  /// prefix is interned — records store a small id + the rank index — and
  /// the full name is composed only inside error paths.
  void spawn_indexed(Task<void> task, std::string_view prefix, int index);

  /// Run until the event queue is empty. Re-throws the first process
  /// exception; throws DeadlockError if processes remain suspended.
  ///
  /// Thread affinity: the first run() pins the engine to the calling
  /// thread, and every later run() must come from that same thread. The
  /// coroutine frames, Async states and collective bookkeeping an
  /// engine drives are all recycled through the *thread-local* desim
  /// FramePool; resuming them from another thread would silently migrate
  /// memory between per-thread pools, so cross-thread misuse fails loudly
  /// here instead (one thread-id compare per run() — not per event).
  void run();

  /// Total events processed so far (exposed for engine micro-benchmarks).
  std::uint64_t events_processed() const noexcept { return events_processed_; }

  /// Peak simultaneous population of the timed event heap (the now-queue
  /// and coalescing buckets are excluded). Exposed for metrics harvesting.
  std::size_t heap_peak() const noexcept { return heap_peak_; }

  /// Timed-heap population sampled every 256 processed events — the
  /// distribution behind heap_peak(), harvested into the desim.queue_depth
  /// histogram. Sampling keeps the cost off the per-event hot path; the
  /// stride is a power of two so the sample set is deterministic.
  const hs::Histogram& queue_depth_histogram() const noexcept {
    return queue_depth_;
  }

  /// Pre-size internal storage: `processes` further top-level spawns and a
  /// peak in-flight event population of `pending_events`. Purely a
  /// reallocation-avoidance hint; safe to skip or under-estimate.
  void reserve(std::size_t processes, std::size_t pending_events) {
    records_.reserve(records_.size() + processes);
    supervisors_.reserve(supervisors_.size() + processes);
    if (heap_.capacity() < pending_events) heap_.reserve(pending_events);
  }

  /// Schedule a raw handle (used by awaitables and by Gate).
  void schedule_at(SimTime time, std::coroutine_handle<> handle);

  /// Awaitable: resume at absolute virtual time `time` (>= now).
  auto sleep_until(SimTime time) {
    struct Awaiter {
      Engine* engine;
      SimTime time;
      bool await_ready() const noexcept { return time <= engine->now(); }
      void await_suspend(std::coroutine_handle<> handle) const {
        engine->schedule_at(time, handle);
      }
      void await_resume() const noexcept {}
    };
    HS_REQUIRE_MSG(time >= now_, "sleep_until into the past: t=" << time
                                                                 << " now=" << now_);
    return Awaiter{this, time};
  }

  /// Awaitable: resume after `duration` virtual seconds.
  auto sleep(SimTime duration) {
    HS_REQUIRE_MSG(duration >= 0.0, "negative sleep " << duration);
    return sleep_until(now_ + duration);
  }

 private:
  struct Event {
    SimTime time;
    // High 48 bits: scheduling sequence number. Low 16 bits: index + 1 of
    // the coalescing bucket hanging off this entry (0 = none). Packing
    // keeps Event at 24 bytes — sift cost is cache-bound — and since seqs
    // are unique, comparing the packed word compares seqs.
    std::uint64_t seq_bucket;
    std::coroutine_handle<> handle;
  };
  static constexpr int kSeqShift = 16;
  static constexpr std::uint64_t kBucketMask = 0xFFFF;

  static bool event_before(const Event& a, const Event& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.seq_bucket < b.seq_bucket;
  }

  // 8-ary implicit heap: fewer levels (and so fewer serially dependent
  // cache misses) per sift than binary, at the cost of more comparisons per
  // level — the right trade when the event frontier dwarfs L1 (16384 ranks
  // => ~16k queued events) and compares are cheap relative to line fetches.
  static constexpr std::size_t kHeapArity = 8;

  struct ProcessRecord {
    std::string name;            // empty when (prefix_id, index) names it
    std::int32_t prefix_id = -1; // into name_prefixes_, -1 = use `name`
    std::int32_t index = -1;
    bool done = false;
  };
  /// The record's display name (deadlock diagnostics only).
  std::string record_name(const ProcessRecord& record) const;

  // Wraps a user task so completion and failure are recorded in O(1)
  // without scanning all processes per event. A finished process's slot
  // (its record, supervisor Task and supervise frame) goes to free_slots_
  // and serves the next spawn, so a run that forks a task per step holds
  // slots for its live processes only.
  Task<void> supervise(Task<void> inner, std::size_t index);
  /// Supervises `task` in a free slot (or a new one) and schedules it.
  void start_process(SimTime start, Task<void> task, ProcessRecord record);

  // Same-timestamp coalescing: simulated workloads are heavily
  // time-synchronized (a collective completion fires every participant's
  // gate at one instant; lock-stepped ranks all sleep until the same next
  // step time), so the heap would otherwise absorb thousands of entries
  // with bit-identical times. Consecutive pushes at the same time instead
  // append to a Bucket hanging off a single heap entry; the bucket drains
  // one handle per pop, so event accounting and (time, seq) order are
  // unchanged. Correctness argument: appends to a bucket carry strictly
  // increasing seqs, appends stop forever once any other time is pushed
  // (the cache moves on), and any later same-time entry therefore has a
  // first seq larger than everything in the bucket — so "whole bucket
  // before that entry" is exactly (time, seq) order.
  struct Bucket {
    std::vector<std::coroutine_handle<>> handles;
    std::size_t head = 0;
    std::int32_t next_free = -1;
  };

  /// A free bucket index in [0, kBucketMask - 1], or -1 if the index space
  /// is exhausted (the caller then pushes a standalone entry, which is
  /// merely slower, never wrong).
  std::int32_t bucket_alloc();
  void bucket_free(std::int32_t index);
  void bucket_reset() {
    bucket_pool_.clear();
    bucket_free_head_ = -1;
    draining_ = -1;
    cache_valid_ = false;
    cache_bucket_ = -1;
  }

  void heap_push(const Event& event);
  Event heap_pop();
  /// The globally next event in (time, seq) order, drawn from whichever of
  /// the draining bucket, the heap, and the now-queue holds it.
  Event pop_next();
  bool queues_empty() const noexcept {
    return heap_.empty() && now_head_ == now_queue_.size() && draining_ < 0;
  }
  void drop_pending_events() {
    heap_.clear();
    now_queue_.clear();
    now_head_ = 0;
    bucket_reset();
  }

  // kHeapArity-ary min-heap over a flat vector, ordered by (time, seq).
  std::vector<Event> heap_;
  // O(1) fast path: events scheduled at exactly `now_` while running are
  // appended here (their seqs are necessarily increasing, so the queue is
  // FIFO-sorted by construction) and consumed before later heap entries.
  std::vector<Event> now_queue_;
  std::size_t now_head_ = 0;
  // Coalescing buckets (free-listed so handle vectors keep their capacity).
  std::vector<Bucket> bucket_pool_;
  std::int32_t bucket_free_head_ = -1;
  // Bucket currently being drained by pop_next, or -1. Its handles are
  // globally next: their seqs precede any later same-time heap entry and
  // any now-queue entry created during the drain.
  std::int32_t draining_ = -1;
  // Push cache: the time of the most recent heap push, and the bucket
  // collecting that time's handles (-1 until a second same-time push).
  SimTime cache_time_ = 0.0;
  std::int32_t cache_bucket_ = -1;
  bool cache_valid_ = false;
  std::vector<ProcessRecord> records_;
  std::vector<std::string> name_prefixes_;  // interned spawn_indexed prefixes
  std::vector<Task<void>> supervisors_;
  std::vector<std::size_t> free_slots_;  // finished processes' slots
  std::exception_ptr failure_;
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::size_t heap_peak_ = 0;
  hs::Histogram queue_depth_;
  bool running_ = false;
  // Owning thread, recorded at the first run(); default-constructed id
  // means "not pinned yet".
  std::thread::id owner_;
};

/// One-shot synchronization point between simulated processes.
///
/// Exactly one process may wait on a Gate; another process fires it with a
/// completion time, at which the waiter resumes. This is the primitive the
/// message-passing layer builds rendezvous matching from: whichever side of
/// a send/recv pair arrives second computes the transfer completion time and
/// fires the first side's gate.
class Gate {
 public:
  explicit Gate(Engine& engine) : engine_(&engine) {}
  Gate(const Gate&) = delete;
  Gate& operator=(const Gate&) = delete;
  // Gates are pinned: pending waiters hold `this`.
  Gate(Gate&&) = delete;
  Gate& operator=(Gate&&) = delete;

  bool fired() const noexcept { return fired_; }

  /// The virtual time passed to fire_at; meaningful only once fired().
  SimTime fire_time() const noexcept { return fire_time_; }

  /// Fire the gate: the (current or future) waiter resumes at virtual time
  /// `time` (>= now). A gate can fire at most once.
  void fire_at(SimTime time);

  /// Park `handle` as the gate's waiter without going through the awaitable
  /// machinery. Used by mpc's blocking send/recv awaiter, which posts its
  /// op and parks in one await_suspend.
  void attach_waiter(std::coroutine_handle<> handle) {
    HS_REQUIRE_MSG(!fired_, "attach_waiter on a fired Gate");
    HS_REQUIRE_MSG(!waiter_, "Gate supports a single waiter");
    waiter_ = handle;
  }

  /// Awaitable: suspend until the gate has fired *and* its fire time has
  /// been reached.
  auto wait() {
    struct Awaiter {
      Gate* gate;
      bool await_ready() const noexcept {
        return gate->fired_ && gate->fire_time_ <= gate->engine_->now();
      }
      void await_suspend(std::coroutine_handle<> handle) {
        if (gate->fired_) {
          gate->engine_->schedule_at(gate->fire_time_, handle);
        } else {
          HS_REQUIRE_MSG(!gate->waiter_, "Gate supports a single waiter");
          gate->waiter_ = handle;
        }
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

 private:
  Engine* engine_;
  std::coroutine_handle<> waiter_;
  SimTime fire_time_ = 0.0;
  bool fired_ = false;
};

/// Fork/join concurrency *within* a simulated process.
///
/// Async::start schedules a task to run concurrently with its parent (at
/// the current virtual time); `co_await async.wait()` joins it. This is
/// what communication/computation overlap is built from: a rank forks the
/// next step's broadcasts, computes the current step, then joins.
///
/// An Async must be joined (or known complete) before destruction — a
/// dropped Async leaves the forked task running, which the engine then
/// reports as usual (completion, failure, or deadlock).
class Async {
 public:
  Async() = default;

  static Async start(Engine& engine, Task<void> task, std::string name = {}) {
    Async async;
    async.state_ = std::make_unique<State>(engine);
    engine.spawn(wrap(std::move(task), async.state_.get(), &engine),
                 std::move(name));
    return async;
  }

  bool valid() const noexcept { return state_ != nullptr; }
  bool complete() const noexcept { return state_ && state_->gate.fired(); }

  /// Awaitable: resumes when the forked task has finished.
  auto wait() {
    HS_REQUIRE_MSG(state_ != nullptr, "waiting on an empty Async");
    return state_->gate.wait();
  }

 private:
  struct State {
    explicit State(Engine& engine) : gate(engine) {}
    // Overlap schedules fork one Async per step per rank; recycle states.
    static void* operator new(std::size_t size) {
      return FramePool::allocate(size);
    }
    static void operator delete(void* ptr, std::size_t size) noexcept {
      FramePool::deallocate(ptr, size);
    }
    Gate gate;
  };

  static Task<void> wrap(Task<void> inner, State* state, Engine* engine) {
    co_await std::move(inner);
    state->gate.fire_at(engine->now());
  }

  std::unique_ptr<State> state_;
};

}  // namespace hs::desim
