#include "desim/engine.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

namespace hs::desim {

Task<void> Engine::supervise(Task<void> inner, std::size_t index) {
  try {
    // A coroutine's parameters live as long as its frame, and supervisors_
    // keeps this frame until its slot serves another spawn. The task moves
    // into a local so its frame (and every frame it owns, such as a forked
    // broadcast's) is freed the moment it finishes.
    Task<void> task = std::move(inner);
    co_await std::move(task);
  } catch (...) {
    if (!failure_) failure_ = std::current_exception();
  }
  records_[index].done = true;
  free_slots_.push_back(index);
}

void Engine::start_process(SimTime start, Task<void> task,
                           ProcessRecord record) {
  std::size_t index = records_.size();
  if (free_slots_.empty()) {
    records_.push_back(std::move(record));
    supervisors_.emplace_back();
  } else {
    // A finished process's slot: its supervise frame sits at its final
    // suspend point, so dropping it first lets the next frame reuse its
    // pool block.
    index = free_slots_.back();
    free_slots_.pop_back();
    records_[index] = std::move(record);
    supervisors_[index] = Task<void>{};
  }
  supervisors_[index] = supervise(std::move(task), index);
  schedule_at(start, supervisors_[index].raw_handle());
}

void Engine::spawn_at(SimTime start, Task<void> task, std::string name) {
  HS_REQUIRE(task.valid());
  HS_REQUIRE_MSG(start >= now_, "spawn in the past");
  start_process(start, std::move(task), {std::move(name), -1, -1, false});
}

void Engine::spawn_indexed(Task<void> task, std::string_view prefix,
                           int index) {
  HS_REQUIRE(task.valid());
  // Interned prefixes are few (one per kernel per run); linear scan.
  std::int32_t prefix_id = -1;
  for (std::size_t i = 0; i < name_prefixes_.size(); ++i)
    if (name_prefixes_[i] == prefix) {
      prefix_id = static_cast<std::int32_t>(i);
      break;
    }
  if (prefix_id < 0) {
    prefix_id = static_cast<std::int32_t>(name_prefixes_.size());
    name_prefixes_.emplace_back(prefix);
  }
  start_process(now_, std::move(task),
                {std::string{}, prefix_id, index, false});
}

std::string Engine::record_name(const ProcessRecord& record) const {
  if (record.prefix_id >= 0) {
    const std::string& prefix =
        name_prefixes_[static_cast<std::size_t>(record.prefix_id)];
    const std::string rank = "rank " + std::to_string(record.index);
    return prefix.empty() ? rank : prefix + " " + rank;
  }
  return record.name;
}

void Engine::schedule_at(SimTime time, std::coroutine_handle<> handle) {
  HS_REQUIRE(handle != nullptr);
  HS_REQUIRE_MSG(time >= now_,
                 "schedule_at into the past: t=" << time << " now=" << now_);
  const std::uint64_t seq = next_seq_++ << kSeqShift;
  // Fast path: an event at the current time (fired gate, zero-latency fork)
  // necessarily sorts after everything already consumed and after all
  // earlier now-queue entries (its seq is the largest yet issued), so a
  // FIFO append preserves the global (time, seq) order exactly.
  if (running_ && time == now_) {
    now_queue_.push_back({time, seq, handle});
    return;
  }
  // Coalescing path: a push at the exact time of the previous push joins
  // that time's bucket instead of becoming its own heap entry. Bucket
  // appends are in seq order by construction, and the cache is abandoned
  // (never revisited) as soon as a different time is pushed, so a bucket
  // holds a seq-contiguous run — draining it front-to-back before any later
  // entry reproduces (time, seq) order exactly.
  if (cache_valid_ && time == cache_time_) {
    if (cache_bucket_ >= 0) {
      bucket_pool_[static_cast<std::size_t>(cache_bucket_)]
          .handles.push_back(handle);
      return;
    }
    // Second consecutive push at this time: open a bucket on this event
    // (the first push stays a standalone entry with a smaller seq).
    const std::int32_t bucket = bucket_alloc();
    if (bucket >= 0) {
      cache_bucket_ = bucket;
      heap_push({time, seq | static_cast<std::uint64_t>(bucket + 1), handle});
      return;
    }
    // Bucket index space exhausted: this entry stays standalone, and the
    // cache must stop collecting this time (later appends would sort
    // behind this entry's seq).
    cache_valid_ = false;
    heap_push({time, seq, handle});
    return;
  }
  cache_valid_ = true;
  cache_time_ = time;
  cache_bucket_ = -1;
  heap_push({time, seq, handle});
}

std::int32_t Engine::bucket_alloc() {
  if (bucket_free_head_ >= 0) {
    const std::int32_t index = bucket_free_head_;
    Bucket& bucket = bucket_pool_[static_cast<std::size_t>(index)];
    bucket_free_head_ = bucket.next_free;
    bucket.next_free = -1;
    return index;
  }
  if (bucket_pool_.size() >= kBucketMask) return -1;
  bucket_pool_.emplace_back();
  return static_cast<std::int32_t>(bucket_pool_.size() - 1);
}

void Engine::bucket_free(std::int32_t index) {
  Bucket& bucket = bucket_pool_[static_cast<std::size_t>(index)];
  bucket.handles.clear();
  bucket.head = 0;
  bucket.next_free = bucket_free_head_;
  bucket_free_head_ = index;
  if (cache_bucket_ == index) {
    cache_valid_ = false;
    cache_bucket_ = -1;
  }
}

// The heap is kHeapArity-ary (children of i at A*i+1..A*i+A): against a
// binary heap this divides the number of levels a sift touches by log2(A),
// and a 16384-event frontier is far larger than L1, so pop cost is
// dominated by per-level cache misses, not comparisons. Sifts move a
// "hole" instead of swapping (one store per level instead of three).

void Engine::heap_push(const Event& event) {
  heap_.push_back(event);
  if (heap_.size() > heap_peak_) heap_peak_ = heap_.size();
  std::size_t hole = heap_.size() - 1;
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / kHeapArity;
    if (!event_before(event, heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = event;
}

Engine::Event Engine::heap_pop() {
  HS_ASSERT(!heap_.empty());
  const Event top = heap_.front();
  const Event last = heap_.back();
  heap_.pop_back();
  const std::size_t size = heap_.size();
  if (size > 0) {
    // Sift the former last element down from the root hole.
    std::size_t hole = 0;
    for (;;) {
      const std::size_t first_child = kHeapArity * hole + 1;
      if (first_child >= size) break;
      const std::size_t limit = std::min(first_child + kHeapArity, size);
      std::size_t best = first_child;
      for (std::size_t child = first_child + 1; child < limit; ++child)
        if (event_before(heap_[child], heap_[best])) best = child;
      if (!event_before(heap_[best], last)) break;
      heap_[hole] = heap_[best];
      hole = best;
    }
    heap_[hole] = last;
  }
  return top;
}

Engine::Event Engine::pop_next() {
  // A draining bucket is globally next: its handles' seqs precede any later
  // same-time heap entry (appends to it ceased before that entry was
  // pushed) and any now-queue entry (those were sequenced during the
  // drain, i.e. later).
  if (draining_ >= 0) {
    Bucket& bucket = bucket_pool_[static_cast<std::size_t>(draining_)];
    const Event event{now_, 0, bucket.handles[bucket.head++]};
    if (bucket.head == bucket.handles.size()) {
      const std::int32_t done = draining_;
      draining_ = -1;
      bucket_free(done);
    }
    return event;
  }
  // The now-queue holds only events with time == now_ in increasing seq
  // order; the heap may still hold an equal-time event with a *smaller*
  // seq (scheduled before now_ was reached), so compare fronts.
  if (now_head_ < now_queue_.size()) {
    const Event fast = now_queue_[now_head_];
    if (heap_.empty() || !event_before(heap_.front(), fast)) {
      ++now_head_;
      if (now_head_ == now_queue_.size()) {
        now_queue_.clear();
        now_head_ = 0;
      } else {
        // The queue is FIFO; start fetching the next frame's header now.
        __builtin_prefetch(now_queue_[now_head_].handle.address());
      }
      return fast;
    }
  }
  Event event = heap_pop();
  const std::int32_t index =
      static_cast<std::int32_t>(event.seq_bucket & kBucketMask) - 1;
  if (index >= 0) {
    const Bucket& bucket = bucket_pool_[static_cast<std::size_t>(index)];
    if (bucket.head < bucket.handles.size()) {
      draining_ = index;
    } else {
      bucket_free(index);
    }
  }
  return event;
}

void Engine::run() {
  HS_REQUIRE_MSG(!running_, "Engine::run is not reentrant");
  if (owner_ == std::thread::id{}) {
    owner_ = std::this_thread::get_id();
  } else {
    HS_REQUIRE_MSG(owner_ == std::this_thread::get_id(),
                   "Engine::run called from a different thread than the one "
                   "that first ran this engine; engines are pinned to one "
                   "thread (their coroutine frames live in that thread's "
                   "desim::FramePool)");
  }
  running_ = true;
  for (;;) {
    if (failure_ || queues_empty()) break;
    Event event = pop_next();
    HS_ASSERT(event.time >= now_);
    now_ = event.time;
    ++events_processed_;
    if ((events_processed_ & 255u) == 0)
      queue_depth_.add(static_cast<double>(heap_.size()));
    event.handle.resume();
    // Batched same-timestamp delivery: when the popped event opened a
    // coalescing bucket, every handle in it is globally next (same time,
    // contiguous seqs — see pop_next), so the per-event queue checks above
    // are provably no-ops. Drain the bucket in a tight loop instead of
    // going around the full loop per handle — this is the collective-
    // completion fan-out path, where one instant resumes thousands of ranks.
    while (draining_ >= 0 && !failure_) {
      Bucket& bucket = bucket_pool_[static_cast<std::size_t>(draining_)];
      const std::coroutine_handle<> handle = bucket.handles[bucket.head++];
      // The fan-out's frames are cold (thousands of ranks parked for one
      // completion instant); the drain order is already known, so pull the
      // next frames' headers toward cache while this one runs.
      if (bucket.head + 3 < bucket.handles.size())
        __builtin_prefetch(bucket.handles[bucket.head + 3].address());
      if (bucket.head == bucket.handles.size()) {
        const std::int32_t done = draining_;
        draining_ = -1;
        bucket_free(done);
      }
      ++events_processed_;
      if ((events_processed_ & 255u) == 0)
        queue_depth_.add(static_cast<double>(heap_.size()));
      handle.resume();
    }
  }
  running_ = false;

  if (failure_) {
    // Drop remaining events; suspended coroutine frames are reclaimed when
    // their owning Task objects (supervisors_, and pending-op tasks held by
    // them) are destroyed with the engine.
    drop_pending_events();
    std::exception_ptr failure = failure_;
    failure_ = nullptr;
    std::rethrow_exception(failure);
  }

  std::ostringstream stuck;
  int stuck_count = 0;
  for (const auto& record : records_) {
    if (!record.done) {
      ++stuck_count;
      if (stuck_count > 1) stuck << ", ";
      if (stuck_count <= 8) {
        const std::string name = record_name(record);
        stuck << (name.empty() ? "<unnamed>" : name);
      }
    }
  }
  if (stuck_count > 0) {
    std::ostringstream message;
    message << "simulation deadlock: " << stuck_count
            << " process(es) still suspended after event queue drained: "
            << stuck.str();
    if (stuck_count > 8) message << ", ...";
    throw DeadlockError(message.str());
  }
}

void Gate::fire_at(SimTime time) {
  HS_REQUIRE_MSG(!fired_, "Gate fired twice");
  HS_REQUIRE_MSG(time >= engine_->now(), "Gate fired into the past");
  fired_ = true;
  fire_time_ = time;
  if (waiter_) {
    engine_->schedule_at(time, waiter_);
    waiter_ = nullptr;
  }
}

}  // namespace hs::desim
