#include "desim/taskgraph.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>

namespace hs::desim {

namespace {

void push_dep(std::vector<int>& deps, int dep, int self) {
  if (dep >= 0 && dep != self) deps.push_back(dep);
}

}  // namespace

int TaskGraph::add(TaskSpec spec, Body body, Hook before, Hook after) {
  const int id = size();
  // The region and after lists are resolved into deps here and never read
  // again, so they end with this call instead of living in the record.
  const std::vector<RegionId> in = std::move(spec.in);
  const std::vector<RegionId> out = std::move(spec.out);
  const std::vector<int> after_ids = std::move(spec.after);
  std::vector<int> deps;
  for (const int dep : after_ids) {
    HS_REQUIRE_MSG(dep >= 0 && dep < id,
                   "task " << id << ": after-edge on invalid task " << dep);
    deps.push_back(dep);
  }
  auto region = [this](RegionId key) -> RegionState& {
    for (auto& [region_key, state] : regions_)
      if (region_key == key) return state;
    return regions_.emplace_back(key, RegionState{}).second;
  };
  for (const RegionId r : in) {
    RegionState& state = region(r);
    push_dep(deps, state.last_writer, id);  // read-after-write
    state.readers.push_back(id);
  }
  for (const RegionId r : out) {
    RegionState& state = region(r);
    push_dep(deps, state.last_writer, id);  // write-after-write
    for (const int reader : state.readers)
      push_dep(deps, reader, id);  // write-after-read
    state.last_writer = id;
    state.readers.clear();
  }
  if (spec.kind == TaskKind::Comm && spec.channel >= 0) {
    bool known = false;
    for (auto& [channel, last] : channel_last_) {
      if (channel != spec.channel) continue;
      push_dep(deps, last, id);  // per-channel completion FIFO
      last = id;
      known = true;
      break;
    }
    if (!known) channel_last_.emplace_back(spec.channel, id);
  }
  std::sort(deps.begin(), deps.end());
  deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
  Record& record = tasks_.emplace_back();
  record.spec = std::move(spec);
  record.body = std::move(body);
  record.before = std::move(before);
  record.after = std::move(after);
  record.deps = std::move(deps);
  return id;
}

/// Drives one TaskGraph to completion. Lives for the duration of the
/// run_task_graph coroutine (which owns it by value via the frame).
class TaskGraphRunner {
 public:
  TaskGraphRunner(Engine& engine, TaskGraph& graph, TaskObserver* observer)
      : engine_(engine), graph_(graph), observer_(observer) {
    HS_REQUIRE_MSG(!graph.ran_,
                   "task graph already ran: its bodies run once, so build "
                   "a new graph for another run");
    graph.ran_ = true;
  }

  Task<void> run_inline() {
    const int n = graph_.size();
    for (int id = 0; id < n; ++id) {
      TaskGraph::Record& record = graph_.tasks_[static_cast<std::size_t>(id)];
      issue_marks(id);
      if (record.before) record.before();
      const SimTime t0 = engine_.now();
      if (observer_ != nullptr) observer_->task_started(graph_, id);
      co_await record.body();
      const SimTime t1 = engine_.now();
      if (record.after) record.after();
      if (observer_ != nullptr) {
        // Inline communication is fully exposed: the wait IS the span.
        if (record.spec.kind == TaskKind::Comm)
          observer_->task_waited(graph_, id, t0, t1);
        observer_->task_finished(graph_, id, t0, t1);
      }
    }
  }

  Task<void> run_overlapped() {
    index_graph();
    for (;;) {
      const int c = pick_compute();
      if (c < 0) break;
      if (state(c).pending != 0) {
        // Join phase: fork and await the compute's outstanding comm
        // dependencies in task order, forking newly enabled closure comms
        // at every join instant (this is where pipelined broadcasts of
        // later steps get issued while this step's are still in flight).
        comm_closure(c);
        while (state(c).pending != 0) {
          fork_ready(closure_);
          const int d = next_join(closure_);
          HS_REQUIRE_MSG(d >= 0, "task plan stalled awaiting deps of task "
                                     << c << " ('" << graph_.spec(c).label
                                     << "'): dependency cycle or a comm "
                                        "task gated on an unrun compute");
          co_await join(d);
        }
      }
      fork_ready_all();  // pre-compute fork point
      co_await run_compute(c);
      fork_ready_all();  // post-compute fork point
    }
    // Drain trailing communication (tasks no compute depends on).
    for (;;) {
      fork_ready_all();
      const int d = first_in_flight();
      if (d < 0) break;
      co_await join(d);
    }
    for (int id = 0; id < graph_.size(); ++id)
      HS_REQUIRE_MSG(state(id).complete,
                     "task " << id << " ('" << graph_.spec(id).label
                             << "') never became runnable (plan cycle?)");
  }

 private:
  struct State {
    int pending = 0;          // incomplete deps
    int pending_compute = 0;  // incomplete compute deps
    int priority = 0;         // the spec's, kept beside the counts
    bool compute = false;
    bool issued = false;  // comm forked, or compute picked
    bool complete = false;
    Async async;
  };

  /// Compute heap entry: the top is the best pick, (priority desc, id asc).
  struct Rank {
    int priority;
    int id;
    bool operator<(const Rank& other) const {
      return priority != other.priority ? priority < other.priority
                                        : id > other.id;
    }
  };
  using IdHeap = std::priority_queue<int, std::vector<int>, std::greater<>>;
  using RankHeap = std::priority_queue<Rank>;

  State& state(int id) { return state_[static_cast<std::size_t>(id)]; }
  TaskGraph::Record& record(int id) {
    return graph_.tasks_[static_cast<std::size_t>(id)];
  }
  const std::vector<int>& deps(int id) { return record(id).deps; }

  void issue_marks(int id) {
    if (observer_ != nullptr) observer_->task_issued(graph_, id);
  }

  /// Successor index (CSR, ascending ids), dependency counts and the
  /// initial ready sets.
  void index_graph() {
    const int n = graph_.size();
    state_ = std::vector<State>(static_cast<std::size_t>(n));
    visited_.assign(static_cast<std::size_t>(n), 0);
    succ_begin_.assign(static_cast<std::size_t>(n) + 1, 0);
    for (int id = 0; id < n; ++id) {
      State& st = state(id);
      st.compute = record(id).spec.kind == TaskKind::Compute;
      st.priority = record(id).spec.priority;
      st.pending = static_cast<int>(deps(id).size());
      for (const int dep : deps(id)) {
        ++succ_begin_[static_cast<std::size_t>(dep) + 1];
        if (state(dep).compute) ++st.pending_compute;
      }
    }
    for (int id = 0; id < n; ++id)
      succ_begin_[static_cast<std::size_t>(id) + 1] +=
          succ_begin_[static_cast<std::size_t>(id)];
    // Fill with succ_begin_[dep] as dep's cursor; each cursor ends on the
    // next task's start, so shifting by one restores the starts.
    succ_.resize(static_cast<std::size_t>(succ_begin_.back()));
    for (int id = 0; id < n; ++id)
      for (const int dep : deps(id))
        succ_[static_cast<std::size_t>(
            succ_begin_[static_cast<std::size_t>(dep)]++)] = id;
    for (int id = n; id > 0; --id)
      succ_begin_[static_cast<std::size_t>(id)] =
          succ_begin_[static_cast<std::size_t>(id) - 1];
    succ_begin_[0] = 0;
    for (int id = 0; id < n; ++id)
      file(id, state(id).pending == 0, state(id).pending_compute == 0);
  }

  /// Files `id` in the ready sets it has just entered: ready (no
  /// incomplete dep) and, for a compute, candidate (no incomplete compute
  /// dep).
  void file(int id, bool ready, bool candidate) {
    const State& st = state(id);
    if (!st.compute) {
      if (ready) ready_comms_.push(id);
      return;
    }
    if (ready) ready_computes_.push({st.priority, id});
    if (candidate) candidates_.push({st.priority, id});
  }

  /// Marks `id` complete and counts it off its successors; one that
  /// reaches zero enters a ready set.
  void complete(int id) {
    State& st = state(id);
    st.complete = true;
    const int begin = succ_begin_[static_cast<std::size_t>(id)];
    const int end = succ_begin_[static_cast<std::size_t>(id) + 1];
    for (int at = begin; at < end; ++at) {
      const int succ = succ_[static_cast<std::size_t>(at)];
      State& next = state(succ);
      const bool ready = --next.pending == 0;
      const bool candidate = st.compute && --next.pending_compute == 0;
      if (ready || candidate) file(succ, ready, candidate);
    }
  }

  /// Best next compute: the best ready one (all deps complete), else the
  /// best candidate (compute deps complete), each by (priority desc, id
  /// asc). Returns -1 when every compute has run. Entries of computes
  /// already picked are dropped as they surface.
  int pick_compute() {
    for (RankHeap* heap : {&ready_computes_, &candidates_}) {
      while (!heap->empty() && state(heap->top().id).issued) heap->pop();
      if (!heap->empty()) return heap->top().id;
    }
    return -1;
  }

  /// Incomplete comm tasks reachable backward from c's dependencies,
  /// sorted by id (= program order), into closure_.
  void comm_closure(int c) {
    ++epoch_;
    closure_.clear();
    stack_.assign(deps(c).begin(), deps(c).end());
    while (!stack_.empty()) {
      const int id = stack_.back();
      stack_.pop_back();
      std::uint32_t& seen = visited_[static_cast<std::size_t>(id)];
      if (seen == epoch_) continue;
      seen = epoch_;
      if (state(id).complete) continue;
      if (!state(id).compute) closure_.push_back(id);
      for (const int dep : deps(id)) stack_.push_back(dep);
    }
    std::sort(closure_.begin(), closure_.end());
  }

  void fork_comm(int id) {
    State& st = state(id);
    st.issued = true;
    TaskGraph::Record& rec = record(id);
    issue_marks(id);
    if (rec.before) rec.before();
    st.async = Async::start(engine_, timed_comm(this, id, rec.body()));
    in_flight_.push(id);
  }

  /// Fork every unissued comm task in `scope` whose deps are complete.
  /// Forking never completes anything, so one ordered pass suffices.
  void fork_ready(const std::vector<int>& scope) {
    for (const int id : scope)
      if (!state(id).issued && state(id).pending == 0) fork_comm(id);
  }

  /// Fork every ready comm in id order. Async::start only schedules the
  /// fork, so no task completes, and no comm turns ready, during the pass.
  void fork_ready_all() {
    while (!ready_comms_.empty()) {
      const int id = ready_comms_.top();
      ready_comms_.pop();
      if (!state(id).issued) fork_comm(id);
    }
  }

  /// First (program order) issued-but-incomplete comm in `scope`; -1 = none.
  int next_join(const std::vector<int>& scope) {
    for (const int id : scope)
      if (state(id).issued && !state(id).complete) return id;
    return -1;
  }

  /// Lowest-id comm still in flight; -1 = none.
  int first_in_flight() {
    while (!in_flight_.empty() && state(in_flight_.top()).complete)
      in_flight_.pop();
    return in_flight_.empty() ? -1 : in_flight_.top();
  }

  Task<void> join(int id) {
    const SimTime w0 = engine_.now();
    co_await state(id).async.wait();
    if (observer_ != nullptr)
      observer_->task_waited(graph_, id, w0, engine_.now());
  }

  Task<void> run_compute(int c) {
    TaskGraph::Record& rec = record(c);
    state(c).issued = true;
    issue_marks(c);
    if (rec.before) rec.before();
    const SimTime t0 = engine_.now();
    if (observer_ != nullptr) observer_->task_started(graph_, c);
    co_await rec.body();
    const SimTime t1 = engine_.now();
    complete(c);
    if (rec.after) rec.after();
    if (observer_ != nullptr) observer_->task_finished(graph_, c, t0, t1);
  }

  /// Wrapper the forked comm body runs inside: records the true transfer
  /// span and completes the task the instant the body finishes (the Async
  /// gate fires strictly after, so joiners always observe it complete).
  /// The body is lazy: co_await starts it by symmetric transfer, right
  /// after task_started.
  static Task<void> timed_comm(TaskGraphRunner* self, int id,
                               Task<void> body) {
    const SimTime t0 = self->engine_.now();
    if (self->observer_ != nullptr)
      self->observer_->task_started(self->graph_, id);
    co_await std::move(body);
    const SimTime t1 = self->engine_.now();
    self->complete(id);
    TaskGraph::Record& rec = self->record(id);
    if (rec.after) rec.after();
    if (self->observer_ != nullptr)
      self->observer_->task_finished(self->graph_, id, t0, t1);
  }

  Engine& engine_;
  TaskGraph& graph_;
  TaskObserver* observer_;
  std::vector<State> state_;
  std::vector<int> succ_begin_;  // CSR offsets into succ_, one per task + 1
  std::vector<int> succ_;
  IdHeap ready_comms_;  // deps complete, not yet forked
  RankHeap ready_computes_;  // deps complete
  RankHeap candidates_;      // compute deps complete
  IdHeap in_flight_;  // forked; the drain drops complete ones on top
  // comm_closure's scratch: a task is visited this call iff its stamp is
  // the current epoch.
  std::vector<std::uint32_t> visited_;
  std::uint32_t epoch_ = 0;
  std::vector<int> stack_;
  std::vector<int> closure_;
};

Task<void> run_task_graph(Engine& engine, TaskGraph& graph, int lookahead,
                          TaskObserver* observer) {
  HS_REQUIRE_MSG(lookahead >= 0, "negative lookahead " << lookahead);
  TaskGraphRunner runner(engine, graph, observer);
  if (lookahead == 0)
    co_await runner.run_inline();
  else
    co_await runner.run_overlapped();
}

}  // namespace hs::desim
