#include "desim/taskgraph.hpp"

#include <algorithm>
#include <cstdint>
#include <deque>
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
  const int id = size_;
  if (static_cast<std::size_t>(id - first_) == ring_.size()) {
    // Every slot is live: double the ring. Each record (and its vectors'
    // capacity) moves to its id's slot in the larger ring.
    std::vector<Record> bigger(std::max<std::size_t>(16, 2 * ring_.size()));
    for (int live = first_; live < id; ++live)
      bigger[static_cast<std::size_t>(live) & (bigger.size() - 1)] =
          std::move(at(live));
    ring_ = std::move(bigger);
  }
  Record& record = at(id);
  // The region and after lists are resolved into deps here and never read
  // again, so they end with this call instead of living in the record.
  const std::vector<RegionId> in = std::move(spec.in);
  const std::vector<RegionId> out = std::move(spec.out);
  const std::vector<int> after_ids = std::move(spec.after);
  std::vector<int>& deps = record.deps;
  deps.clear();
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
  record.spec = std::move(spec);
  record.body = std::move(body);
  record.before = std::move(before);
  record.after = std::move(after);
  // A recycled slot starts over; the runner fills the rest when it admits
  // the task.
  record.succ.clear();
  record.pending = 0;
  record.pending_compute = 0;
  record.issued = false;
  record.complete = false;
  record.async = Async{};
  ++size_;
  return id;
}

/// Drives one TaskGraph to completion. Lives for the duration of the
/// run_task_graph coroutine (which owns it by value via the frame). Pulls
/// and retirements run only in the runner's own code between its awaits,
/// so a record reference held across an await stays valid.
class TaskGraphRunner {
 public:
  TaskGraphRunner(Engine& engine, TaskGraph& graph, TaskObserver* observer,
                  int lookahead)
      : engine_(engine),
        graph_(graph),
        observer_(observer),
        window_(lookahead + 1) {
    HS_REQUIRE_MSG(!graph.ran_,
                   "task graph already ran: its bodies run once, so build "
                   "a new graph for another run");
    graph.ran_ = true;
  }

  Task<void> run_inline() {
    for (int id = graph_.first_;; ++id) {
      // Each task finishes before the next starts, so a source graph
      // retires everything it has run before pulling the next step.
      while (id == graph_.size()) {
        if (!graph_.source_) co_return;
        graph_.first_ = id;
        if (!graph_.source_(graph_)) co_return;
      }
      TaskGraph::Record& rec = record(id);
      issue_marks(id);
      if (rec.before) rec.before();
      const SimTime t0 = engine_.now();
      if (observer_ != nullptr) observer_->task_started(graph_, id);
      co_await rec.body();
      const SimTime t1 = engine_.now();
      if (rec.after) rec.after();
      if (observer_ != nullptr) {
        // Inline communication is fully exposed: the wait IS the span.
        if (rec.spec.kind == TaskKind::Comm)
          observer_->task_waited(graph_, id, t0, t1);
        observer_->task_finished(graph_, id, t0, t1);
      }
    }
  }

  Task<void> run_overlapped() {
    // Tasks added before the run form one step; a graph without a source
    // has only that step and keeps its records.
    if (graph_.size() > graph_.first_) admit(graph_.first_);
    advance();
    for (;;) {
      const int c = pick();
      if (c < 0) break;
      if (record(c).pending != 0) {
        // Join phase: fork and await the compute's outstanding comm
        // dependencies in task order, forking newly enabled closure comms
        // at every join instant (this is where pipelined broadcasts of
        // later steps get issued while this step's are still in flight).
        comm_closure(c);
        while (record(c).pending != 0) {
          fork_ready(closure_);
          const int d = next_join(closure_);
          HS_REQUIRE_MSG(d >= 0, "task plan stalled awaiting deps of task "
                                     << c << " ('" << graph_.spec(c).label
                                     << "'): dependency cycle or a comm "
                                        "task gated on an unrun compute");
          co_await join(d);
        }
      }
      advance();
      fork_ready_all();  // pre-compute fork point
      co_await run_compute(c);
      advance();
      fork_ready_all();  // post-compute fork point
    }
    // Drain trailing communication (tasks no compute depends on).
    for (;;) {
      advance();
      fork_ready_all();
      const int d = first_in_flight();
      if (d < 0) break;
      co_await join(d);
    }
    retire();
    for (int id = graph_.first_; id < graph_.size(); ++id)
      HS_REQUIRE_MSG(record(id).complete,
                     "task " << id << " ('" << graph_.spec(id).label
                             << "') never became runnable (plan cycle?)");
  }

 private:
  /// A pulled step: its ids end before `end`; `incomplete` counts down.
  struct Step {
    int end;
    int incomplete;
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

  TaskGraph::Record& record(int id) { return graph_.at(id); }
  /// Retired ids count as complete and issued.
  bool retired(int id) const { return id < graph_.first_; }
  bool issued(int id) { return retired(id) || record(id).issued; }

  void issue_marks(int id) {
    if (observer_ != nullptr) observer_->task_issued(graph_, id);
  }

  /// Registers ids [first, size()) as the next step: counts each task's
  /// live incomplete deps, appends it to their successor lists and files
  /// it in the ready sets it starts in.
  void admit(int first) {
    const int end = graph_.size();
    const long long step = pulled_++;
    steps_.push_back({end, end - first});
    for (int id = first; id < end; ++id) {
      TaskGraph::Record& rec = record(id);
      rec.step = step;
      rec.compute = rec.spec.kind == TaskKind::Compute;
      for (const int dep : rec.deps) {
        if (retired(dep)) continue;
        TaskGraph::Record& before = record(dep);
        if (before.complete) continue;
        ++rec.pending;
        if (before.compute) ++rec.pending_compute;
        before.succ.push_back(id);
      }
      file(id, rec.pending == 0, rec.pending_compute == 0);
    }
  }

  /// Pulls the source's next step; false when it has none left.
  bool pull() {
    if (!graph_.source_ || exhausted_) return false;
    const int first = graph_.size();
    if (!graph_.source_(graph_)) {
      HS_REQUIRE_MSG(graph_.size() == first,
                     "a task plan source that reports no step left added "
                     "tasks");
      exhausted_ = true;
      return false;
    }
    admit(first);
    return true;
  }

  /// Retires the leading steps whose tasks are all complete (a source
  /// graph only: the others keep their records).
  void retire() {
    if (!graph_.source_) return;
    while (!steps_.empty() && steps_.front().incomplete == 0) {
      graph_.first_ = steps_.front().end;
      steps_.pop_front();
      ++retired_;
    }
  }

  /// The decision-point window: the oldest unretired step and the
  /// lookahead steps after it are pulled.
  void advance() {
    retire();
    while (pulled_ < retired_ + window_ && pull()) retire();
  }

  /// Files `id` in the ready sets it has just entered: ready (no
  /// incomplete dep) and, for a compute, candidate (no incomplete compute
  /// dep).
  void file(int id, bool ready, bool candidate) {
    const TaskGraph::Record& rec = record(id);
    if (!rec.compute) {
      if (ready) ready_comms_.push(id);
      return;
    }
    if (ready) ready_computes_.push({rec.spec.priority, id});
    if (candidate) candidates_.push({rec.spec.priority, id});
  }

  /// Marks `id` complete and counts it off its successors; one that
  /// reaches zero enters a ready set.
  void complete(int id) {
    TaskGraph::Record& rec = record(id);
    rec.complete = true;
    --steps_[static_cast<std::size_t>(rec.step - retired_)].incomplete;
    for (const int succ : rec.succ) {
      TaskGraph::Record& next = record(succ);
      const bool ready = --next.pending == 0;
      const bool candidate = rec.compute && --next.pending_compute == 0;
      if (ready || candidate) file(succ, ready, candidate);
    }
  }

  /// Best next compute: the best ready one (all deps complete), else the
  /// best candidate (compute deps complete), each by (priority desc, id
  /// asc). Returns -1 when every compute has run. Entries of computes
  /// already picked are dropped as they surface.
  int pick_compute() {
    for (RankHeap* heap : {&ready_computes_, &candidates_}) {
      while (!heap->empty() && issued(heap->top().id)) heap->pop();
      if (!heap->empty()) return heap->top().id;
    }
    return -1;
  }

  /// pick_compute over a window that grows by one step while it finds
  /// nothing and the source has steps left.
  int pick() {
    for (;;) {
      const int c = pick_compute();
      if (c >= 0 || !pull()) return c;
    }
  }

  /// Incomplete comm tasks reachable backward from c's dependencies,
  /// sorted by id (= program order), into closure_.
  void comm_closure(int c) {
    ++epoch_;
    closure_.clear();
    stack_.assign(record(c).deps.begin(), record(c).deps.end());
    while (!stack_.empty()) {
      const int id = stack_.back();
      stack_.pop_back();
      if (retired(id)) continue;
      TaskGraph::Record& rec = record(id);
      if (rec.visited == epoch_) continue;
      rec.visited = epoch_;
      if (rec.complete) continue;
      if (!rec.compute) closure_.push_back(id);
      stack_.insert(stack_.end(), rec.deps.begin(), rec.deps.end());
    }
    std::sort(closure_.begin(), closure_.end());
  }

  void fork_comm(int id) {
    TaskGraph::Record& rec = record(id);
    rec.issued = true;
    issue_marks(id);
    if (rec.before) rec.before();
    rec.async = Async::start(engine_, timed_comm(this, id, rec.body()));
    in_flight_.push(id);
  }

  /// Fork every unissued comm task in `scope` whose deps are complete.
  /// Forking never completes anything, so one ordered pass suffices.
  void fork_ready(const std::vector<int>& scope) {
    for (const int id : scope)
      if (!record(id).issued && record(id).pending == 0) fork_comm(id);
  }

  /// Fork every ready comm in id order. Async::start only schedules the
  /// fork, so no task completes, and no comm turns ready, during the pass.
  void fork_ready_all() {
    while (!ready_comms_.empty()) {
      const int id = ready_comms_.top();
      ready_comms_.pop();
      if (!issued(id)) fork_comm(id);
    }
  }

  /// First (program order) issued-but-incomplete comm in `scope`; -1 = none.
  int next_join(const std::vector<int>& scope) {
    for (const int id : scope)
      if (record(id).issued && !record(id).complete) return id;
    return -1;
  }

  /// Lowest-id comm still in flight; -1 = none.
  int first_in_flight() {
    while (!in_flight_.empty() && (retired(in_flight_.top()) ||
                                   record(in_flight_.top()).complete))
      in_flight_.pop();
    return in_flight_.empty() ? -1 : in_flight_.top();
  }

  Task<void> join(int id) {
    const SimTime w0 = engine_.now();
    co_await record(id).async.wait();
    if (observer_ != nullptr)
      observer_->task_waited(graph_, id, w0, engine_.now());
  }

  Task<void> run_compute(int c) {
    TaskGraph::Record& rec = record(c);
    rec.issued = true;
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
  long long window_;  // steps kept pulled from the oldest unretired one
  std::deque<Step> steps_;  // pulled and not yet retired, in pull order
  long long pulled_ = 0;
  long long retired_ = 0;
  bool exhausted_ = false;  // the source reported no step left
  IdHeap ready_comms_;  // deps complete, not yet forked
  RankHeap ready_computes_;  // deps complete
  RankHeap candidates_;      // compute deps complete
  IdHeap in_flight_;  // forked; the drain drops complete ones on top
  // comm_closure's scratch: a record is visited this call iff its stamp
  // is the current epoch.
  std::uint32_t epoch_ = 0;
  std::vector<int> stack_;
  std::vector<int> closure_;
};

Task<void> run_task_graph(Engine& engine, TaskGraph& graph, int lookahead,
                          TaskObserver* observer) {
  HS_REQUIRE_MSG(lookahead >= 0, "negative lookahead " << lookahead);
  TaskGraphRunner runner(engine, graph, observer, lookahead);
  if (lookahead == 0)
    co_await runner.run_inline();
  else
    co_await runner.run_overlapped();
}

}  // namespace hs::desim
