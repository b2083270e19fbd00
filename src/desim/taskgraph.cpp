#include "desim/taskgraph.hpp"

#include <algorithm>
#include <utility>

namespace hs::desim {

namespace {

void push_dep(std::vector<int>& deps, int dep, int self) {
  if (dep >= 0 && dep != self) deps.push_back(dep);
}

}  // namespace

int TaskGraph::add(TaskSpec spec, Body body, Hook before, Hook after) {
  const int id = size();
  std::vector<int> deps;
  for (const int dep : spec.after) {
    HS_REQUIRE_MSG(dep >= 0 && dep < id,
                   "task " << id << ": after-edge on invalid task " << dep);
    deps.push_back(dep);
  }
  auto region = [this](RegionId key) -> RegionState& {
    for (auto& [region_key, state] : regions_)
      if (region_key == key) return state;
    return regions_.emplace_back(key, RegionState{}).second;
  };
  for (const RegionId r : spec.in) {
    RegionState& state = region(r);
    push_dep(deps, state.last_writer, id);  // read-after-write
    state.readers.push_back(id);
  }
  for (const RegionId r : spec.out) {
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
      : engine_(engine),
        graph_(graph),
        observer_(observer),
        state_(static_cast<std::size_t>(graph.size())) {}

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
      state_[static_cast<std::size_t>(id)].complete = true;
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
    for (;;) {
      const int c = pick_compute();
      if (c < 0) break;
      if (!deps_complete(c)) {
        // Join phase: fork and await the compute's outstanding comm
        // dependencies in task order, forking newly enabled closure comms
        // at every join instant (this is where pipelined broadcasts of
        // later steps get issued while this step's are still in flight).
        const std::vector<int> closure = comm_closure(c);
        while (!deps_complete(c)) {
          fork_ready(closure);
          const int d = next_join(closure);
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
      const int d = next_join_any();
      if (d < 0) break;
      co_await join(d);
    }
    for (int id = 0; id < graph_.size(); ++id)
      HS_REQUIRE_MSG(state_[static_cast<std::size_t>(id)].complete,
                     "task " << id << " ('" << graph_.spec(id).label
                             << "') never became runnable (plan cycle?)");
  }

 private:
  struct State {
    bool issued = false;
    bool complete = false;
    bool ran = false;  // computes only
    Async async;
  };

  State& state(int id) { return state_[static_cast<std::size_t>(id)]; }
  TaskGraph::Record& record(int id) {
    return graph_.tasks_[static_cast<std::size_t>(id)];
  }

  void issue_marks(int id) {
    if (observer_ != nullptr) observer_->task_issued(graph_, id);
  }

  bool deps_complete(int id) {
    for (const int dep : graph_.deps(id))
      if (!state(dep).complete) return false;
    return true;
  }

  /// Best next compute: among computes whose compute-predecessors have run,
  /// prefer ready ones (all deps complete); order by (priority desc, id
  /// asc). Returns -1 when every compute has run.
  int pick_compute() {
    const int n = graph_.size();
    while (first_compute_ < n &&
           (record(first_compute_).spec.kind != TaskKind::Compute ||
            state(first_compute_).ran))
      ++first_compute_;
    int best_ready = -1;
    int best_candidate = -1;
    bool any_unrun = false;
    for (int id = first_compute_; id < n; ++id) {
      if (record(id).spec.kind != TaskKind::Compute || state(id).ran) continue;
      any_unrun = true;
      bool candidate = true;
      bool ready = true;
      for (const int dep : graph_.deps(id)) {
        if (state(dep).complete) continue;
        ready = false;
        if (record(dep).spec.kind == TaskKind::Compute) {
          candidate = false;
          break;
        }
      }
      if (!candidate) continue;
      int& best = ready ? best_ready : best_candidate;
      if (best < 0 ||
          record(id).spec.priority > record(best).spec.priority)
        best = id;
    }
    if (best_ready >= 0) return best_ready;
    if (best_candidate >= 0) return best_candidate;
    HS_REQUIRE_MSG(!any_unrun,
                   "task plan has unrunnable computes (dependency cycle)");
    return -1;
  }

  /// Incomplete comm tasks reachable backward from c's dependencies,
  /// sorted by id (= program order).
  std::vector<int> comm_closure(int c) {
    std::vector<int> out;
    std::vector<char> seen(static_cast<std::size_t>(graph_.size()), 0);
    std::vector<int> stack(graph_.deps(c).begin(), graph_.deps(c).end());
    while (!stack.empty()) {
      const int id = stack.back();
      stack.pop_back();
      if (seen[static_cast<std::size_t>(id)]) continue;
      seen[static_cast<std::size_t>(id)] = 1;
      if (state(id).complete) continue;
      if (record(id).spec.kind == TaskKind::Comm) out.push_back(id);
      for (const int dep : graph_.deps(id)) stack.push_back(dep);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  void fork_comm(int id) {
    State& st = state(id);
    st.issued = true;
    TaskGraph::Record& rec = record(id);
    issue_marks(id);
    if (rec.before) rec.before();
    st.async = Async::start(engine_, timed_comm(this, id, rec.body()));
  }

  /// Fork every unissued comm task in `scope` whose deps are complete.
  /// Forking never completes anything, so one ordered pass suffices.
  void fork_ready(const std::vector<int>& scope) {
    for (const int id : scope)
      if (!state(id).issued && deps_complete(id)) fork_comm(id);
  }

  void fork_ready_all() {
    const int n = graph_.size();
    while (first_comm_ < n && (record(first_comm_).spec.kind != TaskKind::Comm ||
                               state(first_comm_).issued))
      ++first_comm_;
    for (int id = first_comm_; id < n; ++id) {
      if (record(id).spec.kind != TaskKind::Comm || state(id).issued) continue;
      if (deps_complete(id)) fork_comm(id);
    }
  }

  /// First (program order) issued-but-incomplete comm in `scope`; -1 = none.
  int next_join(const std::vector<int>& scope) {
    for (const int id : scope)
      if (state(id).issued && !state(id).complete) return id;
    return -1;
  }

  int next_join_any() {
    // Scans from its own hint, not first_comm_: that one advances past
    // *issued* comms, and an issued comm can still be in flight here.
    const int n = graph_.size();
    while (first_open_comm_ < n &&
           (record(first_open_comm_).spec.kind != TaskKind::Comm ||
            state(first_open_comm_).complete))
      ++first_open_comm_;
    for (int id = first_open_comm_; id < n; ++id)
      if (record(id).spec.kind == TaskKind::Comm && state(id).issued &&
          !state(id).complete)
        return id;
    return -1;
  }

  Task<void> join(int id) {
    const SimTime w0 = engine_.now();
    co_await state(id).async.wait();
    if (observer_ != nullptr)
      observer_->task_waited(graph_, id, w0, engine_.now());
  }

  Task<void> run_compute(int c) {
    TaskGraph::Record& rec = record(c);
    State& st = state(c);
    st.ran = true;
    issue_marks(c);
    if (rec.before) rec.before();
    const SimTime t0 = engine_.now();
    if (observer_ != nullptr) observer_->task_started(graph_, c);
    co_await rec.body();
    const SimTime t1 = engine_.now();
    st.complete = true;
    if (rec.after) rec.after();
    if (observer_ != nullptr) observer_->task_finished(graph_, c, t0, t1);
  }

  /// Wrapper the forked comm body runs inside: records the true transfer
  /// span and flips the completion flag the instant the body finishes (the
  /// Async gate fires strictly after, so joiners always observe it set).
  /// The body is lazy: co_await starts it by symmetric transfer, right
  /// after task_started.
  static Task<void> timed_comm(TaskGraphRunner* self, int id,
                               Task<void> body) {
    const SimTime t0 = self->engine_.now();
    if (self->observer_ != nullptr)
      self->observer_->task_started(self->graph_, id);
    co_await std::move(body);
    const SimTime t1 = self->engine_.now();
    self->state(id).complete = true;
    TaskGraph::Record& rec = self->record(id);
    if (rec.after) rec.after();
    if (self->observer_ != nullptr)
      self->observer_->task_finished(self->graph_, id, t0, t1);
  }

  Engine& engine_;
  TaskGraph& graph_;
  TaskObserver* observer_;
  std::vector<State> state_;
  int first_compute_ = 0;   // skip hint: lowest possibly-unrun compute
  int first_comm_ = 0;      // skip hint: lowest possibly-unissued comm
  int first_open_comm_ = 0; // skip hint: lowest possibly-incomplete comm
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
