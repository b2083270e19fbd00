// Intra-rank task runtime: a per-rank dependency DAG over the desim engine.
//
// Ranks used to be phase-lockstep coroutines; communication/computation
// overlap existed only as hand-rolled double-buffered pipelines inside
// individual kernels. The task runtime generalizes that: each step's
// broadcasts, local GEMM updates and sends become *tasks* with declared
// data dependencies (read/write region sets hashed to RegionIds), and a
// per-rank scheduler interleaves ready tasks in virtual time. The
// look-ahead window is not scheduler state — it is expressed in the plan
// itself, as the number of buffer slots a kernel allocates (write-after-read
// edges on a slot ring cap how far communication may run ahead) plus
// optional pipeline-coupling edges (see core/task_plan.hpp).
//
// Dependency model (resolved at TaskGraph::add, all edges point backward):
//   * read-after-write: a task reading region R depends on R's last writer;
//   * write-after-read: a task writing R depends on every reader since the
//     last write (buffer reuse);
//   * write-after-write: a task writing R depends on R's previous writer;
//   * channel FIFO: communication tasks on the same channel (communicator
//     context) are serialized by *completion* — collectives on one
//     communicator must be issued in the same order on every rank, and the
//     machine layer matches them in call order;
//   * explicit `after` edges for pipeline structure no region captures.
//
// Scheduling (run_task_graph):
//   * lookahead == 0 runs every task inline, in insertion (program) order —
//     no forking at all, so the schedule is the kernel's classic blocking
//     loop, bit-identical in virtual time.
//   * lookahead >= 1 treats compute tasks as the rank's CPU occupancy:
//     computes run one at a time, the best ready compute (all deps
//     complete) first, else the best candidate (all compute deps
//     complete), each by (priority desc, program order asc); a candidate
//     first joins its outstanding comm closure. Communication tasks are
//     forked (desim::Async) as soon as their dependencies complete, but
//     only at deterministic decision points — dependency-join instants and
//     compute boundaries — so the schedule depends only on the DAG and the
//     engine's (time, seq) order, never on host scheduling. The runner
//     keeps those choices in ready sets: each task counts its incomplete
//     deps and incomplete compute deps, a completion counts itself off its
//     successors, and a task whose count reaches zero enters a heap (ready
//     comms by id; ready and candidate computes by rank), so a decision
//     costs O(log live tasks), not a pass over the plan.
//
// Determinism: the heaps order by total keys (id, or (priority, id)) and
// all forks go through Async::start (engine seq order). Async::start only
// schedules a fork, so no task completes, and no ready set grows, during a
// fork pass: a heap pass makes exactly the choices an id-ordered scan of
// the plan would. Equal graphs produce bit-identical schedules — the
// property the D=0/D=1 legacy goldens in tests/core/test_taskplan_goldens.cpp
// and the random-plan digests in tests/desim/test_taskgraph.cpp pin down.
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "common/check.hpp"
#include "desim/engine.hpp"

namespace hs::desim {

enum class TaskKind : std::uint8_t { Comm, Compute };

/// Opaque data-region identity. Kernels hash (family, index) pairs —
/// e.g. ("a_panel", slot) — and declare them in TaskSpec::in/out.
using RegionId = std::uint64_t;

/// FNV-1a over the family name, mixed with the index. Stable across runs
/// (participates in nothing persistent, but determinism costs nothing).
constexpr RegionId region_id(std::string_view family, std::uint64_t index) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : family) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  h ^= index + 0x9e3779b97f4a7c15ull;
  h *= 1099511628211ull;
  return h;
}

/// A pipeline-step marker attached to a task: observers translate these to
/// trace step marks when the task is issued (so D=0 inline execution stamps
/// steps at exactly the legacy program points). `level` is the chain level
/// the step belongs to (0 = outermost), -1 for a flat step.
struct TaskStepMark {
  long long step = 0;
  int level = -1;
};

struct TaskSpec {
  TaskKind kind = TaskKind::Compute;
  /// Hierarchy chain level of the task's broadcast stage (0 = outermost),
  /// -1 for flat work; stats and traces split communication by it.
  int level = -1;
  /// Comm FIFO domain (communicator context id); -1 = unserialized.
  int channel = -1;
  /// Compute selection priority (higher first; ties in program order).
  int priority = 0;
  /// Wait-accrual group: observers may fuse the scheduler's join waits on
  /// tasks sharing a non-negative group into one interval (matches the
  /// legacy kernels' PhaseTimer placement, where one timer wrapped the
  /// joins of a whole pipeline step). -1 = accrue individually.
  int wait_group = -1;
  /// Pipeline step for trace spans; -1 when not step-aligned.
  long long step = -1;
  /// Static label for trace spans ("bcast A", "trailing update", ...).
  const char* label = "";
  std::vector<RegionId> in;
  std::vector<RegionId> out;
  /// Explicit extra dependencies (task ids returned by add).
  std::vector<int> after;
  std::vector<TaskStepMark> marks;
};

class TaskGraph;

/// Scheduler event sink: stats accounting (core wraps RankStats), trace
/// step marks and task spans. All callbacks run at deterministic points of
/// the schedule and must not advance virtual time.
class TaskObserver {
 public:
  virtual ~TaskObserver() = default;
  /// Task issued: inline start, or fork for lookahead >= 1. Step marks on
  /// the task should be emitted here.
  virtual void task_issued(const TaskGraph& graph, int id) {
    (void)graph;
    (void)id;
  }
  /// The task's body is about to start, in the same synchronous run as
  /// its first instructions (a forked comm body starts later than its
  /// issue). Per-task state the body reads at entry belongs here.
  virtual void task_started(const TaskGraph& graph, int id) {
    (void)graph;
    (void)id;
  }
  /// The task's body occupied virtual time [t0, t1] (a comm task's actual
  /// transfer span; a compute task's charge). Fires once per task.
  virtual void task_finished(const TaskGraph& graph, int id, SimTime t0,
                             SimTime t1) {
    (void)graph;
    (void)id;
    (void)t0;
    (void)t1;
  }
  /// The scheduler was blocked on comm task `id` for [t0, t1] — the
  /// *exposed* (non-hidden) communication. Inline execution reports the
  /// full comm span; overlapped execution only the join wait.
  virtual void task_waited(const TaskGraph& graph, int id, SimTime t0,
                           SimTime t1) {
    (void)graph;
    (void)id;
    (void)t0;
    (void)t1;
  }
};

/// One rank's task DAG: build with add() in program order, then run once
/// with run_task_graph. Dependencies are resolved eagerly at add() time
/// from the region declarations, so tests can inspect deps(id) without
/// running anything; spec(id) then keeps no `in`, `out` or `after` list,
/// since deps(id) holds what they resolved to.
class TaskGraph {
 public:
  /// Task body factory; called exactly once, when the task is issued.
  using Body = std::function<Task<void>()>;
  /// Host-side hooks around the body: `before` runs synchronously at issue
  /// time (Real-mode staging copies), `after` synchronously at completion
  /// (Real-mode GEMM application — virtual time does not advance in either).
  using Hook = std::function<void()>;

  int add(TaskSpec spec, Body body, Hook before = {}, Hook after = {});

  int size() const noexcept { return static_cast<int>(tasks_.size()); }
  const TaskSpec& spec(int id) const { return tasks_[check_id(id)].spec; }
  /// Resolved dependencies: sorted, deduplicated, all < id.
  const std::vector<int>& deps(int id) const {
    return tasks_[check_id(id)].deps;
  }

 private:
  friend class TaskGraphRunner;

  struct Record {
    TaskSpec spec;
    Body body;
    Hook before;
    Hook after;
    std::vector<int> deps;
  };

  struct RegionState {
    int last_writer = -1;
    std::vector<int> readers;  // since the last write
  };

  std::size_t check_id(int id) const {
    HS_REQUIRE_MSG(id >= 0 && id < size(), "task id " << id << " out of range");
    return static_cast<std::size_t>(id);
  }

  std::vector<Record> tasks_;
  bool ran_ = false;  // set when run_task_graph takes the graph
  // Builder-only bookkeeping (region -> writer/readers, channel -> last).
  std::vector<std::pair<RegionId, RegionState>> regions_;
  std::vector<std::pair<int, int>> channel_last_;  // (channel, task id)
};

/// Drive `graph` to completion inside the calling rank coroutine.
/// lookahead == 0 executes inline in program order; lookahead >= 1 runs the
/// dependency-driven overlapping scheduler (the window itself is encoded in
/// the graph's buffer-slot regions). The graph is consumed: bodies are
/// invoked once, and running it again throws PreconditionError.
Task<void> run_task_graph(Engine& engine, TaskGraph& graph, int lookahead,
                          TaskObserver* observer = nullptr);

}  // namespace hs::desim
