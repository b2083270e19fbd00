// TaskGraph semantics: dependency resolution from region declarations,
// inline (lookahead = 0) program-order execution, and the overlapping
// scheduler's core guarantees — comm runs behind compute, slot-ring
// write-after-read edges bound the look-ahead window, and equal graphs
// produce bit-identical schedules. Seeded random plans pin every D = 1
// scheduling decision to digests of the schedule.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "desim/taskgraph.hpp"

namespace {

using hs::desim::Engine;
using hs::desim::RegionId;
using hs::desim::SimTime;
using hs::desim::Task;
using hs::desim::TaskGraph;
using hs::desim::TaskKind;
using hs::desim::TaskObserver;
using hs::desim::TaskSpec;
using hs::desim::region_id;
using hs::desim::run_task_graph;

TaskSpec comm_spec(std::vector<RegionId> in, std::vector<RegionId> out,
                   int channel = 0) {
  TaskSpec spec;
  spec.kind = TaskKind::Comm;
  spec.channel = channel;
  spec.in = std::move(in);
  spec.out = std::move(out);
  return spec;
}

TaskSpec compute_spec(std::vector<RegionId> in,
                      std::vector<RegionId> out = {}) {
  TaskSpec spec;
  spec.kind = TaskKind::Compute;
  spec.in = std::move(in);
  spec.out = std::move(out);
  return spec;
}

/// A body that sleeps `duration` of virtual time and appends to `order`.
TaskGraph::Body timed(Engine& engine, double duration,
                      std::vector<int>* order = nullptr, int tag = 0) {
  return [&engine, duration, order, tag]() -> Task<void> {
    return [](Engine& e, double d, std::vector<int>* o, int t) -> Task<void> {
      if (o != nullptr) o->push_back(t);
      co_await e.sleep(d);
    }(engine, duration, order, tag);
  };
}

TEST(TaskGraph, RegionIdsAreStableAndFamilyDisjoint) {
  EXPECT_EQ(region_id("a", 0), region_id("a", 0));
  EXPECT_NE(region_id("a", 0), region_id("a", 1));
  EXPECT_NE(region_id("a", 0), region_id("b", 0));
}

TEST(TaskGraph, ResolvesReadAfterWrite) {
  TaskGraph graph;
  const RegionId slot = region_id("panel", 0);
  const int recv = graph.add(comm_spec({}, {slot}), {});
  const int gemm = graph.add(compute_spec({slot}), {});
  EXPECT_TRUE(graph.deps(recv).empty());
  EXPECT_EQ(graph.deps(gemm), std::vector<int>{recv});
}

TEST(TaskGraph, ResolvesWriteAfterReadOnSlotReuse) {
  // Two-slot ring: the recv into slot 0 for step 2 must wait for step 0's
  // reader — the edge that bounds the look-ahead window.
  TaskGraph graph;
  const RegionId slot0 = region_id("panel", 0);
  const RegionId slot1 = region_id("panel", 1);
  const int recv0 = graph.add(comm_spec({}, {slot0}), {});
  const int use0 = graph.add(compute_spec({slot0}), {});
  const int recv1 = graph.add(comm_spec({}, {slot1}, 1), {});
  const int reuse0 = graph.add(comm_spec({}, {slot0}, 2), {});
  (void)recv1;
  EXPECT_EQ(graph.deps(reuse0), (std::vector<int>{recv0, use0}));
}

TEST(TaskGraph, ResolvesWriteAfterWrite) {
  TaskGraph graph;
  const RegionId slot = region_id("panel", 0);
  const int first = graph.add(comm_spec({}, {slot}, 1), {});
  const int second = graph.add(comm_spec({}, {slot}, 2), {});
  EXPECT_EQ(graph.deps(second), std::vector<int>{first});
}

TEST(TaskGraph, SerializesOneChannelKeepsOthersIndependent) {
  // Collectives on one communicator must complete in issue order; distinct
  // communicators impose nothing on each other.
  TaskGraph graph;
  const int a0 = graph.add(comm_spec({}, {region_id("a", 0)}, 7), {});
  const int b0 = graph.add(comm_spec({}, {region_id("b", 0)}, 8), {});
  const int a1 = graph.add(comm_spec({}, {region_id("a", 1)}, 7), {});
  EXPECT_TRUE(graph.deps(b0).empty());
  EXPECT_EQ(graph.deps(a1), std::vector<int>{a0});
}

TEST(TaskGraph, ExplicitAfterEdgesMergeSortedAndDeduplicated) {
  TaskGraph graph;
  const RegionId slot = region_id("panel", 0);
  const int writer = graph.add(comm_spec({}, {slot}), {});
  const int other = graph.add(compute_spec({}), {});
  TaskSpec spec = compute_spec({slot});
  spec.after = {writer, other, writer};  // duplicate of the RAW edge
  const int reader = graph.add(std::move(spec), {});
  EXPECT_EQ(graph.deps(reader), (std::vector<int>{writer, other}));
}

TEST(TaskGraph, InlineExecutionRunsInProgramOrder) {
  Engine engine;
  TaskGraph graph;
  std::vector<int> order;
  // Insertion order deliberately has an independent pair that an eager
  // scheduler could reorder; inline execution must not.
  graph.add(comm_spec({}, {region_id("a", 0)}, 1), timed(engine, 1.0, &order, 0));
  graph.add(comm_spec({}, {region_id("b", 0)}, 2), timed(engine, 0.1, &order, 1));
  graph.add(compute_spec({region_id("a", 0)}), timed(engine, 2.0, &order, 2));
  engine.spawn([](Engine& e, TaskGraph& g) -> Task<void> {
    co_await run_task_graph(e, g, 0);
  }(engine, graph));
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(engine.now(), 3.1);  // fully serialized
}

TEST(TaskGraph, OverlappedScheduleHidesCommBehindCompute) {
  // Step structure: recv(q) -> gemm(q), two slots. Blocking costs
  // 2*(1+2) = 6; with lookahead the second recv hides behind gemm 0.
  Engine engine;
  TaskGraph graph;
  for (int q = 0; q < 2; ++q) {
    graph.add(comm_spec({}, {region_id("panel", q)}, 0),
              timed(engine, 1.0));
    graph.add(compute_spec({region_id("panel", q)}), timed(engine, 2.0));
  }
  engine.spawn([](Engine& e, TaskGraph& g) -> Task<void> {
    co_await run_task_graph(e, g, 1);
  }(engine, graph));
  engine.run();
  EXPECT_EQ(engine.now(), 5.0);  // recv0; gemm0 || recv1; gemm1
}

TEST(TaskGraph, SlotRingBoundsHowFarCommRunsAhead) {
  // Four steps on a one-slot "ring": every recv must wait for the previous
  // step's gemm (write-after-read), so nothing overlaps even at high
  // lookahead — the window lives in the plan, not the scheduler.
  Engine engine;
  TaskGraph graph;
  const RegionId slot = region_id("panel", 0);
  for (int q = 0; q < 4; ++q) {
    graph.add(comm_spec({}, {slot}, 0), timed(engine, 1.0));
    graph.add(compute_spec({slot}), timed(engine, 2.0));
  }
  engine.spawn([](Engine& e, TaskGraph& g) -> Task<void> {
    co_await run_task_graph(e, g, 8);
  }(engine, graph));
  engine.run();
  EXPECT_EQ(engine.now(), 12.0);
}

TEST(TaskGraph, PriorityPicksAmongReadyComputesThenProgramOrder) {
  Engine engine;
  TaskGraph graph;
  std::vector<int> order;
  TaskSpec low = compute_spec({});
  TaskSpec tie = compute_spec({});
  TaskSpec high = compute_spec({});
  high.priority = 1;
  graph.add(std::move(low), timed(engine, 1.0, &order, 0));
  graph.add(std::move(tie), timed(engine, 1.0, &order, 1));
  graph.add(std::move(high), timed(engine, 1.0, &order, 2));
  engine.spawn([](Engine& e, TaskGraph& g) -> Task<void> {
    co_await run_task_graph(e, g, 1);
  }(engine, graph));
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{2, 0, 1}));
}

struct SpanLog : TaskObserver {
  struct Row {
    int id;
    std::string kind;  // "finish" / "wait"
    SimTime t0, t1;
  };
  std::vector<int> issued;
  std::vector<Row> rows;
  void task_issued(const TaskGraph&, int id) override {
    issued.push_back(id);
  }
  void task_finished(const TaskGraph&, int id, SimTime t0,
                     SimTime t1) override {
    rows.push_back({id, "finish", t0, t1});
  }
  void task_waited(const TaskGraph&, int id, SimTime t0,
                   SimTime t1) override {
    rows.push_back({id, "wait", t0, t1});
  }
};

TEST(TaskGraph, InlineObserverSeesFullCommSpansAsWaits) {
  Engine engine;
  TaskGraph graph;
  graph.add(comm_spec({}, {region_id("a", 0)}, 0), timed(engine, 1.0));
  graph.add(compute_spec({region_id("a", 0)}), timed(engine, 2.0));
  SpanLog log;
  engine.spawn([](Engine& e, TaskGraph& g, SpanLog& l) -> Task<void> {
    co_await run_task_graph(e, g, 0, &l);
  }(engine, graph, log));
  engine.run();
  EXPECT_EQ(log.issued, (std::vector<int>{0, 1}));
  ASSERT_EQ(log.rows.size(), 3u);
  // Comm task: the full span reported as exposed wait, then finished.
  EXPECT_EQ(log.rows[0].kind, "wait");
  EXPECT_EQ(log.rows[0].t0, 0.0);
  EXPECT_EQ(log.rows[0].t1, 1.0);
  EXPECT_EQ(log.rows[1].kind, "finish");
  EXPECT_EQ(log.rows[2].kind, "finish");
  EXPECT_EQ(log.rows[2].t1, 3.0);
}

TEST(TaskGraph, OverlappedObserverSeesOnlyExposedWaits) {
  // recv (1s) forked at t=0, compute A (2s) independent, compute B needs
  // the recv: by the time A finishes the recv is long done — zero exposed
  // wait anywhere.
  Engine engine;
  TaskGraph graph;
  graph.add(comm_spec({}, {region_id("a", 0)}, 0), timed(engine, 1.0));
  graph.add(compute_spec({}), timed(engine, 2.0));
  graph.add(compute_spec({region_id("a", 0)}), timed(engine, 2.0));
  SpanLog log;
  engine.spawn([](Engine& e, TaskGraph& g, SpanLog& l) -> Task<void> {
    co_await run_task_graph(e, g, 1, &l);
  }(engine, graph, log));
  engine.run();
  EXPECT_EQ(engine.now(), 4.0);
  double exposed = 0.0;
  for (const auto& row : log.rows)
    if (row.kind == "wait") exposed += row.t1 - row.t0;
  EXPECT_EQ(exposed, 0.0);
}

// Logs "start <id>" from the observer and "body <id>" from each body's
// first instruction, so the log shows what ran in between.
struct StartLog : TaskObserver {
  std::vector<std::string> events;
  void task_started(const TaskGraph&, int id) override {
    events.push_back("start " + std::to_string(id));
  }
};

TaskGraph::Body logged(Engine& engine, double duration, StartLog& log,
                       int id) {
  return [&engine, duration, &log, id]() -> Task<void> {
    return [](Engine& e, double d, StartLog& l, int i) -> Task<void> {
      l.events.push_back("body " + std::to_string(i));
      co_await e.sleep(d);
    }(engine, duration, log, id);
  };
}

TEST(TaskGraph, ObserverSeesEachTaskStartRightBeforeItsBody) {
  // Two steps of (comm, comm, compute): at D >= 1 the comms are forked and
  // their bodies start after other tasks were issued, yet each body still
  // runs straight after its own task_started, for every lowering.
  for (const int lookahead : {0, 1, 2}) {
    SCOPED_TRACE("D=" + std::to_string(lookahead));
    Engine engine;
    TaskGraph graph;
    StartLog log;
    int id = 0;
    for (int q = 0; q < 2; ++q) {
      graph.add(comm_spec({}, {region_id("a", q)}, 0),
                logged(engine, 0.5, log, id++));
      graph.add(comm_spec({}, {region_id("b", q)}, 1),
                logged(engine, 0.25, log, id++));
      graph.add(compute_spec({region_id("a", q), region_id("b", q)}),
                logged(engine, 1.0, log, id++));
    }
    engine.spawn([](Engine& e, TaskGraph& g, int d, StartLog& l)
                     -> Task<void> {
      co_await run_task_graph(e, g, d, &l);
    }(engine, graph, lookahead, log));
    engine.run();
    ASSERT_EQ(log.events.size(), 2u * static_cast<std::size_t>(id));
    for (std::size_t i = 0; i < log.events.size(); i += 2) {
      ASSERT_EQ(log.events[i].rfind("start ", 0), 0u) << log.events[i];
      EXPECT_EQ(log.events[i + 1], "body " + log.events[i].substr(6));
    }
  }
}

TEST(TaskGraph, EqualGraphsProduceBitIdenticalSchedules) {
  auto build_and_run = [](int lookahead) {
    Engine engine;
    TaskGraph graph;
    for (int q = 0; q < 5; ++q) {
      graph.add(comm_spec({}, {region_id("a", q % 2)}, 0),
                timed(engine, 0.3 + 0.1 * q));
      graph.add(comm_spec({}, {region_id("b", q % 2)}, 1),
                timed(engine, 0.2));
      graph.add(
          compute_spec({region_id("a", q % 2), region_id("b", q % 2)}),
          timed(engine, 0.7));
    }
    engine.spawn([](Engine& e, TaskGraph& g, int d) -> Task<void> {
      co_await run_task_graph(e, g, d);
    }(engine, graph, lookahead));
    engine.run();
    return engine.now();
  };
  for (int depth : {0, 1, 2})
    EXPECT_EQ(build_and_run(depth), build_and_run(depth)) << "D=" << depth;
  EXPECT_LE(build_and_run(1), build_and_run(0));
}

TEST(TaskGraph, PriorityInversionThroughACommStallsLoudly) {
  // c outranks c2 but reads d, and d runs only after c2: at D >= 1 the
  // scheduler picks c as the best candidate, joins e, and is then left
  // with nothing in flight to wait on. It must say so, not hang.
  Engine engine;
  TaskGraph graph;
  graph.add(comm_spec({}, {region_id("e", 0)}, 0), timed(engine, 1.0));
  const int c2 =
      graph.add(compute_spec({region_id("e", 0)}), timed(engine, 1.0));
  TaskSpec d = comm_spec({}, {region_id("d", 0)}, 1);
  d.after = {c2};
  graph.add(std::move(d), timed(engine, 1.0));
  TaskSpec c = compute_spec({region_id("d", 0)});
  c.priority = 1;
  graph.add(std::move(c), timed(engine, 1.0));
  engine.spawn([](Engine& e, TaskGraph& g) -> Task<void> {
    co_await run_task_graph(e, g, 1);
  }(engine, graph));
  try {
    engine.run();
    FAIL() << "the plan ran to completion";
  } catch (const hs::PreconditionError& error) {
    EXPECT_NE(std::string_view(error.what())
                  .find("task plan stalled awaiting deps of task 3"),
              std::string_view::npos)
        << error.what();
  }
}

TEST(TaskGraph, PriorityInversionThroughAStepSourceStallsLoudly) {
  // The same plan pulled in two steps, {e, c2} and {d, c}: at D = 1 both
  // are in the window from the first decision, so the runner makes the
  // same pick and must stall the same way.
  Engine engine;
  int step = 0;
  TaskGraph graph([&engine, &step](TaskGraph& plan) {
    if (step == 0) {
      plan.add(comm_spec({}, {region_id("e", 0)}, 0), timed(engine, 1.0));
      plan.add(compute_spec({region_id("e", 0)}), timed(engine, 1.0));
    } else if (step == 1) {
      TaskSpec d = comm_spec({}, {region_id("d", 0)}, 1);
      d.after = {1};
      plan.add(std::move(d), timed(engine, 1.0));
      TaskSpec c = compute_spec({region_id("d", 0)});
      c.priority = 1;
      plan.add(std::move(c), timed(engine, 1.0));
    } else {
      return false;
    }
    ++step;
    return true;
  });
  engine.spawn([](Engine& e, TaskGraph& g) -> Task<void> {
    co_await run_task_graph(e, g, 1);
  }(engine, graph));
  try {
    engine.run();
    FAIL() << "the plan ran to completion";
  } catch (const hs::PreconditionError& error) {
    EXPECT_NE(std::string_view(error.what())
                  .find("task plan stalled awaiting deps of task 3"),
              std::string_view::npos)
        << error.what();
  }
}

TEST(TaskGraph, StepSourceRetiresStepsAndKeepsIdsGlobal) {
  // Ten steps of a two-slot pipeline pulled one at a time: ids run on
  // across steps, deps resolve as in a whole plan, the schedule matches the
  // same plan added up front, and the retired ids stop answering.
  const auto add_step = [](TaskGraph& plan, Engine& engine, int q) {
    plan.add(comm_spec({}, {region_id("panel", q % 2)}, 0),
             timed(engine, 0.5));
    plan.add(compute_spec({region_id("panel", q % 2)}), timed(engine, 1.0));
  };
  for (const int lookahead : {0, 1, 2}) {
    SCOPED_TRACE("D=" + std::to_string(lookahead));
    Engine whole_engine;
    TaskGraph whole;
    for (int q = 0; q < 10; ++q) add_step(whole, whole_engine, q);
    whole_engine.spawn([](Engine& e, TaskGraph& g, int d) -> Task<void> {
      co_await run_task_graph(e, g, d);
    }(whole_engine, whole, lookahead));
    whole_engine.run();

    Engine engine;
    int q = 0;
    std::vector<std::vector<int>> comm_deps;  // as resolved at each pull
    TaskGraph pulled([&](TaskGraph& plan) {
      if (q == 10) return false;
      add_step(plan, engine, q++);
      comm_deps.push_back(plan.deps(plan.size() - 2));
      return true;
    });
    engine.spawn([](Engine& e, TaskGraph& g, int d) -> Task<void> {
      co_await run_task_graph(e, g, d);
    }(engine, pulled, lookahead));
    engine.run();
    EXPECT_EQ(engine.now(), whole_engine.now());
    ASSERT_EQ(pulled.size(), whole.size());
    ASSERT_EQ(comm_deps.size(), 10u);
    for (int step = 0; step < 10; ++step)
      EXPECT_EQ(comm_deps[static_cast<std::size_t>(step)],
                whole.deps(2 * step))
          << "step " << step;
    EXPECT_EQ(whole.deps(18), std::vector<int>({14, 15, 16}));
    EXPECT_THROW((void)pulled.spec(19), hs::PreconditionError);
  }
}

TEST(TaskGraph, RunningAGraphTwiceThrows) {
  // A second run would invoke every body again and double the schedule.
  for (const int lookahead : {0, 1}) {
    SCOPED_TRACE("D=" + std::to_string(lookahead));
    Engine engine;
    TaskGraph graph;
    for (int q = 0; q < 2; ++q) {
      graph.add(comm_spec({}, {region_id("panel", q)}, 0), timed(engine, 1.0));
      graph.add(compute_spec({region_id("panel", q)}), timed(engine, 1.0));
    }
    auto run = [&engine, &graph, lookahead] {
      engine.spawn([](Engine& e, TaskGraph& g, int d) -> Task<void> {
        co_await run_task_graph(e, g, d);
      }(engine, graph, lookahead));
      engine.run();
    };
    run();
    const SimTime end = lookahead == 0 ? 4.0 : 3.0;
    EXPECT_EQ(engine.now(), end);
    EXPECT_THROW(run(), hs::PreconditionError);
    EXPECT_EQ(engine.now(), end);
  }
}

// ---------------------------------------------------------------------
// Random plans at D = 1. Each seed builds a plan of 20-60 tasks of random
// kind, priority in {0, 1} (1 one time in eight: at even odds most plans
// stall on a priority inversion), reads and writes over three slots,
// channel in {-1, 0, 1}, an occasional explicit after-edge and a body of
// 0-2 time units in quarter steps (so completions often tie). The digest covers
// the whole observed schedule: issue order and the hexfloat span of every
// finish and wait, then the diagnosis when the plan stalls (the message
// only; the location in front of it moves with the source). The digests
// were captured from the scan-based scheduler that the ready-set one
// replaced. Regenerate with HS_PRINT_GOLDENS=1 only for a change that is
// meant to alter D >= 1 schedules.
// ---------------------------------------------------------------------

constexpr int kRandomPlans = 200;

struct ScheduleLog : TaskObserver {
  struct Event {
    char what;  // 'i'ssued, 'f'inished, 'w'aited
    int id;
    SimTime t0, t1;
  };
  std::vector<Event> events;
  void task_issued(const TaskGraph&, int id) override {
    events.push_back({'i', id, 0.0, 0.0});
  }
  void task_finished(const TaskGraph&, int id, SimTime t0,
                     SimTime t1) override {
    events.push_back({'f', id, t0, t1});
  }
  void task_waited(const TaskGraph&, int id, SimTime t0,
                   SimTime t1) override {
    events.push_back({'w', id, t0, t1});
  }
};

/// How often the random plans reach the decisions the hand-written tests
/// above do not: read back from each schedule, not from the scheduler.
struct Coverage {
  int stalled = 0;
  int candidate_picked = 0;     // a compute issued with deps in flight
  int ready_over_priority = 0;  // a ready compute beat a higher candidate
  int released_by_compute = 0;  // a comm issued behind a compute dep
  int drained = 0;              // a comm joined after every compute ran
};

void tally(const TaskGraph& graph, const ScheduleLog& log,
           Coverage& coverage) {
  const int n = graph.size();
  std::vector<char> issued(static_cast<std::size_t>(n), 0);
  std::vector<char> finished(static_cast<std::size_t>(n), 0);
  auto is_compute = [&graph](int id) {
    return graph.spec(id).kind == TaskKind::Compute;
  };
  auto all_finished = [&](int id, bool computes_only) {
    for (const int dep : graph.deps(id))
      if (!finished[static_cast<std::size_t>(dep)] &&
          (!computes_only || is_compute(dep)))
        return false;
    return true;
  };
  int computes_left = 0;
  for (int id = 0; id < n; ++id) computes_left += is_compute(id) ? 1 : 0;
  // A wait before any compute is issued since the last one finished is a
  // join: the next compute was picked as a candidate with deps in flight.
  bool joined = false;
  bool picked = false, over = false, released = false, drained = false;
  for (const ScheduleLog::Event& event : log.events) {
    const std::size_t at = static_cast<std::size_t>(event.id);
    if (event.what == 'w') {
      joined = true;
      picked = picked || computes_left > 0;
      drained = drained || computes_left == 0;
    }
    if (event.what == 'f') {
      finished[at] = 1;
      if (is_compute(event.id)) {
        --computes_left;
        joined = false;
      }
    }
    if (event.what != 'i') continue;
    issued[at] = 1;
    if (!is_compute(event.id)) {
      for (const int dep : graph.deps(event.id))
        released = released || is_compute(dep);
      continue;
    }
    if (joined) continue;
    for (int other = 0; other < n; ++other)
      if (is_compute(other) && !issued[static_cast<std::size_t>(other)] &&
          graph.spec(other).priority > graph.spec(event.id).priority &&
          all_finished(other, true) && !all_finished(other, false))
        over = true;
  }
  coverage.candidate_picked += picked ? 1 : 0;
  coverage.ready_over_priority += over ? 1 : 0;
  coverage.released_by_compute += released ? 1 : 0;
  coverage.drained += drained ? 1 : 0;
}

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t random_plan_digest(std::uint64_t seed, Coverage& coverage) {
  hs::Rng rng(seed);
  Engine engine;
  TaskGraph graph;
  const int n = 20 + static_cast<int>(rng.uniform_int(41));
  for (int id = 0; id < n; ++id) {
    TaskSpec spec;
    spec.kind = rng.uniform_int(2) == 0 ? TaskKind::Comm : TaskKind::Compute;
    spec.priority = rng.uniform_int(8) == 0 ? 1 : 0;
    spec.channel = static_cast<int>(rng.uniform_int(3)) - 1;
    for (std::uint64_t slot = 0; slot < 3; ++slot) {
      if (rng.uniform_int(3) == 0) spec.in.push_back(region_id("slot", slot));
      if (rng.uniform_int(3) == 0) spec.out.push_back(region_id("slot", slot));
    }
    if (id > 0 && rng.uniform_int(8) == 0)
      spec.after.push_back(static_cast<int>(
          rng.uniform_int(static_cast<std::uint64_t>(id))));
    const double duration = 0.25 * static_cast<double>(rng.uniform_int(9));
    graph.add(std::move(spec), timed(engine, duration));
  }
  ScheduleLog log;
  engine.spawn([](Engine& e, TaskGraph& g, ScheduleLog& l) -> Task<void> {
    co_await run_task_graph(e, g, 1, &l);
  }(engine, graph, log));
  std::ostringstream digest;
  digest << std::hexfloat;
  std::string stall;
  try {
    engine.run();
  } catch (const hs::PreconditionError& error) {
    const std::string_view what = error.what();
    const std::size_t dash = what.find("\u2014");
    stall = std::string(what.substr(dash == std::string_view::npos ? 0 : dash));
    ++coverage.stalled;
  }
  for (const ScheduleLog::Event& event : log.events) {
    digest << event.what << ' ' << event.id;
    if (event.what != 'i') digest << ' ' << event.t0 << ' ' << event.t1;
    digest << '\n';
  }
  digest << stall;
  tally(graph, log, coverage);
  return fnv1a(digest.str());
}

std::uint64_t random_plan_seed(int plan) {
  return 0x7a5c0000ull + static_cast<std::uint64_t>(plan);
}

constexpr std::uint64_t kRandomPlanDigests[kRandomPlans] = {
    0x8154603bf590249full, 0xa463080400254fcfull, 0x7e1b6dd80ef3ff4aull,
    0xb6113f739460c3f3ull, 0x4b6dd239d77e367eull, 0xc9a61ce87dceecc1ull,
    0x6a19e342b4d8eeefull, 0x9452c0b0ad10acb8ull, 0xd7bdfb1a5dae3b1cull,
    0x44ee1d39bf54bd80ull, 0x3015560ed9a17494ull, 0x35374c018e432591ull,
    0xfdc1dd00debea999ull, 0xa86ae4aaea7db742ull, 0xfc4f9dc4a93241f3ull,
    0x090c994973d8faceull, 0x245ae44b96f456beull, 0x3c1349cda587f3d2ull,
    0xf38f3b88e4f55d5eull, 0xa65a49273416da8aull, 0x620c282d639daa5bull,
    0xbe88fe17d3d015dbull, 0xf3e879db71ee2691ull, 0x0f45c4193401b9d4ull,
    0xd050733f11e5024full, 0x179df30555a950efull, 0x136c8f23ea002c93ull,
    0xc244d606e1463e44ull, 0x840ad2235c816213ull, 0x8b61c66018aa36ecull,
    0xf723522431f0f50eull, 0x0c50cf515dcf7080ull, 0x8f5c77b69fbe0272ull,
    0x92927f83f7bc3dd4ull, 0x89a25f857d4a9a0bull, 0xe6f6430b9ee7f9e2ull,
    0xb84f76417904a076ull, 0x58f3ae41c53cefa2ull, 0xd8bdfd8e7eaba34eull,
    0x0bfe9935789e3c2aull, 0xc85ba9d518ed5bcaull, 0xd969c9a38b617ba5ull,
    0xd4daeb018d80fbeaull, 0xc66f2411ffe8bc77ull, 0x96e1d975287ca399ull,
    0x1afa220acc31d571ull, 0xff6fd22e54bc4f5aull, 0xc6c549615c2a7a4eull,
    0x0d2803299085e1c9ull, 0xcdf490c42cee0ad3ull, 0xdf684298375f5f4full,
    0x2608da0da568cc02ull, 0x54145363f37c88fbull, 0xc9a3f986f1a42adeull,
    0xe183a7400912442full, 0xa24e86ade2d30ae0ull, 0x604034f740fe64c4ull,
    0xced37b2f6c4cf9d2ull, 0x4f6e7c6834a3becbull, 0xd160edddd2d27058ull,
    0xf83ad0c06c359d00ull, 0x7b3b5715783a3685ull, 0x7d3fc1bd2c957707ull,
    0x3748afbbd9f55fa7ull, 0xba1f734d2c613d11ull, 0x44ddba7891156147ull,
    0x7ace06b70b81e7f3ull, 0x73a9d9842787c9bbull, 0xdd4a0723d309456dull,
    0x110e19f8df374263ull, 0xc2a0a30cc6846646ull, 0x1aa47200b249bc0aull,
    0x637cb0ce57f31012ull, 0x7a5ed1dc0266175bull, 0x605ecf06613ae48aull,
    0x0baa21e92cb58484ull, 0x96e882d759c8f330ull, 0x1d2fded51ea16379ull,
    0x6cafdfb46a5bac6dull, 0xbc159da5e1a7b048ull, 0xa4a66db6461a559full,
    0x8beef7e6dbc71f64ull, 0x16298bc3636c6f7aull, 0xf62e2dd5067d3af9ull,
    0x59b4235d13a7c53full, 0x06ce81c349a98de2ull, 0xa029702da516ea11ull,
    0x5e3d030cda9a4e21ull, 0xf501fc11b341cb12ull, 0x3785eb381c2c0115ull,
    0xb22411acac29e520ull, 0x6a3b3580acc15dd9ull, 0xf237f087ae2a9be1ull,
    0x0a5b9e5590e1b077ull, 0x92854a7d34863934ull, 0xf49c87e6a4c71aeaull,
    0xb8f6265ac727dcd6ull, 0xa4c9a44466c765f5ull, 0xfd8efcdfe2223fa2ull,
    0x4357d6d07afbc975ull, 0xba84cb4c993222fdull, 0xe9bb2dc9beb4a05cull,
    0x2c7fc3392800043dull, 0xb6ac87bfdcbc4e78ull, 0x7d12cc9b395fe8d0ull,
    0x21bbd64cdb6d5b13ull, 0x6ae435e59410e3afull, 0xd0564ac57cbea493ull,
    0x7290cdf90edc65beull, 0x495668c4295838f6ull, 0x776d485bd8195ed4ull,
    0xd4544b21cb11ad90ull, 0x313b60d11c86e592ull, 0x34dd47110345789bull,
    0xb5d5bc7b2c73aba7ull, 0x5e16a55fa0f6e26aull, 0x394ed6ec6ff688dbull,
    0xb02b49c986a88c5cull, 0x3ab557f056fcb1e5ull, 0x6aa96d7298385c5bull,
    0xf19a9f0fc166e688ull, 0x9e7faabf8086ead4ull, 0xcfbe3920173d4dd8ull,
    0xe1c19a80d6f5187bull, 0xb24927db68aefd8eull, 0xbfc7d963ea592275ull,
    0x1bb64c0c5d42b9c6ull, 0x9566400d5f15d556ull, 0x4dd256749a86a851ull,
    0xfe830178c226dc63ull, 0x26aef599677b28d9ull, 0x1cb033e56b5149f9ull,
    0x46b80d8dfbeb34f0ull, 0xef7b8b2856b28e28ull, 0x5736a0790e43a465ull,
    0x25d8a5cf22ed8495ull, 0x691e267375a996d4ull, 0x33f086ac5388174cull,
    0x51c6fdef76cbd577ull, 0xa202959fd32725c3ull, 0x3ef8b70112396e53ull,
    0x5e402f0536406693ull, 0x01ec8e0980225f2aull, 0xf548c7f8a9e0401bull,
    0xa5215fd925c11aabull, 0x5b09183103148b96ull, 0xc1363126437153d1ull,
    0x973816bee1b7ff74ull, 0x9c93f537d4f0b463ull, 0xdc44b04ef48a8c79ull,
    0x2e03a561988901acull, 0xa0fc3ab3ee3ff35cull, 0x48d730b2fbd88461ull,
    0xf30e01de416d3c5full, 0x75597019aed11762ull, 0x9ef7681ac6aa12f7ull,
    0xd79083f2b41ad15dull, 0x29ae290cb9d5e854ull, 0xa329afe36fc75cdaull,
    0xfd82c0bcf3b8b7c4ull, 0x0a83b8ba1b68b803ull, 0xf4674ac4e124e87eull,
    0x00330afdda574906ull, 0x14df4a10344cc696ull, 0xeed7483383e392d4ull,
    0x8e75a652e35baa71ull, 0x8d482b0405d75215ull, 0x154edef4baa20dc1ull,
    0x6043c7ff33e8b022ull, 0x3644530382f953b4ull, 0x7c2cf3025dd3ef6cull,
    0x7376fb056b83f3f7ull, 0x7d914abdaa468bbaull, 0xb7aa263a70c81a2full,
    0x1c827558309babbeull, 0x4ebfaaac3e94cc9bull, 0xb419a3cb651a9e97ull,
    0xbbb3ab660b4eeefdull, 0x0cbc02ed7ec56260ull, 0x071464849ef21858ull,
    0x8e753991bfa952f8ull, 0xbf93f2c7c822385full, 0xb46e8aea078254f9ull,
    0xfc02a32264d9c80cull, 0x7d9547eb6cd35912ull, 0xfeeee91a697b601full,
    0x6a4037c68e2bda3bull, 0xb759edaff5cc6648ull, 0x81492b63cc10cfcaull,
    0x72e5175319fba8adull, 0x4a052763ca9b8817ull, 0x41517b31c73539aeull,
    0xa349d238e7e52a30ull, 0xe932105605ebfd48ull, 0xceb3805b3ae2d625ull,
    0x728a4fc2b1caa503ull, 0xeb40e30bffe7f2dcull, 0x453499e2f79b8003ull,
    0xbe520ee826eedb54ull, 0x42651c6b69827913ull,
};

bool print_goldens_requested() {
  const char* env = std::getenv("HS_PRINT_GOLDENS");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

TEST(TaskGraph, RandomPlansMatchScheduleGoldens) {
  Coverage coverage;
  if (print_goldens_requested()) {
    std::printf(
        "constexpr std::uint64_t kRandomPlanDigests[kRandomPlans] = {\n");
    for (int plan = 0; plan < kRandomPlans; ++plan)
      std::printf("%s0x%016llxull,%s", plan % 3 == 0 ? "    " : " ",
                  static_cast<unsigned long long>(
                      random_plan_digest(random_plan_seed(plan), coverage)),
                  plan % 3 == 2 ? "\n" : "");
    std::printf("\n};\n");
    GTEST_SKIP() << "golden print mode";
  }
  for (int plan = 0; plan < kRandomPlans; ++plan)
    EXPECT_EQ(random_plan_digest(random_plan_seed(plan), coverage),
              kRandomPlanDigests[plan])
        << "plan " << plan;
  // The plans must keep reaching what they exist to pin down.
  EXPECT_GT(coverage.stalled, 0);
  EXPECT_LT(coverage.stalled, kRandomPlans);
  EXPECT_GT(coverage.candidate_picked, 0);
  EXPECT_GT(coverage.ready_over_priority, 0);
  EXPECT_GT(coverage.released_by_compute, 0);
  EXPECT_GT(coverage.drained, 0);
}

}  // namespace
