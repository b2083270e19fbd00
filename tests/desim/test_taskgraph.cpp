// TaskGraph semantics: dependency resolution from region declarations,
// inline (lookahead = 0) program-order execution, and the overlapping
// scheduler's core guarantees — comm runs behind compute, slot-ring
// write-after-read edges bound the look-ahead window, and equal graphs
// produce bit-identical schedules.
#include <gtest/gtest.h>

#include <string>
#include <vector>

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

}  // namespace
