// Task-plan bit-equivalence goldens.
//
// The numbers below were captured from the kernels BEFORE the task runtime
// landed: the ":blk" rows from the classic blocking loops, the ":ovl" rows
// from the hand-rolled double-buffered pipelines that the task runtime
// replaced. They are unreproducible from source now, which is the point —
// the task-plan lowering must keep producing them:
//
//   * lookahead = 0 through core::run exercises the blocking loops the
//     kernels kept (guards the tracer instrumentation added to them);
//   * *_task_plan driven directly at D = 0 must replay the blocking
//     schedule bit-identically (inline execution in program order);
//   * lookahead = 1 through core::run (which delegates to the task plan)
//     must replay the deleted double-buffered pipelines bit-identically —
//     the pipeline-coupling edges pin every fork to the old instants.
//
// "Bit-identical" is literal: virtual times compare with EXPECT_EQ on the
// doubles, and message/wire-byte counters exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/runner.hpp"
#include "core/task_plan.hpp"
#include "net/model.hpp"

namespace {

using hs::core::Algorithm;
using hs::core::PayloadMode;
using hs::core::ProblemSpec;
using hs::core::RunOptions;
using hs::mpc::CollectiveMode;

struct Golden {
  double total_time;
  double max_comm_time;
  double max_comp_time;
  double level0_comm;  // HSUMMA's outer phase (max_level_comm_time[0])
  double level1_comm;  // its inner phase (max_level_comm_time[1])
  std::uint64_t messages;
  std::uint64_t wire_bytes;
};

struct Cfg {
  std::string name;  // golden key without the :blk/:ovl suffix
  RunOptions options;
  CollectiveMode collective_mode = CollectiveMode::ClosedForm;
  double gamma = 5e-8;
  bool has_overlap_golden = true;  // cannon/lu predate overlap support
};

struct GoldenRow {
  const char* name;
  Golden golden;
};

// Captured 2026-08 from commit 8ff2a75 (pre-task-runtime kernels),
// HockneyModel(1e-4, 1e-9), PayloadMode::Phantom.
constexpr GoldenRow kGoldens[] = {
    {"summa:sq:cf:g1e-9:blk",
     {0x1.279d52e1a44a5p-7, 0x1.c5ca468211ep-8, 0x1.12e0be826d694p-9, 0x0p+0,
      0x0p+0, 384u, 3145728u}},
    {"summa:sq:cf:g5e-8:blk",
     {0x1.c9dbce13ec124p-4, 0x1.c5ca468211ep-8, 0x1.ad7f29abcaf44p-4, 0x0p+0,
      0x0p+0, 384u, 3145728u}},
    {"summa:sq:pp:g5e-8:blk",
     {0x1.c9dbce13ec132p-4, 0x1.c5ca468211eep-8, 0x1.ad7f29abcaf44p-4,
      0x0p+0, 0x0p+0, 384u, 3145728u}},
    {"summa:rect:cf:g5e-8:blk",
     {0x1.c2c4a4f9e3caap-4, 0x1.5457b4e18d65p-8, 0x1.ad7f29abcaf45p-4,
      0x0p+0, 0x0p+0, 160u, 1310720u}},
    {"summa:rect:pp:g5e-8:blk",
     {0x1.c2c4a4f9e3cb6p-4, 0x1.5457b4e18d71p-8, 0x1.ad7f29abcaf45p-4,
      0x0p+0, 0x0p+0, 160u, 1310720u}},
    {"summa:sq:cf:sra:blk",
     {0x1.f0a4b21555406p-4, 0x1.0c9621a629302p-6, 0x1.ad7f29abcaf46p-4,
      0x0p+0, 0x0p+0, 384u, 3145728u}},
    {"hsumma:sq22:cf:g1e-9:blk",
     {0x1.5c0b18b7dcd02p-7, 0x1.1752e9174176p-7, 0x1.12e0be826d689p-9,
      0x1.e8265e525f8e8p-11, 0x1.f1a1066436fa6p-8, 576u, 3145728u}},
    {"hsumma:sq22:cf:g5e-8:blk",
     {0x1.d06986ceb3227p-4, 0x1.1752e91741726p-7, 0x1.ad7f29abcaf42p-4,
      0x1.e8265e525f874p-11, 0x1.f1a1066436f44p-8, 576u, 3145728u}},
    {"hsumma:sq22:pp:g5e-8:blk",
     {0x1.d06986ceb3227p-4, 0x1.1752e91741726p-7, 0x1.ad7f29abcaf42p-4,
      0x1.e8265e525f874p-11, 0x1.f1a1066436f44p-8, 576u, 3145728u}},
    {"hsumma:sq42:cf:g5e-8:blk",
     {0x1.c694f1b688898p-4, 0x1.915c80abd954bp-8, 0x1.ad7f29abcaf43p-4,
      0x1.3117faf37bb58p-9, 0x1.f1a1066436f44p-9, 384u, 3145728u}},
    {"hsumma:rect12:cf:g5e-8:blk",
     {0x1.cc993a120e636p-4, 0x1.f1a1066436f41p-8, 0x1.ad7f29abcaf42p-4,
      0x1.e8265e525f874p-12, 0x1.d31ea07f10fbdp-8, 272u, 1310720u}},
    {"hsumma:rect12:pp:g5e-8:blk",
     {0x1.cc993a120e636p-4, 0x1.f1a1066436f41p-8, 0x1.ad7f29abcaf42p-4,
      0x1.e8265e525f874p-12, 0x1.d31ea07f10fbdp-8, 272u, 1310720u}},
    {"summa:sq:cf:g1e-9:ovl",
     {0x1.d6f8526a38b69p-9, 0x1.882f27cf969acp-10, 0x1.12e0be826d693p-9,
      0x0p+0, 0x0p+0, 384u, 3145728u}},
    {"summa:sq:cf:g5e-8:ovl",
     {0x1.ae620ecf0bfd4p-4, 0x1.c5ca468211ep-13, 0x1.ad7f29abcaf45p-4,
      0x0p+0, 0x0p+0, 384u, 3145728u}},
    {"summa:sq:pp:g5e-8:ovl",
     {0x1.af44f3f24d064p-4, 0x1.c5ca468211ep-12, 0x1.ad7f29abcaf46p-4,
      0x0p+0, 0x0p+0, 384u, 3145728u}},
    {"summa:rect:cf:g5e-8:ovl",
     {0x1.ae620ecf0bfd4p-4, 0x1.c5ca468211ep-13, 0x1.ad7f29abcaf45p-4,
      0x0p+0, 0x0p+0, 160u, 1310720u}},
    {"summa:rect:pp:g5e-8:ovl",
     {0x1.aed38160ac81cp-4, 0x1.5457b4e18d68p-12, 0x1.ad7f29abcaf46p-4,
      0x0p+0, 0x0p+0, 160u, 1310720u}},
    {"summa:sq:cf:sra:ovl",
     {0x1.af9855ef1746cp-4, 0x1.0c9621a629304p-11, 0x1.ad7f29abcaf46p-4,
      0x0p+0, 0x0p+0, 384u, 3145728u}},
    {"hsumma:sq22:cf:g1e-9:ovl",
     {0x1.76b3ccb1db14fp-8, 0x1.da86dae148c0ep-9, 0x1.12e0be826d691p-9,
      0x1.e8265e525f8d8p-11, 0x1.607d434cb0ddap-9, 576u, 3145728u}},
    {"hsumma:sq22:cf:g5e-8:ovl",
     {0x1.b71aded38a80ap-4, 0x1.3376a4f7f18fbp-9, 0x1.ad7f29abcaf42p-4,
      0x1.e8265e525f874p-11, 0x1.72da1ac6b35d6p-10, 576u, 3145728u}},
    {"hsumma:sq22:pp:g5e-8:ovl",
     {0x1.b93ca21ccae67p-4, 0x1.77af0e1ffe486p-9, 0x1.ad7f29abcaf43p-4,
      0x1.e8265e525f874p-11, 0x1.fb4aed16ccce8p-10, 576u, 3145728u}},
    {"hsumma:sq42:cf:g5e-8:ovl",
     {0x1.bc594856ed077p-4, 0x1.db43d5644267p-9, 0x1.ad7f29abcaf44p-4,
      0x1.3117faf37bb58p-9, 0x1.5457b4e18d63fp-10, 384u, 3145728u}},
    {"hsumma:rect12:cf:g5e-8:ovl",
     {0x1.b4b8aedda3894p-4, 0x1.ce614c762544ep-10, 0x1.ad7f29abcaf43p-4,
      0x1.e8265e525f874p-12, 0x1.5457b4e18d63ep-10, 272u, 1310720u}},
    {"hsumma:rect12:pp:g5e-8:ovl",
     {0x1.b6da7226e3efp-4, 0x1.2b690f631f5b3p-9, 0x1.ad7f29abcaf43p-4,
      0x1.e8265e525f874p-12, 0x1.dcc88731a6d56p-10, 272u, 1310720u}},
    {"cannon:sq:cf:g1e-9:blk",
     {0x1.9e1861ff2c233p-9, 0x1.166f46f97d73ep-10, 0x1.12e0be826d694p-9,
      0x0p+0, 0x0p+0, 120u, 3932160u}},
    {"cannon:sq:cf:g5e-8:blk",
     {0x1.b1d8e6c7b0ea5p-4, 0x1.166f46f97d758p-10, 0x1.ad7f29abcaf48p-4,
      0x0p+0, 0x0p+0, 120u, 3932160u}},
    {"cannon:sq:pp:g5e-8:blk",
     {0x1.b1d8e6c7b0ea5p-4, 0x1.166f46f97d758p-10, 0x1.ad7f29abcaf48p-4,
      0x0p+0, 0x0p+0, 120u, 3932160u}},
    {"lu:sq:cf:g5e-8:blk",
     {0x1.9f3fc053e21ecp-4, 0x1.698fdb1e68c03p-4, 0x1.65e9f80f2920ep-4,
      0x0p+0, 0x0p+0, 312u, 1671168u}},
    {"lu:sq:pp:g5e-8:blk",
     {0x1.9c9710ea1f038p-4, 0x1.66e72bb4a5a4fp-4, 0x1.65e9f80f2920ep-4,
      0x0p+0, 0x0p+0, 312u, 1671168u}},
    {"lu:sq:cf:g1e-9:blk",
     {0x1.bcde3f6314752p-7, 0x1.b447396f0109ep-7, 0x1.ca213d840bb0ap-10,
      0x0p+0, 0x0p+0, 312u, 1671168u}},
    {"lu:sq:hier:cf:g5e-8:blk",
     {0x1.9c99e278131a6p-4, 0x1.66e9fd4299bbdp-4, 0x1.65e9f80f2920ep-4,
      0x0p+0, 0x0p+0, 312u, 1671168u}},
    {"lu:rect:cf:g5e-8:blk",
     {0x1.5b99f37571e07p-3, 0x1.25ea0e3ff881ep-3, 0x1.392cb90d43fcep-3,
      0x0p+0, 0x0p+0, 166u, 1114112u}},
};

const Golden& golden(const std::string& key) {
  for (const GoldenRow& row : kGoldens)
    if (key == row.name) return row.golden;
  ADD_FAILURE() << "no golden named " << key;
  static const Golden zero{};
  return zero;
}

std::vector<Cfg> configs() {
  std::vector<Cfg> cfgs;
  auto add = [&cfgs](std::string name, Algorithm alg, hs::grid::GridShape g,
                     ProblemSpec prob, CollectiveMode mode, double gamma,
                     hs::grid::GridShape groups = {1, 1},
                     std::optional<hs::net::BcastAlgo> bcast = std::nullopt,
                     std::vector<int> row_levels = {},
                     std::vector<int> col_levels = {},
                     bool has_overlap_golden = true) {
    Cfg c;
    c.name = std::move(name);
    c.options.algorithm = alg;
    c.options.grid = g;
    c.options.groups = groups;
    c.options.problem = prob;
    c.options.mode = PayloadMode::Phantom;
    c.options.bcast_algo = bcast;
    c.options.row_levels = std::move(row_levels);
    c.options.col_levels = std::move(col_levels);
    c.collective_mode = mode;
    c.gamma = gamma;
    c.has_overlap_golden = has_overlap_golden;
    cfgs.push_back(std::move(c));
  };
  const auto CF = CollectiveMode::ClosedForm;
  const auto PP = CollectiveMode::PointToPoint;
  const auto SQ = ProblemSpec::square(256, 16);
  const ProblemSpec RECT{128, 256, 256, 16, 0};
  const auto HSQ = ProblemSpec::square(256, 8, 32);
  const ProblemSpec HRECT{128, 256, 256, 8, 32};
  add("summa:sq:cf:g1e-9", Algorithm::Summa, {4, 4}, SQ, CF, 1e-9);
  add("summa:sq:cf:g5e-8", Algorithm::Summa, {4, 4}, SQ, CF, 5e-8);
  add("summa:sq:pp:g5e-8", Algorithm::Summa, {4, 4}, SQ, PP, 5e-8);
  add("summa:rect:cf:g5e-8", Algorithm::Summa, {2, 4}, RECT, CF, 5e-8);
  add("summa:rect:pp:g5e-8", Algorithm::Summa, {2, 4}, RECT, PP, 5e-8);
  add("summa:sq:cf:sra", Algorithm::Summa, {4, 4}, SQ, CF, 5e-8, {1, 1},
      hs::net::BcastAlgo::ScatterRingAllgather);
  add("hsumma:sq22:cf:g1e-9", Algorithm::Hsumma, {4, 4}, HSQ, CF, 1e-9,
      {2, 2});
  add("hsumma:sq22:cf:g5e-8", Algorithm::Hsumma, {4, 4}, HSQ, CF, 5e-8,
      {2, 2});
  add("hsumma:sq22:pp:g5e-8", Algorithm::Hsumma, {4, 4}, HSQ, PP, 5e-8,
      {2, 2});
  add("hsumma:sq42:cf:g5e-8", Algorithm::Hsumma, {4, 4}, HSQ, CF, 5e-8,
      {4, 2});
  add("hsumma:rect12:cf:g5e-8", Algorithm::Hsumma, {2, 4}, HRECT, CF, 5e-8,
      {1, 2});
  add("hsumma:rect12:pp:g5e-8", Algorithm::Hsumma, {2, 4}, HRECT, PP, 5e-8,
      {1, 2});
  // Cannon and LU had no overlap pipeline before the task runtime, so only
  // their blocking schedules have pre-task-runtime goldens.
  add("cannon:sq:cf:g1e-9", Algorithm::Cannon, {4, 4}, SQ, CF, 1e-9, {1, 1},
      std::nullopt, {}, {}, false);
  add("cannon:sq:cf:g5e-8", Algorithm::Cannon, {4, 4}, SQ, CF, 5e-8, {1, 1},
      std::nullopt, {}, {}, false);
  add("cannon:sq:pp:g5e-8", Algorithm::Cannon, {4, 4}, SQ, PP, 5e-8, {1, 1},
      std::nullopt, {}, {}, false);
  const auto LUP = ProblemSpec::factorization(256, 16);
  add("lu:sq:cf:g5e-8", Algorithm::Lu, {4, 4}, LUP, CF, 5e-8, {1, 1},
      std::nullopt, {}, {}, false);
  add("lu:sq:pp:g5e-8", Algorithm::Lu, {4, 4}, LUP, PP, 5e-8, {1, 1},
      std::nullopt, {}, {}, false);
  add("lu:sq:cf:g1e-9", Algorithm::Lu, {4, 4}, LUP, CF, 1e-9, {1, 1},
      std::nullopt, {}, {}, false);
  add("lu:sq:hier:cf:g5e-8", Algorithm::Lu, {4, 4}, LUP, CF, 5e-8, {1, 1},
      std::nullopt, {2}, {2}, false);
  add("lu:rect:cf:g5e-8", Algorithm::Lu, {2, 4}, LUP, CF, 5e-8, {1, 1},
      std::nullopt, {}, {}, false);
  return cfgs;
}

Golden to_golden(const hs::core::RunResult& r) {
  return {r.timing.total_time,    r.timing.max_comm_time,
          r.timing.max_comp_time, r.timing.level_comm(0),
          r.timing.level_comm(1), r.messages,
          r.wire_bytes};
}

void expect_eq(const Golden& expected, const Golden& actual,
               const std::string& what) {
  EXPECT_EQ(expected.total_time, actual.total_time) << what;
  EXPECT_EQ(expected.max_comm_time, actual.max_comm_time) << what;
  EXPECT_EQ(expected.max_comp_time, actual.max_comp_time) << what;
  EXPECT_EQ(expected.level0_comm, actual.level0_comm) << what;
  EXPECT_EQ(expected.level1_comm, actual.level1_comm) << what;
  EXPECT_EQ(expected.messages, actual.messages) << what;
  EXPECT_EQ(expected.wire_bytes, actual.wire_bytes) << what;
}

std::unique_ptr<hs::mpc::Machine> make_machine(hs::desim::Engine& engine,
                                               const Cfg& cfg) {
  return std::make_unique<hs::mpc::Machine>(
      engine, std::make_shared<hs::net::HockneyModel>(1e-4, 1e-9),
      hs::mpc::MachineConfig{.ranks = cfg.options.grid.size(),
                             .collective_mode = cfg.collective_mode,
                             .gamma_flop = cfg.gamma});
}

/// cfg through the production entry point with the given look-ahead depth.
Golden run_kernel(const Cfg& cfg, int lookahead) {
  hs::desim::Engine engine;
  auto machine = make_machine(engine, cfg);
  RunOptions options = cfg.options;
  options.lookahead = lookahead;
  return to_golden(hs::core::run(*machine, options));
}

/// cfg through *_task_plan directly — the only way to reach the task graph
/// at D = 0, where the production kernels keep their blocking loops.
Golden run_task_plan(const Cfg& cfg, int lookahead) {
  hs::desim::Engine engine;
  auto machine = make_machine(engine, cfg);
  const int ranks = cfg.options.grid.size();
  std::vector<hs::trace::RankStats> stats(static_cast<std::size_t>(ranks));
  const double start_time = engine.now();
  const std::uint64_t start_messages = machine->messages_transferred();
  const std::uint64_t start_bytes = machine->bytes_transferred();
  for (int rank = 0; rank < ranks; ++rank) {
    hs::trace::RankStats* rank_stats =
        &stats[static_cast<std::size_t>(rank)];
    hs::desim::Task<void> program;
    switch (cfg.options.algorithm) {
      case Algorithm::Summa:
        program = hs::core::summa_task_plan(
            {machine->world(rank), cfg.options.grid, cfg.options.problem,
             nullptr, rank_stats, cfg.options.bcast_algo, lookahead, {}});
        break;
      case Algorithm::Hsumma:
        program = hs::core::hsumma_task_plan(
            {machine->world(rank), cfg.options.grid, cfg.options.groups,
             cfg.options.problem, nullptr, rank_stats, cfg.options.bcast_algo,
             lookahead, {}});
        break;
      case Algorithm::Cannon:
        program = hs::core::cannon_task_plan(
            {machine->world(rank), cfg.options.grid, cfg.options.problem,
             nullptr, rank_stats, lookahead, {}});
        break;
      case Algorithm::Lu: {
        hs::core::LuArgs args;
        args.comm = machine->world(rank);
        args.shape = cfg.options.grid;
        args.n = cfg.options.problem.n;
        args.block = cfg.options.problem.block;
        args.row_levels = cfg.options.row_levels;
        args.col_levels = cfg.options.col_levels;
        args.stats = rank_stats;
        args.bcast_algo = cfg.options.bcast_algo;
        args.lookahead = lookahead;
        program = hs::core::lu_task_plan(std::move(args));
        break;
      }
      default:
        ADD_FAILURE() << "no task plan for this algorithm";
        return {};
    }
    engine.spawn_indexed(std::move(program), "taskplan", rank);
  }
  engine.run();
  hs::core::RunResult result;
  result.timing =
      hs::trace::TimingReport::aggregate(engine.now() - start_time, stats);
  result.messages = machine->messages_transferred() - start_messages;
  result.wire_bytes = machine->bytes_transferred() - start_bytes;
  return to_golden(result);
}

// The blocking loops kept in the kernels (the production D = 0 path) still
// produce the pre-task-runtime numbers — the tracer instrumentation and
// delegation check added to them perturbed nothing.
TEST(TaskPlanGoldens, LegacyBlockingUnchanged) {
  for (const Cfg& cfg : configs())
    expect_eq(golden(cfg.name + ":blk"), run_kernel(cfg, 0),
              cfg.name + " blocking via core::run");
}

// D = 0 runs the graph inline in program order: bit-identical to the
// blocking loop for every kernel, collective mode, and grid shape.
TEST(TaskPlanGoldens, InlinePlanReproducesBlockingSchedule) {
  for (const Cfg& cfg : configs())
    expect_eq(golden(cfg.name + ":blk"), run_task_plan(cfg, 0),
              cfg.name + " task plan at D=0");
}

// D = 1 (the production lookahead >= 1 path delegates to the task plan)
// reproduces the deleted hand-rolled double-buffered pipelines.
TEST(TaskPlanGoldens, DepthOnePlanReproducesDoubleBuffer) {
  for (const Cfg& cfg : configs()) {
    if (!cfg.has_overlap_golden) continue;
    expect_eq(golden(cfg.name + ":ovl"), run_kernel(cfg, 1),
              cfg.name + " task plan at D=1");
  }
}

// Deeper look-ahead must never change what is computed or sent — only when.
// Counters are schedule-invariant; total time is monotonically <= blocking.
TEST(TaskPlanGoldens, DeeperLookaheadKeepsCountersAndNeverSlowsDown) {
  for (const Cfg& cfg : configs()) {
    const Golden blocking = golden(cfg.name + ":blk");
    for (int depth : {2, 3}) {
      const Golden deep = run_kernel(cfg, depth);
      EXPECT_EQ(blocking.messages, deep.messages)
          << cfg.name << " D=" << depth;
      EXPECT_EQ(blocking.wire_bytes, deep.wire_bytes)
          << cfg.name << " D=" << depth;
      // Compute charges are identical but start at different instants, so
      // the accumulated span sum can drift by ulps — near, not equal.
      EXPECT_NEAR(blocking.max_comp_time, deep.max_comp_time,
                  1e-12 * blocking.max_comp_time)
          << cfg.name << " D=" << depth;
      EXPECT_LE(deep.total_time, blocking.total_time)
          << cfg.name << " D=" << depth;
    }
  }
}

}  // namespace
