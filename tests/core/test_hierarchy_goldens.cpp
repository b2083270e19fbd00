// Multi-level hierarchy bit-equivalence goldens: `--lookahead D` composes
// with L-level chains.
//
//   * D = 0 through summa_task_plan replays the blocking loop
//     bit-identically at every L (inline execution in program order);
//   * a flat chain through hsumma-multilevel is bit-identical to plain
//     SUMMA at D = 0, 1 and 2 — the chain machinery adds nothing when
//     there is nothing to split;
//   * the kGoldens rows pin D in {0, 1, 2} x L in {1, 2, 3} (plus a
//     skipped-level chain and a rectangular grid) to hexfloat-exact
//     numbers, including the per-level comm split, and flat SUMMA on grids
//     with a size-1 axis in both collective modes. Regenerate with
//     HS_CAPTURE_GOLDENS=1 (the Capture test prints the table).
//
// "Bit-identical" is literal: EXPECT_EQ on doubles, counters exact.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
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

constexpr int kLevelSlots = 3;

struct Golden {
  double total_time;
  double max_comm_time;
  double max_comp_time;
  std::uint64_t messages;
  std::uint64_t wire_bytes;
  double level_comm[kLevelSlots];
};

struct Cfg {
  std::string name;
  RunOptions options;
  CollectiveMode collective_mode = CollectiveMode::PointToPoint;
};

std::vector<Cfg> configs() {
  std::vector<Cfg> cfgs;
  auto add = [&cfgs](std::string name, hs::grid::GridShape grid,
                     ProblemSpec problem, std::vector<int> row_levels,
                     std::vector<int> col_levels) {
    Cfg c;
    c.name = std::move(name);
    c.options.algorithm = Algorithm::HsummaMultilevel;
    c.options.grid = grid;
    c.options.problem = problem;
    c.options.row_levels = std::move(row_levels);
    c.options.col_levels = std::move(col_levels);
    c.options.mode = PayloadMode::Phantom;
    cfgs.push_back(std::move(c));
  };
  const auto SQ = ProblemSpec::square(128, 8);
  add("l1", {8, 8}, SQ, {}, {});
  add("l2", {8, 8}, SQ, {2}, {2});
  add("l3", {8, 8}, SQ, {2, 2}, {2, 2});
  // A factor of 1 keeps its level slot (alignment) without a phase.
  add("skip", {8, 8}, SQ, {1, 4}, {4, 1});
  add("rect", {4, 8}, ProblemSpec{64, 128, 128, 8, 0}, {2}, {2});
  // Flat SUMMA on grids with a size-1 axis, where the chain kernel has no
  // broadcast stage at all; both collective modes.
  for (const auto& [grid_name, grid] :
       {std::pair<const char*, hs::grid::GridShape>{"1x4", {1, 4}},
        {"4x1", {4, 1}}}) {
    for (const auto& [mode_name, mode] :
         {std::pair<const char*, CollectiveMode>{"pp",
                                                 CollectiveMode::PointToPoint},
          {"cf", CollectiveMode::ClosedForm}}) {
      add(std::string("summa") + grid_name + ":" + mode_name, grid, SQ, {},
          {});
      cfgs.back().options.algorithm = Algorithm::Summa;
      cfgs.back().collective_mode = mode;
    }
  }
  return cfgs;
}

// Captured when the multilevel kernel gained its task plan (there is no
// earlier reference), HockneyModel(1e-4, 1e-9), gamma 5e-8,
// PayloadMode::Phantom, PointToPoint unless the name says cf (ClosedForm).
// The lock is against regressions from here on.
struct GoldenRow {
  const char* name;
  Golden golden;
};
constexpr GoldenRow kGoldens[] = {
    // HS_CAPTURE_GOLDENS output pasted below.
    {"l1:D0",
     {0x1.a92b0fabcd2b1p-7, 0x1.3dcb4540da6ep-7, 0x1.ad7f29abcaf42p-9,
      1792u, 1835008u,
      {0x0p+0, 0x0p+0, 0x0p+0}}},
    {"l1:D1",
     {0x1.1cc7d93f6e4c2p-7, 0x1.62d01da8f71e3p-8, 0x1.ad7f29abcaf44p-9,
      1792u, 1835008u,
      {0x0p+0, 0x0p+0, 0x0p+0}}},
    {"l1:D2",
     {0x1.0c3a984eb8411p-7, 0x1.41b59bc78b081p-8, 0x1.ad7f29abcaf44p-9,
      1792u, 1835008u,
      {0x0p+0, 0x0p+0, 0x0p+0}}},
    {"l2:D0",
     {0x1.a92b0fabcd2b1p-7, 0x1.3dcb4540da6ep-7, 0x1.ad7f29abcaf42p-9,
      1792u, 1835008u,
      {0x1.a7b9b1abcde84p-11, 0x1.234faa261d8f9p-7, 0x0p+0}}},
    {"l2:D1",
     {0x1.31e7bfd37b4dap-7, 0x1.8d0fead111213p-8, 0x1.ad7f29abcaf44p-9,
      1792u, 1835008u,
      {0x1.a7b9b1abcde87p-14, 0x1.8d0fead111213p-8, 0x0p+0}}},
    {"l2:D2",
     {0x1.dd6996e147469p-8, 0x1.06aa020b61cc8p-8, 0x1.ad7f29abcaf44p-9,
      1792u, 1835008u,
      {0x1.a7b9b1abcde87p-14, 0x1.06aa020b61cc8p-8, 0x0p+0}}},
    {"l3:D0",
     {0x1.a92b0fabcd2b1p-7, 0x1.3dcb4540da6ep-7, 0x1.ad7f29abcaf42p-9,
      1792u, 1835008u,
      {0x1.a7b9b1abcde84p-11, 0x1.3dcb4540da6e1p-9, 0x1.a7b9b1abcde81p-8}}},
    {"l3:D1",
     {0x1.3bed2fdd82154p-7, 0x1.a11acae51eb07p-8, 0x1.ad7f29abcaf42p-9,
      1792u, 1835008u,
      {0x1.a7b9b1abcde87p-14, 0x1.72c27b76542b2p-10, 0x1.6c2394afa4f36p-8}}},
    {"l3:D2",
     {0x1.f8fa387c03976p-8, 0x1.223aa3a61e1d5p-8, 0x1.ad7f29abcaf46p-9,
      1792u, 1835008u,
      {0x1.a7b9b1abcde87p-14, 0x1.3ae88940dbe82p-10, 0x1.223aa3a61e1d5p-8}}},
    {"skip:D0",
     {0x1.a92b0fabcd2b1p-7, 0x1.3dcb4540da6ep-7, 0x1.ad7f29abcaf42p-9,
      1792u, 1835008u,
      {0x1.a7b9b1abcde81p-10, 0x1.a7b9b1abcde82p-10, 0x1.a7b9b1abcde81p-8}}},
    {"skip:D1",
     {0x1.0c96efceb811dp-7, 0x1.426e4ac78aa99p-8, 0x1.ad7f29abcaf45p-9,
      1792u, 1835008u,
      {0x1.d57a11e14b56p-11, 0x1.53f2c65b99838p-10, 0x1.355ea8fa2c22bp-8}}},
    {"skip:D2",
     {0x1.d02bc953e8d76p-8, 0x1.f2d868fc06ba9p-9, 0x1.ad7f29abcaf47p-9,
      1792u, 1835008u,
      {0x1.a4d6f5abcf621p-11, 0x1.3d129640daccap-10, 0x1.e5f6f2eea81cp-9}}},
    {"rect:D0",
     {0x1.7433d976536e1p-7, 0x1.08d40f0b60b1p-7, 0x1.ad7f29abcaf42p-9,
      832u, 851968u,
      {0x1.3dcb4540da6e2p-10, 0x1.c2354cc68ac69p-8, 0x0p+0}}},
    {"rect:D1",
     {0x1.06f5f9a808584p-7, 0x1.372c5e7a2b367p-8, 0x1.ad7f29abcaf42p-9,
      832u, 851968u,
      {0x1.a7b9b1abcde87p-14, 0x1.372c5e7a2b367p-8, 0x0p+0}}},
    {"rect:D2",
     {0x1.c2bfd0068a7fbp-8, 0x1.d80076614a0b5p-9, 0x1.ad7f29abcaf44p-9,
      832u, 851968u,
      {0x1.9c2ec1abd3d02p-12, 0x1.d80076614a0b5p-9, 0x0p+0}}},
    // Flat SUMMA on 1x4 and 4x1 grids, captured through Algorithm::Summa
    // while SUMMA still had its own kernel (which awaited a no-op broadcast
    // on the size-1 axis and held a task for it in its plan).
    {"summa1x4:pp:D0",
     {0x1.c9dbce13ec124p-5, 0x1.c5ca468211ep-9, 0x1.ad7f29abcaf44p-5,
      48u, 393216u,
      {0x0p+0, 0x0p+0, 0x0p+0}}},
    {"summa1x4:pp:D1",
     {0x1.af44f3f24d064p-5, 0x1.c5ca468211ep-13, 0x1.ad7f29abcaf46p-5,
      48u, 393216u,
      {0x0p+0, 0x0p+0, 0x0p+0}}},
    {"summa1x4:pp:D2",
     {0x1.af44f3f24d064p-5, 0x1.c5ca468211ep-13, 0x1.ad7f29abcaf46p-5,
      48u, 393216u,
      {0x0p+0, 0x0p+0, 0x0p+0}}},
    {"summa1x4:cf:D0",
     {0x1.c9dbce13ec124p-5, 0x1.c5ca468211ep-9, 0x1.ad7f29abcaf44p-5,
      48u, 393216u,
      {0x0p+0, 0x0p+0, 0x0p+0}}},
    {"summa1x4:cf:D1",
     {0x1.af44f3f24d064p-5, 0x1.c5ca468211ep-13, 0x1.ad7f29abcaf46p-5,
      48u, 393216u,
      {0x0p+0, 0x0p+0, 0x0p+0}}},
    {"summa1x4:cf:D2",
     {0x1.af44f3f24d064p-5, 0x1.c5ca468211ep-13, 0x1.ad7f29abcaf46p-5,
      48u, 393216u,
      {0x0p+0, 0x0p+0, 0x0p+0}}},
    {"summa4x1:pp:D0",
     {0x1.c9dbce13ec124p-5, 0x1.c5ca468211ep-9, 0x1.ad7f29abcaf44p-5,
      48u, 393216u,
      {0x0p+0, 0x0p+0, 0x0p+0}}},
    {"summa4x1:pp:D1",
     {0x1.af44f3f24d064p-5, 0x1.c5ca468211ep-13, 0x1.ad7f29abcaf46p-5,
      48u, 393216u,
      {0x0p+0, 0x0p+0, 0x0p+0}}},
    {"summa4x1:pp:D2",
     {0x1.af44f3f24d064p-5, 0x1.c5ca468211ep-13, 0x1.ad7f29abcaf46p-5,
      48u, 393216u,
      {0x0p+0, 0x0p+0, 0x0p+0}}},
    {"summa4x1:cf:D0",
     {0x1.c9dbce13ec124p-5, 0x1.c5ca468211ep-9, 0x1.ad7f29abcaf44p-5,
      48u, 393216u,
      {0x0p+0, 0x0p+0, 0x0p+0}}},
    {"summa4x1:cf:D1",
     {0x1.af44f3f24d064p-5, 0x1.c5ca468211ep-13, 0x1.ad7f29abcaf46p-5,
      48u, 393216u,
      {0x0p+0, 0x0p+0, 0x0p+0}}},
    {"summa4x1:cf:D2",
     {0x1.af44f3f24d064p-5, 0x1.c5ca468211ep-13, 0x1.ad7f29abcaf46p-5,
      48u, 393216u,
      {0x0p+0, 0x0p+0, 0x0p+0}}},
};

const Golden* golden(const std::string& key) {
  for (const GoldenRow& row : kGoldens)
    if (key == row.name) return &row.golden;
  return nullptr;
}

Golden to_golden(const hs::core::RunResult& r) {
  Golden g{r.timing.total_time, r.timing.max_comm_time,
           r.timing.max_comp_time, r.messages,
           r.wire_bytes, {0.0, 0.0, 0.0}};
  for (std::size_t i = 0;
       i < r.timing.max_level_comm_time.size() && i < kLevelSlots; ++i)
    g.level_comm[i] = r.timing.max_level_comm_time[i];
  return g;
}

void expect_eq(const Golden& expected, const Golden& actual,
               const std::string& what) {
  EXPECT_EQ(expected.total_time, actual.total_time) << what;
  EXPECT_EQ(expected.max_comm_time, actual.max_comm_time) << what;
  EXPECT_EQ(expected.max_comp_time, actual.max_comp_time) << what;
  EXPECT_EQ(expected.messages, actual.messages) << what;
  EXPECT_EQ(expected.wire_bytes, actual.wire_bytes) << what;
  for (int i = 0; i < kLevelSlots; ++i)
    EXPECT_EQ(expected.level_comm[i], actual.level_comm[i])
        << what << " level " << i;
}

std::unique_ptr<hs::mpc::Machine> make_machine(hs::desim::Engine& engine,
                                               const Cfg& cfg) {
  return std::make_unique<hs::mpc::Machine>(
      engine, std::make_shared<hs::net::HockneyModel>(1e-4, 1e-9),
      hs::mpc::MachineConfig{.ranks = cfg.options.grid.size(),
                             .collective_mode = cfg.collective_mode,
                             .gamma_flop = 5e-8});
}

/// cfg through the production entry point (D = 0 keeps the blocking loop,
/// D >= 1 delegates to summa_task_plan).
Golden run_kernel(const Cfg& cfg, int lookahead) {
  hs::desim::Engine engine;
  auto machine = make_machine(engine, cfg);
  RunOptions options = cfg.options;
  options.lookahead = lookahead;
  return to_golden(hs::core::run(*machine, options));
}

/// cfg through summa_task_plan directly — the only way to reach the task
/// graph at D = 0.
Golden run_task_plan(const Cfg& cfg, int lookahead) {
  hs::desim::Engine engine;
  const int ranks = cfg.options.grid.size();
  auto machine = make_machine(engine, cfg);
  std::vector<hs::trace::RankStats> stats(static_cast<std::size_t>(ranks));
  for (int rank = 0; rank < ranks; ++rank) {
    engine.spawn_indexed(
        hs::core::summa_task_plan(
            {machine->world(rank), cfg.options.grid, cfg.options.problem,
             nullptr, &stats[static_cast<std::size_t>(rank)],
             cfg.options.bcast_algo, lookahead, {}, cfg.options.row_levels,
             cfg.options.col_levels}),
        "taskplan", rank);
  }
  engine.run();
  hs::core::RunResult result;
  result.timing = hs::trace::TimingReport::aggregate(engine.now(), stats);
  result.messages = machine->messages_transferred();
  result.wire_bytes = machine->bytes_transferred();
  return to_golden(result);
}

// Regeneration helper: HS_CAPTURE_GOLDENS=1 prints the kGoldens rows.
TEST(HierarchyGoldens, Capture) {
  if (std::getenv("HS_CAPTURE_GOLDENS") == nullptr) GTEST_SKIP();
  for (const Cfg& cfg : configs()) {
    for (int depth : {0, 1, 2}) {
      const Golden g = run_kernel(cfg, depth);
      std::printf(
          "    {\"%s:D%d\",\n     {%a, %a, %a,\n      %lluu, %lluu,\n"
          "      {%a, %a, %a}}},\n",
          cfg.name.c_str(), depth, g.total_time, g.max_comm_time,
          g.max_comp_time, static_cast<unsigned long long>(g.messages),
          static_cast<unsigned long long>(g.wire_bytes), g.level_comm[0],
          g.level_comm[1], g.level_comm[2]);
    }
  }
}

// D = 0 through the task plan replays the blocking loop bit-identically at
// every chain depth (including skipped levels and rectangular grids).
TEST(HierarchyGoldens, InlinePlanReproducesBlockingSchedule) {
  for (const Cfg& cfg : configs())
    expect_eq(run_kernel(cfg, 0), run_task_plan(cfg, 0),
              cfg.name + " task plan at D=0");
}

// A flat chain through the multilevel kernel is plain SUMMA, bit for bit,
// at every look-ahead depth — blocking loop and task plan both.
TEST(HierarchyGoldens, FlatChainIsSummaBitIdentically) {
  Cfg flat;
  flat.options.grid = {8, 8};
  flat.options.problem = ProblemSpec::square(128, 8);
  flat.options.mode = PayloadMode::Phantom;
  for (int depth : {0, 1, 2}) {
    Cfg multilevel = flat;
    multilevel.options.algorithm = Algorithm::HsummaMultilevel;
    Cfg summa = flat;
    summa.options.algorithm = Algorithm::Summa;
    expect_eq(run_kernel(summa, depth), run_kernel(multilevel, depth),
              "flat chain vs summa at D=" + std::to_string(depth));
  }
}

// The hexfloat lock across the full D x L matrix.
TEST(HierarchyGoldens, LockedMatrix) {
  for (const Cfg& cfg : configs()) {
    for (int depth : {0, 1, 2}) {
      const std::string key = cfg.name + ":D" + std::to_string(depth);
      const Golden* expected = golden(key);
      if (expected == nullptr) {
        ADD_FAILURE() << "no golden named " << key
                      << " (regenerate with HS_CAPTURE_GOLDENS=1)";
        continue;
      }
      expect_eq(*expected, run_kernel(cfg, depth), key);
    }
  }
}

// Deeper look-ahead never changes what is computed or sent, and never
// slows the schedule down.
TEST(HierarchyGoldens, DeeperLookaheadKeepsCountersAndNeverSlowsDown) {
  for (const Cfg& cfg : configs()) {
    const Golden blocking = run_kernel(cfg, 0);
    for (int depth : {2, 3}) {
      const Golden deep = run_kernel(cfg, depth);
      EXPECT_EQ(blocking.messages, deep.messages)
          << cfg.name << " D=" << depth;
      EXPECT_EQ(blocking.wire_bytes, deep.wire_bytes)
          << cfg.name << " D=" << depth;
      EXPECT_NEAR(blocking.max_comp_time, deep.max_comp_time,
                  1e-12 * blocking.max_comp_time)
          << cfg.name << " D=" << depth;
      EXPECT_LE(deep.total_time, blocking.total_time)
          << cfg.name << " D=" << depth;
    }
  }
}

}  // namespace
