// Determinism lock for the simulation hot path.
//
// Two guarantees, both load-bearing for every timing claim in this repo:
//
//  1. Re-running the same seeded configuration on a fresh engine produces
//     bit-identical results (event counts, virtual times, per-rank
//     RankStats) — simulations are pure functions of their configuration.
//  2. The current engine reproduces, bit for bit, golden values captured
//     from the *seed* engine (std::priority_queue event loop, per-call
//     staging collectives) before the hot-path overhaul. This proves the
//     overhaul changed wall-clock cost only, never virtual time.
//
// To regenerate the goldens (only legitimate after a change that is *meant*
// to alter virtual-time semantics), run with HS_PRINT_GOLDENS=1 and paste
// the printed snippet below.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/hsumma.hpp"
#include "core/runner.hpp"
#include "core/summa.hpp"
#include "net/topology.hpp"

namespace {

using hs::core::Algorithm;
using hs::core::PayloadMode;
using hs::core::ProblemSpec;
using hs::desim::Engine;
using hs::grid::GridShape;
using hs::mpc::CollectiveMode;
using hs::mpc::Machine;
using hs::net::BcastAlgo;

constexpr double kAlpha = 1e-4;
constexpr double kBeta = 1e-9;
constexpr double kGamma = 1e-9;

struct RankSnap {
  double comm = 0.0;
  double comp = 0.0;
  double outer = 0.0;
  double inner = 0.0;
  std::uint64_t flops = 0;
};

struct Snapshot {
  std::uint64_t events = 0;
  double final_time = 0.0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::vector<RankSnap> ranks;
};

struct DirectConfig {
  const char* name;
  Algorithm algorithm;          // Summa or Hsumma
  GridShape grid;
  GridShape groups;             // Hsumma only
  ProblemSpec problem;
  BcastAlgo bcast;
  CollectiveMode mode;
  int lookahead;
};

// The locked configurations: point-to-point and closed-form collectives,
// flat and hierarchical algorithms, with and without comm/comp overlap.
const DirectConfig kConfigs[] = {
    {"summa_p2p", Algorithm::Summa, {4, 4}, {1, 1},
     ProblemSpec::square(128, 8), BcastAlgo::Binomial,
     CollectiveMode::PointToPoint, 0},
    {"hsumma_p2p", Algorithm::Hsumma, {4, 4}, {2, 2},
     ProblemSpec::square(128, 8, 16), BcastAlgo::ScatterRingAllgather,
     CollectiveMode::PointToPoint, 0},
    {"hsumma_closed_form", Algorithm::Hsumma, {4, 4}, {2, 2},
     ProblemSpec::square(128, 8, 16), BcastAlgo::Binomial,
     CollectiveMode::ClosedForm, 0},
    {"summa_overlap", Algorithm::Summa, {4, 4}, {1, 1},
     ProblemSpec::square(128, 8), BcastAlgo::ScatterRingAllgather,
     CollectiveMode::PointToPoint, 1},
};

double level_slot(const hs::trace::RankStats& stats, std::size_t level) {
  return level < stats.level_comm_time.size() ? stats.level_comm_time[level]
                                              : 0.0;
}

/// Phantom-payload run spawning the per-rank programs directly so the test
/// can observe every rank's RankStats (core::run only exposes aggregates).
Snapshot run_direct(const DirectConfig& config) {
  Engine engine;
  Machine machine(engine,
                  std::make_shared<hs::net::HockneyModel>(kAlpha, kBeta),
                  {.ranks = config.grid.size(),
                   .collective_mode = config.mode,
                   .gamma_flop = kGamma});
  const int ranks = config.grid.size();
  std::vector<hs::trace::RankStats> stats(static_cast<std::size_t>(ranks));
  for (int rank = 0; rank < ranks; ++rank) {
    hs::trace::RankStats* rank_stats = &stats[static_cast<std::size_t>(rank)];
    hs::desim::Task<void> program =
        config.algorithm == Algorithm::Summa
            ? hs::core::summa_rank({machine.world(rank), config.grid,
                                    config.problem, nullptr, rank_stats,
                                    config.bcast, config.lookahead,
                                    hs::trace::RankTracer{}})
            : hs::core::hsumma_rank({machine.world(rank), config.grid,
                                     config.groups, config.problem, nullptr,
                                     rank_stats, config.bcast,
                                     config.lookahead,
                                     hs::trace::RankTracer{}});
    engine.spawn(std::move(program), "rank " + std::to_string(rank));
  }
  engine.run();

  Snapshot snap;
  snap.events = engine.events_processed();
  snap.final_time = engine.now();
  snap.messages = machine.messages_transferred();
  snap.bytes = machine.bytes_transferred();
  snap.ranks.reserve(static_cast<std::size_t>(ranks));
  // HSUMMA's outer and inner phases are level slots 0 and 1.
  for (const auto& s : stats)
    snap.ranks.push_back({s.comm_time, s.comp_time, level_slot(s, 0),
                          level_slot(s, 1), s.flops});
  return snap;
}

/// Real-payload end-to-end run through core::run (numerics + aggregates).
Snapshot run_real() {
  Engine engine;
  Machine machine(engine,
                  std::make_shared<hs::net::HockneyModel>(kAlpha, kBeta),
                  {.ranks = 16, .gamma_flop = kGamma});
  hs::core::RunOptions options;
  options.algorithm = Algorithm::Hsumma;
  options.grid = {4, 4};
  options.groups = {2, 2};
  options.problem = ProblemSpec::square(64, 4, 8);
  options.mode = PayloadMode::Real;
  options.bcast_algo = BcastAlgo::Binomial;
  options.verify = true;
  const auto result = hs::core::run(machine, options);
  EXPECT_LT(result.max_error, 1e-12);

  Snapshot snap;
  snap.events = engine.events_processed();
  snap.final_time = engine.now();
  snap.messages = result.messages;
  snap.bytes = result.wire_bytes;
  // Aggregates stand in for per-rank stats here; they are deterministic
  // functions of them.
  snap.ranks.push_back({result.timing.max_comm_time,
                        result.timing.max_comp_time,
                        result.timing.level_comm(0),
                        result.timing.level_comm(1),
                        result.timing.total_flops});
  snap.ranks.push_back({result.timing.mean_comm_time,
                        result.timing.mean_comp_time, 0.0, 0.0, 0});
  return snap;
}

void expect_identical(const Snapshot& a, const Snapshot& b,
                      const std::string& label) {
  EXPECT_EQ(a.events, b.events) << label;
  EXPECT_EQ(a.messages, b.messages) << label;
  EXPECT_EQ(a.bytes, b.bytes) << label;
  ASSERT_EQ(a.ranks.size(), b.ranks.size()) << label;
  // Bit-for-bit: memcmp on the doubles, not EXPECT_DOUBLE_EQ.
  EXPECT_EQ(std::memcmp(&a.final_time, &b.final_time, sizeof(double)), 0)
      << label << ": final time " << a.final_time << " vs " << b.final_time;
  for (std::size_t r = 0; r < a.ranks.size(); ++r) {
    EXPECT_EQ(std::memcmp(&a.ranks[r], &b.ranks[r], sizeof(RankSnap)), 0)
        << label << ": rank " << r;
  }
}

struct Golden {
  const char* name;
  std::uint64_t events;
  double final_time;
  std::uint64_t messages;
  std::uint64_t bytes;
  std::vector<RankSnap> ranks;
};

void print_golden(const char* name, const Snapshot& snap) {
  std::printf("    {\"%s\", %lluull, %a, %lluull, %lluull,\n     {\n", name,
              static_cast<unsigned long long>(snap.events), snap.final_time,
              static_cast<unsigned long long>(snap.messages),
              static_cast<unsigned long long>(snap.bytes));
  for (const auto& r : snap.ranks)
    std::printf("         {%a, %a, %a, %a, %lluull},\n", r.comm, r.comp,
                r.outer, r.inner, static_cast<unsigned long long>(r.flops));
  std::printf("     }},\n");
}

bool print_goldens_requested() {
  const char* env = std::getenv("HS_PRINT_GOLDENS");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

// ---------------------------------------------------------------------
// Golden values captured from the seed engine (pre-overhaul), at kAlpha =
// 1e-4, kBeta = 1e-9, kGamma = 1e-9. Regenerate with HS_PRINT_GOLDENS=1.
// ---------------------------------------------------------------------
const std::vector<Golden>& goldens() {
  static const std::vector<Golden> kGoldens = {
    {"summa_p2p", 1040ull, 0x1.bd33408dfe75ap-8, 384ull, 786432ull,
     {
         {0x1.ac0534a5d79eep-8, 0x1.12e0be826d6bbp-12, 0x0p+0, 0x0p+0, 262144ull},
         {0x1.ac0534a5d79eep-8, 0x1.12e0be826d6bbp-12, 0x0p+0, 0x0p+0, 262144ull},
         {0x1.ac0534a5d79eep-8, 0x1.12e0be826d6bbp-12, 0x0p+0, 0x0p+0, 262144ull},
         {0x1.ac0534a5d79eep-8, 0x1.12e0be826d6bbp-12, 0x0p+0, 0x0p+0, 262144ull},
         {0x1.ac0534a5d79eep-8, 0x1.12e0be826d6bbp-12, 0x0p+0, 0x0p+0, 262144ull},
         {0x1.ac0534a5d79eep-8, 0x1.12e0be826d6bbp-12, 0x0p+0, 0x0p+0, 262144ull},
         {0x1.ac0534a5d79eep-8, 0x1.12e0be826d6bbp-12, 0x0p+0, 0x0p+0, 262144ull},
         {0x1.ac0534a5d79eep-8, 0x1.12e0be826d6bbp-12, 0x0p+0, 0x0p+0, 262144ull},
         {0x1.ac0534a5d79eep-8, 0x1.12e0be826d6bbp-12, 0x0p+0, 0x0p+0, 262144ull},
         {0x1.ac0534a5d79eep-8, 0x1.12e0be826d6bbp-12, 0x0p+0, 0x0p+0, 262144ull},
         {0x1.ac0534a5d79eep-8, 0x1.12e0be826d6bbp-12, 0x0p+0, 0x0p+0, 262144ull},
         {0x1.ac0534a5d79eep-8, 0x1.12e0be826d6bbp-12, 0x0p+0, 0x0p+0, 262144ull},
         {0x1.ac0534a5d79eep-8, 0x1.12e0be826d6bbp-12, 0x0p+0, 0x0p+0, 262144ull},
         {0x1.ac0534a5d79eep-8, 0x1.12e0be826d6bbp-12, 0x0p+0, 0x0p+0, 262144ull},
         {0x1.ac0534a5d79eep-8, 0x1.12e0be826d6bbp-12, 0x0p+0, 0x0p+0, 262144ull},
         {0x1.ac0534a5d79eep-8, 0x1.12e0be826d6bbp-12, 0x0p+0, 0x0p+0, 262144ull},
     }},
    {"hsumma_p2p", 1552ull, 0x1.47752bf370471p-7, 960ull, 1179648ull,
     {
         {0x1.3ede25ff5cdbcp-7, 0x1.12e0be826d692p-12, 0x1.ac0534a5d79fp-10, 0x1.095d7f6aa1e7ep-7, 262144ull},
         {0x1.3ede25ff5cdbcp-7, 0x1.12e0be826d692p-12, 0x1.ac0534a5d79fp-10, 0x1.095d7f6aa1e7ep-7, 262144ull},
         {0x1.3ede25ff5cdbcp-7, 0x1.12e0be826d692p-12, 0x1.ac0534a5d79fp-10, 0x1.095d7f6aa1e7ep-7, 262144ull},
         {0x1.3ede25ff5cdbcp-7, 0x1.12e0be826d692p-12, 0x1.ac0534a5d79fp-10, 0x1.095d7f6aa1e7ep-7, 262144ull},
         {0x1.3ede25ff5cdbcp-7, 0x1.12e0be826d692p-12, 0x1.ac0534a5d79fp-10, 0x1.095d7f6aa1e7ep-7, 262144ull},
         {0x1.3ede25ff5cdbcp-7, 0x1.12e0be826d692p-12, 0x1.ac0534a5d79fp-10, 0x1.095d7f6aa1e7ep-7, 262144ull},
         {0x1.3ede25ff5cdbcp-7, 0x1.12e0be826d692p-12, 0x1.ac0534a5d79fp-10, 0x1.095d7f6aa1e7ep-7, 262144ull},
         {0x1.3ede25ff5cdbcp-7, 0x1.12e0be826d692p-12, 0x1.ac0534a5d79fp-10, 0x1.095d7f6aa1e7ep-7, 262144ull},
         {0x1.3ede25ff5cdbcp-7, 0x1.12e0be826d692p-12, 0x1.ac0534a5d79fp-10, 0x1.095d7f6aa1e7ep-7, 262144ull},
         {0x1.3ede25ff5cdbcp-7, 0x1.12e0be826d692p-12, 0x1.ac0534a5d79fp-10, 0x1.095d7f6aa1e7ep-7, 262144ull},
         {0x1.3ede25ff5cdbcp-7, 0x1.12e0be826d692p-12, 0x1.ac0534a5d79fp-10, 0x1.095d7f6aa1e7ep-7, 262144ull},
         {0x1.3ede25ff5cdbcp-7, 0x1.12e0be826d692p-12, 0x1.ac0534a5d79fp-10, 0x1.095d7f6aa1e7ep-7, 262144ull},
         {0x1.3ede25ff5cdbcp-7, 0x1.12e0be826d692p-12, 0x1.ac0534a5d79fp-10, 0x1.095d7f6aa1e7ep-7, 262144ull},
         {0x1.3ede25ff5cdbcp-7, 0x1.12e0be826d692p-12, 0x1.ac0534a5d79fp-10, 0x1.095d7f6aa1e7ep-7, 262144ull},
         {0x1.3ede25ff5cdbcp-7, 0x1.12e0be826d692p-12, 0x1.ac0534a5d79fp-10, 0x1.095d7f6aa1e7ep-7, 262144ull},
         {0x1.3ede25ff5cdbcp-7, 0x1.12e0be826d692p-12, 0x1.ac0534a5d79fp-10, 0x1.095d7f6aa1e7ep-7, 262144ull},
     }},
    {"hsumma_closed_form", 912ull, 0x1.5457b4e18d683p-8, 320ull, 786432ull,
     {
         {0x1.4329a8f966919p-8, 0x1.12e0be826d6a3p-12, 0x1.b49c3a99eb09cp-11, 0x1.0c9621a629306p-8, 262144ull},
         {0x1.4329a8f966918p-8, 0x1.12e0be826d6a3p-12, 0x1.b49c3a99eb092p-11, 0x1.0c9621a629307p-8, 262144ull},
         {0x1.4329a8f966919p-8, 0x1.12e0be826d6a3p-12, 0x1.b49c3a99eb09cp-11, 0x1.0c9621a629306p-8, 262144ull},
         {0x1.4329a8f966918p-8, 0x1.12e0be826d6a3p-12, 0x1.b49c3a99eb092p-11, 0x1.0c9621a629307p-8, 262144ull},
         {0x1.4329a8f966918p-8, 0x1.12e0be826d6a3p-12, 0x1.b49c3a99eb092p-11, 0x1.0c9621a629307p-8, 262144ull},
         {0x1.4329a8f966918p-8, 0x1.12e0be826d6a3p-12, 0x1.b49c3a99eb08ap-11, 0x1.0c9621a629308p-8, 262144ull},
         {0x1.4329a8f966918p-8, 0x1.12e0be826d6a3p-12, 0x1.b49c3a99eb092p-11, 0x1.0c9621a629307p-8, 262144ull},
         {0x1.4329a8f966918p-8, 0x1.12e0be826d6a3p-12, 0x1.b49c3a99eb08ap-11, 0x1.0c9621a629308p-8, 262144ull},
         {0x1.4329a8f966919p-8, 0x1.12e0be826d6a3p-12, 0x1.b49c3a99eb09cp-11, 0x1.0c9621a629306p-8, 262144ull},
         {0x1.4329a8f966918p-8, 0x1.12e0be826d6a3p-12, 0x1.b49c3a99eb092p-11, 0x1.0c9621a629307p-8, 262144ull},
         {0x1.4329a8f966919p-8, 0x1.12e0be826d6a3p-12, 0x1.b49c3a99eb09cp-11, 0x1.0c9621a629306p-8, 262144ull},
         {0x1.4329a8f966918p-8, 0x1.12e0be826d6a3p-12, 0x1.b49c3a99eb092p-11, 0x1.0c9621a629307p-8, 262144ull},
         {0x1.4329a8f966918p-8, 0x1.12e0be826d6a3p-12, 0x1.b49c3a99eb092p-11, 0x1.0c9621a629307p-8, 262144ull},
         {0x1.4329a8f966918p-8, 0x1.12e0be826d6a3p-12, 0x1.b49c3a99eb08ap-11, 0x1.0c9621a629308p-8, 262144ull},
         {0x1.4329a8f966918p-8, 0x1.12e0be826d6a3p-12, 0x1.b49c3a99eb092p-11, 0x1.0c9621a629307p-8, 262144ull},
         {0x1.4329a8f966918p-8, 0x1.12e0be826d6a3p-12, 0x1.b49c3a99eb08ap-11, 0x1.0c9621a629308p-8, 262144ull},
     }},
    {"summa_overlap", 4131ull, 0x1.360ec0f437b1dp-6, 1920ull, 1048576ull,
     {
         {0x1.301daa09ff332p-6, 0x1.12e0be826d6a8p-12, 0x0p+0, 0x0p+0, 262144ull},
         {0x1.31c33dfa2dfc2p-6, 0x1.12e0be826d6a8p-12, 0x0p+0, 0x0p+0, 262144ull},
         {0x1.30195e8705295p-6, 0x1.12e0be826d6a8p-12, 0x0p+0, 0x0p+0, 262144ull},
         {0x1.2e781619d06a1p-6, 0x1.12e0be826d6a8p-12, 0x0p+0, 0x0p+0, 262144ull},
         {0x1.30195e8705295p-6, 0x1.12e0be826d6a8p-12, 0x0p+0, 0x0p+0, 262144ull},
         {0x1.31c11838b0f74p-6, 0x1.12e0be826d6a8p-12, 0x0p+0, 0x0p+0, 262144ull},
         {0x1.301b8448822e3p-6, 0x1.12e0be826d6a8p-12, 0x0p+0, 0x0p+0, 262144ull},
         {0x1.2e781619d06ap-6, 0x1.12e0be826d6a8p-12, 0x0p+0, 0x0p+0, 262144ull},
         {0x1.301b8448822e3p-6, 0x1.12e0be826d6a8p-12, 0x0p+0, 0x0p+0, 262144ull},
         {0x1.31c11838b0f75p-6, 0x1.12e0be826d6a8p-12, 0x0p+0, 0x0p+0, 262144ull},
         {0x1.30195e8705295p-6, 0x1.12e0be826d6a8p-12, 0x0p+0, 0x0p+0, 262144ull},
         {0x1.2e781619d06ap-6, 0x1.12e0be826d6a8p-12, 0x0p+0, 0x0p+0, 262144ull},
         {0x1.30195e8705295p-6, 0x1.12e0be826d6a8p-12, 0x0p+0, 0x0p+0, 262144ull},
         {0x1.31c33dfa2dfc3p-6, 0x1.12e0be826d6a8p-12, 0x0p+0, 0x0p+0, 262144ull},
         {0x1.301daa09ff331p-6, 0x1.12e0be826d6a8p-12, 0x0p+0, 0x0p+0, 262144ull},
         {0x1.2e781619d06ap-6, 0x1.12e0be826d6a8p-12, 0x0p+0, 0x0p+0, 262144ull},
     }},
    {"hsumma_real", 912ull, 0x1.3ede25ff5cdbbp-8, 320ull, 196608ull,
     {
         {0x1.3cb864825800dp-8, 0x1.12e0be826d758p-15, 0x1.a7b9b1abcde84p-11, 0x1.07c12e4cde43dp-8, 524288ull},
         {0x1.3cb864825800ep-8, 0x1.12e0be826d758p-15, 0x0p+0, 0x0p+0, 0ull},
     }},
  };
  return kGoldens;
}

TEST(Determinism, RepeatedRunsAreBitIdentical) {
  for (const auto& config : kConfigs) {
    const Snapshot first = run_direct(config);
    const Snapshot second = run_direct(config);
    expect_identical(first, second, config.name);
  }
  expect_identical(run_real(), run_real(), "hsumma_real");
}

TEST(Determinism, VirtualTimesMatchSeedEngineGoldens) {
  if (print_goldens_requested()) {
    std::printf("  static const std::vector<Golden> kGoldens = {\n");
    for (const auto& config : kConfigs)
      print_golden(config.name, run_direct(config));
    print_golden("hsumma_real", run_real());
    std::printf("  };\n");
    GTEST_SKIP() << "golden print mode";
  }
  ASSERT_FALSE(goldens().empty())
      << "no goldens embedded; run with HS_PRINT_GOLDENS=1 and paste";
  std::size_t index = 0;
  for (const auto& config : kConfigs) {
    const Golden& golden = goldens()[index++];
    ASSERT_STREQ(golden.name, config.name);
    const Snapshot snap = run_direct(config);
    Snapshot golden_snap{golden.events, golden.final_time, golden.messages,
                         golden.bytes, golden.ranks};
    expect_identical(golden_snap, snap, config.name);
  }
  const Golden& golden = goldens()[index];
  ASSERT_STREQ(golden.name, "hsumma_real");
  const Snapshot snap = run_real();
  Snapshot golden_snap{golden.events, golden.final_time, golden.messages,
                       golden.bytes, golden.ranks};
  expect_identical(golden_snap, snap, "hsumma_real");
}

}  // namespace
