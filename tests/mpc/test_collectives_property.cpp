// Differential property tests for the collective implementations.
//
// Two properties over a seeded sweep of (ranks, count, root, phantom/real):
//
//   1. Payload agreement: every broadcast algorithm delivers payloads
//      identical to the flat-tree reference.
//   2. Phantom/real time agreement: the phantom variant of a call reports
//      exactly the same per-rank virtual completion times as the real
//      variant — phantom payloads change what is *stored*, never what is
//      *charged*. This is the property that makes 16384-rank phantom
//      sweeps trustworthy stand-ins for real-payload runs.
//
// Both properties are checked in PointToPoint mode (messages actually
// routed through the tree algorithms) and, where meaningful, in ClosedForm
// mode (site-based delivery, the path deliver_site_payloads implements).
#include "mpc/collectives.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "common/rng.hpp"

namespace {

using hs::Rng;
using hs::desim::Engine;
using hs::desim::Task;
using hs::mpc::Buf;
using hs::mpc::CollectiveMode;
using hs::mpc::Comm;
using hs::mpc::ConstBuf;
using hs::mpc::Machine;
using hs::net::BcastAlgo;

constexpr double kAlpha = 1e-5;
constexpr double kBeta = 2e-9;
constexpr std::uint64_t kSweepSeed = 0x5eedc011ULL;

std::shared_ptr<hs::net::HockneyModel> hockney() {
  return std::make_shared<hs::net::HockneyModel>(kAlpha, kBeta);
}

struct SweepCase {
  int ranks;
  std::size_t count;
  int root;
};

/// Seeded sweep: rank counts cover power-of-two and ragged cases; counts
/// are multiples of the rank count so every collective's divisibility
/// requirement is met; roots are drawn per case.
std::vector<SweepCase> sweep_cases() {
  static const int kRankChoices[] = {2, 3, 4, 5, 8, 16};
  Rng rng(kSweepSeed);
  std::vector<SweepCase> cases;
  for (int ranks : kRankChoices) {
    for (int repeat = 0; repeat < 2; ++repeat) {
      SweepCase c;
      c.ranks = ranks;
      c.count = static_cast<std::size_t>(ranks) *
                (1 + static_cast<std::size_t>(rng.uniform() * 96.0));
      c.root = static_cast<int>(rng.uniform() * ranks) % ranks;
      cases.push_back(c);
    }
  }
  return cases;
}

/// Result of driving one collective across all ranks: per-rank virtual
/// completion times, plus per-rank payloads for real runs.
struct CollectiveRun {
  std::vector<double> finish_times;
  std::vector<std::vector<double>> payloads;
};

/// Deterministic per-(rank, element) payload values.
double element_value(int rank, std::size_t i) {
  return static_cast<double>(rank + 1) * 0.25 +
         static_cast<double>(i) * 0.0625;
}

/// Run `body(comm, payload, run)` once per rank and record when each rank's
/// collective completes. `payload` is empty for phantom runs.
CollectiveRun drive(
    int ranks, CollectiveMode mode, std::size_t count, bool real,
    const std::function<Task<void>(Comm, std::vector<double>&)>& body) {
  Engine engine;
  Machine machine(engine, hockney(), {.ranks = ranks,
                                      .collective_mode = mode});
  CollectiveRun run;
  run.finish_times.assign(static_cast<std::size_t>(ranks), -1.0);
  run.payloads.assign(static_cast<std::size_t>(ranks), {});
  if (real)
    for (int r = 0; r < ranks; ++r)
      run.payloads[static_cast<std::size_t>(r)].assign(count, 0.0);
  auto program = [&](Comm comm) -> Task<void> {
    const auto rank = static_cast<std::size_t>(comm.rank());
    co_await body(comm, run.payloads[rank]);
    run.finish_times[rank] = comm.engine().now();
  };
  for (int r = 0; r < ranks; ++r) engine.spawn(program(machine.world(r)));
  engine.run();
  return run;
}

CollectiveRun run_bcast(const SweepCase& c, CollectiveMode mode,
                        BcastAlgo algo, bool real) {
  return drive(
      c.ranks, mode, c.count, real,
      [&](Comm comm, std::vector<double>& payload) -> Task<void> {
        if (!payload.empty() && comm.rank() == c.root)
          for (std::size_t i = 0; i < payload.size(); ++i)
            payload[i] = element_value(c.root, i);
        Buf buf = payload.empty() ? Buf::phantom(c.count)
                                  : Buf(std::span<double>(payload));
        co_await hs::mpc::bcast(comm, c.root, buf, algo);
      });
}

constexpr BcastAlgo kBcastAlgos[] = {
    BcastAlgo::Flat,          BcastAlgo::Binomial,
    BcastAlgo::ScatterRingAllgather,
    BcastAlgo::ScatterRecDblAllgather,
    BcastAlgo::Pipelined,     BcastAlgo::MpichAuto,
};

// ---- property 1: payload agreement -------------------------------------

TEST(CollectivesProperty, BcastAlgosMatchFlatReference) {
  for (const SweepCase& c : sweep_cases()) {
    const CollectiveRun reference =
        run_bcast(c, CollectiveMode::PointToPoint, BcastAlgo::Flat,
                  /*real=*/true);
    for (BcastAlgo algo : kBcastAlgos) {
      const CollectiveRun run =
          run_bcast(c, CollectiveMode::PointToPoint, algo, /*real=*/true);
      ASSERT_EQ(run.payloads, reference.payloads)
          << "algo=" << hs::net::to_string(algo) << " ranks=" << c.ranks
          << " count=" << c.count << " root=" << c.root;
    }
  }
}

TEST(CollectivesProperty, ClosedFormBcastMatchesFlatReference) {
  for (const SweepCase& c : sweep_cases()) {
    const CollectiveRun reference =
        run_bcast(c, CollectiveMode::PointToPoint, BcastAlgo::Flat,
                  /*real=*/true);
    const CollectiveRun closed =
        run_bcast(c, CollectiveMode::ClosedForm, BcastAlgo::Binomial,
                  /*real=*/true);
    ASSERT_EQ(closed.payloads, reference.payloads)
        << "ranks=" << c.ranks << " count=" << c.count << " root=" << c.root;
  }
}

// ---- property 2: phantom and real runs agree on virtual time -----------

TEST(CollectivesProperty, BcastPhantomAndRealTimesIdentical) {
  for (const SweepCase& c : sweep_cases()) {
    for (CollectiveMode mode :
         {CollectiveMode::PointToPoint, CollectiveMode::ClosedForm}) {
      for (BcastAlgo algo : kBcastAlgos) {
        const CollectiveRun real = run_bcast(c, mode, algo, /*real=*/true);
        const CollectiveRun phantom =
            run_bcast(c, mode, algo, /*real=*/false);
        // Exact (bit-level) equality: phantom changes storage, not cost.
        ASSERT_EQ(phantom.finish_times, real.finish_times)
            << "mode=" << static_cast<int>(mode)
            << " algo=" << hs::net::to_string(algo) << " ranks=" << c.ranks
            << " count=" << c.count << " root=" << c.root;
      }
    }
  }
}

}  // namespace
