// Goldens for the two kernels whose communication leaves the broadcast
// path: Cholesky hands each panel from its pivot column to the diagonal
// rank with a blocking send/recv pair, and SUMMA-2.5D sums its layers with
// the library's only reduce. Both run with real payloads (so the reduce
// stages real data and the oracle checks the result) on a 4x4 grid, in
// both collective modes.
//
// The rows were captured before the message layer lost its second
// transfer handle and its unused collectives; they must keep reproducing
// bit for bit. "Bit-identical" is literal: doubles compare with EXPECT_EQ.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "core/runner.hpp"
#include "net/model.hpp"

namespace {

using hs::core::Algorithm;
using hs::core::PayloadMode;
using hs::core::ProblemSpec;
using hs::core::RunOptions;
using hs::mpc::CollectiveMode;

struct Golden {
  const char* name;
  CollectiveMode mode;
  double total_time;
  double max_comm_time;
  double mean_comm_time;
  double max_comp_time;
  double mean_comp_time;
  std::uint64_t messages;
  std::uint64_t wire_bytes;
  double max_error;
};

RunOptions options_for(const std::string& name) {
  RunOptions options;
  options.grid = {4, 4};
  options.mode = PayloadMode::Real;
  options.verify = true;
  options.bcast_algo = hs::net::BcastAlgo::Binomial;
  if (name == "cholesky") {
    options.algorithm = Algorithm::Cholesky;
    options.problem = ProblemSpec::factorization(128, 8);
  } else {
    options.algorithm = Algorithm::Summa25D;
    options.problem = ProblemSpec::square(128, 8);
    options.layers = 2;
  }
  return options;
}

hs::core::RunResult run(const std::string& name, CollectiveMode mode) {
  const RunOptions options = options_for(name);
  hs::desim::Engine engine;
  hs::mpc::Machine machine(
      engine, std::make_shared<hs::net::HockneyModel>(1e-4, 1e-9),
      {.ranks = options.grid.size() * options.layers,
       .collective_mode = mode,
       .gamma_flop = 1e-10});
  return hs::core::run(machine, options);
}

void expect_golden(const Golden& golden) {
  SCOPED_TRACE(std::string(golden.name) +
               (golden.mode == CollectiveMode::ClosedForm ? " closed-form"
                                                          : " point-to-point"));
  const auto result = run(golden.name, golden.mode);
  EXPECT_EQ(result.timing.total_time, golden.total_time);
  EXPECT_EQ(result.timing.max_comm_time, golden.max_comm_time);
  EXPECT_EQ(result.timing.mean_comm_time, golden.mean_comm_time);
  EXPECT_EQ(result.timing.max_comp_time, golden.max_comp_time);
  EXPECT_EQ(result.timing.mean_comp_time, golden.mean_comp_time);
  EXPECT_EQ(result.messages, golden.messages);
  EXPECT_EQ(result.wire_bytes, golden.wire_bytes);
  EXPECT_EQ(result.max_error, golden.max_error);
}

// HockneyModel(1e-4, 1e-9), gamma 1e-10, binomial broadcasts, n = 128,
// block 8, real payloads with verification.
constexpr Golden kGoldens[] = {
    {"cholesky", CollectiveMode::PointToPoint, 0x1.4fbb008da467dp-7,
     0x1.4fa662e5c106p-7, 0x1.0102eff3dc8e4p-7, 0x1.6834600bfb3ap-16,
     0x1.17bedb7baba7p-17, 288u, 442368u, 0x1.8p-44},
    {"cholesky", CollectiveMode::ClosedForm, 0x1.59b183ca1fe71p-7,
     0x1.599ce6223c854p-7, 0x1.08121f835de7ap-7, 0x1.6834600bfb3ap-16,
     0x1.17bedb7baba5p-17, 288u, 442368u, 0x1.8p-44},
    {"summa-2.5d", CollectiveMode::PointToPoint, 0x1.d847f93fa6c6fp-9,
     0x1.d6902b42094bp-9, 0x1.d6902b42094b6p-9, 0x1.b7cdfd9d7be4p-17,
     0x1.b7cdfd9d7be4p-17, 432u, 1179648u, 0x1.2p-46},
    {"summa-2.5d", CollectiveMode::ClosedForm, 0x1.d847f93fa6c6fp-9,
     0x1.d6902b42094bp-9, 0x1.d6902b42094b6p-9, 0x1.b7cdfd9d7be4p-17,
     0x1.b7cdfd9d7be4p-17, 432u, 1179648u, 0x1.2p-46},
};

TEST(HandoffGoldens, CholeskyTransposeHandoff) {
  for (const Golden& golden : kGoldens)
    if (std::string(golden.name) == "cholesky") expect_golden(golden);
}

TEST(HandoffGoldens, Summa25DLayerReduce) {
  for (const Golden& golden : kGoldens)
    if (std::string(golden.name) == "summa-2.5d") expect_golden(golden);
}

}  // namespace
