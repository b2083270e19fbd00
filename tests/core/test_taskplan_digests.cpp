// Schedule digests for every task-plan builder at D >= 1. Each case runs
// one kernel through exec::run_sim_job with a recorder attached and folds
// the whole observable schedule into one 64-bit digest: every task span in
// recorded order (rank, kind, step, level, label, hexfloat start and end),
// then the hexfloat total, max comm, max comp and per-level comm times,
// the message count and the wire bytes. The cases cover the SUMMA family
// (flat, a {2}/{2} chain, the block-cyclic layout with a ragged n), scalar
// HSUMMA with B = b and B = 4b, hsumma-cyclic, Cannon and LU (flat and
// with {2}/{2} chains) at D in {1, 2, 3}, on 2x2, 2x4 and 4x4 grids
// (Cannon on the square ones), in both collective modes, with uneven rank
// speeds (MachineConfig::rank_gamma) so comm and compute interleave
// differently at each depth.
//
// LU's priority picks and Cannon's rotations are otherwise pinned only by
// single perfbench rows, so these digests are what catches a scheduler
// change that reorders them. They were captured from the task runtime that
// built each rank's whole plan before running it. Regenerate with
// HS_CAPTURE_GOLDENS=1 (the Capture test prints the table) only for a
// change that is meant to alter D >= 1 schedules.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "exec/sim_job.hpp"
#include "net/model.hpp"
#include "trace/recorder.hpp"

namespace {

using hs::core::Algorithm;
using hs::core::ProblemSpec;
using hs::exec::SimJob;
using hs::grid::GridShape;
using hs::mpc::CollectiveMode;

struct Case {
  std::string name;
  SimJob job;
};

std::vector<Case> cases() {
  const std::shared_ptr<const hs::net::NetworkModel> network =
      std::make_shared<hs::net::HockneyModel>(1e-4, 1e-9);
  struct Kernel {
    const char* name;
    Algorithm algorithm;
    ProblemSpec problem;
    bool chains;       // {2}/{2} level factors
    bool grouped;      // G = p / 4 groups (2 on a 2x2 grid)
    bool square_only;  // Cannon
  };
  const Kernel kernels[] = {
      {"summa", Algorithm::Summa, ProblemSpec::square(128, 8), false, false,
       false},
      {"multilevel", Algorithm::HsummaMultilevel, ProblemSpec::square(128, 8),
       true, false, false},
      {"summa-cyclic", Algorithm::SummaCyclic, ProblemSpec{128, 128, 100, 8, 0},
       false, false, false},
      {"hsumma-B=b", Algorithm::Hsumma, ProblemSpec::square(128, 8), false,
       true, false},
      {"hsumma-B=4b", Algorithm::Hsumma, ProblemSpec::square(256, 8, 32),
       false, true, false},
      {"hsumma-cyclic", Algorithm::HsummaCyclic,
       ProblemSpec::square(128, 8, 16), false, true, false},
      {"cannon", Algorithm::Cannon, ProblemSpec::square(128, 8), false, false,
       true},
      {"lu", Algorithm::Lu, ProblemSpec::factorization(128, 8), false, false,
       false},
      {"lu-chains", Algorithm::Lu, ProblemSpec::factorization(128, 8), true,
       false, false},
  };
  const GridShape grids[] = {{2, 2}, {2, 4}, {4, 4}};
  std::vector<Case> out;
  for (const Kernel& kernel : kernels)
    for (const GridShape& grid : grids) {
      if (kernel.square_only && grid.rows != grid.cols) continue;
      for (const CollectiveMode mode :
           {CollectiveMode::ClosedForm, CollectiveMode::PointToPoint})
        for (const int depth : {1, 2, 3}) {
          Case c;
          c.name = std::string(kernel.name) + ":" + std::to_string(grid.rows) +
                   "x" + std::to_string(grid.cols) + ":" +
                   (mode == CollectiveMode::ClosedForm ? "cf" : "pp") + ":D" +
                   std::to_string(depth);
          SimJob& job = c.job;
          job.network = network;
          job.gamma_flop = 5e-9;
          // Uneven rank speeds, so deeper windows reorder the schedule.
          for (int r = 0; r < grid.size(); ++r)
            job.rank_gamma.push_back(1.0 + 0.75 * ((r * 5) % 4));
          job.collective_mode = mode;
          job.algorithm = kernel.algorithm;
          job.grid = grid;
          job.problem = kernel.problem;
          job.lookahead = depth;
          if (kernel.grouped) job.groups = std::max(2, grid.size() / 4);
          if (kernel.chains) {
            job.row_levels = {2};
            job.col_levels = {2};
          }
          out.push_back(std::move(c));
        }
    }
  return out;
}

/// FNV-1a over the schedule's text form (see the file comment).
std::uint64_t digest(const SimJob& base) {
  hs::trace::Recorder recorder;
  SimJob job = base;
  job.recorder = &recorder;
  const hs::core::RunResult result = hs::exec::run_sim_job(job);
  std::string text;
  char line[256];
  for (const hs::trace::TaskSpan& span : recorder.tasks()) {
    std::snprintf(line, sizeof line, "%d %d %lld %d %s %a %a\n", span.rank,
                  static_cast<int>(span.kind), span.step, span.level,
                  span.label, span.start, span.end);
    text += line;
  }
  std::snprintf(line, sizeof line, "total %a comm %a comp %a msgs %llu "
                "bytes %llu levels",
                result.timing.total_time, result.timing.max_comm_time,
                result.timing.max_comp_time,
                static_cast<unsigned long long>(result.messages),
                static_cast<unsigned long long>(result.wire_bytes));
  text += line;
  for (const double level : result.timing.max_level_comm_time) {
    std::snprintf(line, sizeof line, " %a", level);
    text += line;
  }
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

struct DigestRow {
  const char* name;
  std::uint64_t digest;
};
constexpr DigestRow kDigests[] = {
    // HS_CAPTURE_GOLDENS output pasted below.
    {"summa:2x2:cf:D1", 0xd9492c9e62a3072cull},
    {"summa:2x2:cf:D2", 0x1b26ae0b05dc7185ull},
    {"summa:2x2:cf:D3", 0x62c5c2d8e6611783ull},
    {"summa:2x2:pp:D1", 0x70d20879a96eb2e8ull},
    {"summa:2x2:pp:D2", 0x4d37e86a9e931efbull},
    {"summa:2x2:pp:D3", 0xc2be061c0c384ecdull},
    {"summa:2x4:cf:D1", 0x0fa8af157988f449ull},
    {"summa:2x4:cf:D2", 0xf3bddac2f1c5d093ull},
    {"summa:2x4:cf:D3", 0xcc380c4884c14ee9ull},
    {"summa:2x4:pp:D1", 0x440618c27fd7cbbaull},
    {"summa:2x4:pp:D2", 0xe3b6e2fb5845d698ull},
    {"summa:2x4:pp:D3", 0x62a01f0f5390b3ffull},
    {"summa:4x4:cf:D1", 0xd55f9f2db9d9ddf3ull},
    {"summa:4x4:cf:D2", 0x443a712c481b4291ull},
    {"summa:4x4:cf:D3", 0x443a712c481b4291ull},
    {"summa:4x4:pp:D1", 0x7fc47291fe50ef61ull},
    {"summa:4x4:pp:D2", 0x9ee312c7f46bb0dbull},
    {"summa:4x4:pp:D3", 0x9ee312c7f46bb0dbull},
    {"multilevel:2x2:cf:D1", 0x368ef453e9fe55edull},
    {"multilevel:2x2:cf:D2", 0xe6d479bdccfe96a1ull},
    {"multilevel:2x2:cf:D3", 0x5701b0a521299d1eull},
    {"multilevel:2x2:pp:D1", 0xfc602ce6fab0a446ull},
    {"multilevel:2x2:pp:D2", 0xb5de811aebd61330ull},
    {"multilevel:2x2:pp:D3", 0xf6b67eeb2bccfc87ull},
    {"multilevel:2x4:cf:D1", 0x2b83594d471605c2ull},
    {"multilevel:2x4:cf:D2", 0x7f77a44e27cebebaull},
    {"multilevel:2x4:cf:D3", 0x3a2b9add9924b435ull},
    {"multilevel:2x4:pp:D1", 0xe035899ed591c2b4ull},
    {"multilevel:2x4:pp:D2", 0xc4791bccb91f7afbull},
    {"multilevel:2x4:pp:D3", 0x48bf2c24bc4871c2ull},
    {"multilevel:4x4:cf:D1", 0xdd4907d39182abeeull},
    {"multilevel:4x4:cf:D2", 0x5fe8866914613790ull},
    {"multilevel:4x4:cf:D3", 0xcb7afe136782f27eull},
    {"multilevel:4x4:pp:D1", 0xb3529d7ad99800b3ull},
    {"multilevel:4x4:pp:D2", 0x022a24c5130f776cull},
    {"multilevel:4x4:pp:D3", 0x7fbb363bbd249e3full},
    {"summa-cyclic:2x2:cf:D1", 0xe863be2afff49020ull},
    {"summa-cyclic:2x2:cf:D2", 0x1df244874e2c60daull},
    {"summa-cyclic:2x2:cf:D3", 0x7a57ba60b8c622ecull},
    {"summa-cyclic:2x2:pp:D1", 0x26281c11a5d710dcull},
    {"summa-cyclic:2x2:pp:D2", 0xf16cf25139aa5ea8ull},
    {"summa-cyclic:2x2:pp:D3", 0x422c7229b5935c01ull},
    {"summa-cyclic:2x4:cf:D1", 0x68ee3b2ccc65eaf6ull},
    {"summa-cyclic:2x4:cf:D2", 0xa4e1be171517e66eull},
    {"summa-cyclic:2x4:cf:D3", 0x73161eb5bc1dd152ull},
    {"summa-cyclic:2x4:pp:D1", 0xa2978347ccdb1d45ull},
    {"summa-cyclic:2x4:pp:D2", 0x370627061e4b3f2cull},
    {"summa-cyclic:2x4:pp:D3", 0x16515f928fbda1bfull},
    {"summa-cyclic:4x4:cf:D1", 0x886d7a21e29de35full},
    {"summa-cyclic:4x4:cf:D2", 0x886d7a21e29de35full},
    {"summa-cyclic:4x4:cf:D3", 0x886d7a21e29de35full},
    {"summa-cyclic:4x4:pp:D1", 0x488b3c0a9f871f99ull},
    {"summa-cyclic:4x4:pp:D2", 0x25a547e669d481e3ull},
    {"summa-cyclic:4x4:pp:D3", 0x25a547e669d481e3ull},
    {"hsumma-B=b:2x2:cf:D1", 0xc2020281893df51full},
    {"hsumma-B=b:2x2:cf:D2", 0xa571b50a368f7601ull},
    {"hsumma-B=b:2x2:cf:D3", 0x1b3b425ec960c06aull},
    {"hsumma-B=b:2x2:pp:D1", 0xc2020281893df51full},
    {"hsumma-B=b:2x2:pp:D2", 0x0b1a6c73b9c43476ull},
    {"hsumma-B=b:2x2:pp:D3", 0xf45dee572ebd4209ull},
    {"hsumma-B=b:2x4:cf:D1", 0xb33f3f3971374c27ull},
    {"hsumma-B=b:2x4:cf:D2", 0xc1d69fc9c91373b3ull},
    {"hsumma-B=b:2x4:cf:D3", 0x8336ca9651ee89b7ull},
    {"hsumma-B=b:2x4:pp:D1", 0xf9ff5ba7870162c0ull},
    {"hsumma-B=b:2x4:pp:D2", 0x3f3b20c0be96596full},
    {"hsumma-B=b:2x4:pp:D3", 0x1d03fc65adf4ed74ull},
    {"hsumma-B=b:4x4:cf:D1", 0x7e249b9b56b2dc63ull},
    {"hsumma-B=b:4x4:cf:D2", 0x7526eff65a8f94ecull},
    {"hsumma-B=b:4x4:cf:D3", 0x779e11e85fd02dcbull},
    {"hsumma-B=b:4x4:pp:D1", 0x6ea7411565ef7be4ull},
    {"hsumma-B=b:4x4:pp:D2", 0xef48199eaae94897ull},
    {"hsumma-B=b:4x4:pp:D3", 0xf8020f432206bcfcull},
    {"hsumma-B=4b:2x2:cf:D1", 0xf1297981ec173993ull},
    {"hsumma-B=4b:2x2:cf:D2", 0xac522e6a1a4bb4f9ull},
    {"hsumma-B=4b:2x2:cf:D3", 0x1ff12dad95b80023ull},
    {"hsumma-B=4b:2x2:pp:D1", 0xf1297981ec173993ull},
    {"hsumma-B=4b:2x2:pp:D2", 0xb98f8d0a1dce34efull},
    {"hsumma-B=4b:2x2:pp:D3", 0xc8b5723743c67563ull},
    {"hsumma-B=4b:2x4:cf:D1", 0xc1adbc0057476f2cull},
    {"hsumma-B=4b:2x4:cf:D2", 0xec9a5a512462cddeull},
    {"hsumma-B=4b:2x4:cf:D3", 0x60af6fef95956395ull},
    {"hsumma-B=4b:2x4:pp:D1", 0x8731d098ab144bfeull},
    {"hsumma-B=4b:2x4:pp:D2", 0x473cb49beb954c9bull},
    {"hsumma-B=4b:2x4:pp:D3", 0xa1a1798ff83c1fcfull},
    {"hsumma-B=4b:4x4:cf:D1", 0x9ccab86804fd8129ull},
    {"hsumma-B=4b:4x4:cf:D2", 0xeea15459f09477f9ull},
    {"hsumma-B=4b:4x4:cf:D3", 0xfcaffc08ea47dfbdull},
    {"hsumma-B=4b:4x4:pp:D1", 0xe1dd7c39b3687e13ull},
    {"hsumma-B=4b:4x4:pp:D2", 0x92dc2b70562da3cdull},
    {"hsumma-B=4b:4x4:pp:D3", 0xe68104961a5b4755ull},
    {"hsumma-cyclic:2x2:cf:D1", 0x9a48018bf3d426aaull},
    {"hsumma-cyclic:2x2:cf:D2", 0xad95b680dfdd15a6ull},
    {"hsumma-cyclic:2x2:cf:D3", 0x65a791a8cabf6a7bull},
    {"hsumma-cyclic:2x2:pp:D1", 0x9a48018bf3d426aaull},
    {"hsumma-cyclic:2x2:pp:D2", 0x6bbda852f420537eull},
    {"hsumma-cyclic:2x2:pp:D3", 0x11376c7bfccb76bbull},
    {"hsumma-cyclic:2x4:cf:D1", 0x0eb20af870edad74ull},
    {"hsumma-cyclic:2x4:cf:D2", 0xd49f5acbf0681753ull},
    {"hsumma-cyclic:2x4:cf:D3", 0x8374ada775850fc7ull},
    {"hsumma-cyclic:2x4:pp:D1", 0x080dbe0524a1e84bull},
    {"hsumma-cyclic:2x4:pp:D2", 0xb7437f34cd52fdaaull},
    {"hsumma-cyclic:2x4:pp:D3", 0x00c25a370a0a0523ull},
    {"hsumma-cyclic:4x4:cf:D1", 0xeecf555278d2cbb9ull},
    {"hsumma-cyclic:4x4:cf:D2", 0xa59ceae27c9ed312ull},
    {"hsumma-cyclic:4x4:cf:D3", 0xd1d4c07eef5128e1ull},
    {"hsumma-cyclic:4x4:pp:D1", 0xb29742216973d290ull},
    {"hsumma-cyclic:4x4:pp:D2", 0x0603dc6f04cb9c9dull},
    {"hsumma-cyclic:4x4:pp:D3", 0x29f188ac3ca32ab6ull},
    {"cannon:2x2:cf:D1", 0xd01a054c38404f2aull},
    {"cannon:2x2:cf:D2", 0xd01a054c38404f2aull},
    {"cannon:2x2:cf:D3", 0xd01a054c38404f2aull},
    {"cannon:2x2:pp:D1", 0xd01a054c38404f2aull},
    {"cannon:2x2:pp:D2", 0xd01a054c38404f2aull},
    {"cannon:2x2:pp:D3", 0xd01a054c38404f2aull},
    {"cannon:4x4:cf:D1", 0x6ee848af8e298fb0ull},
    {"cannon:4x4:cf:D2", 0x6ee848af8e298fb0ull},
    {"cannon:4x4:cf:D3", 0x6ee848af8e298fb0ull},
    {"cannon:4x4:pp:D1", 0x6ee848af8e298fb0ull},
    {"cannon:4x4:pp:D2", 0x6ee848af8e298fb0ull},
    {"cannon:4x4:pp:D3", 0x6ee848af8e298fb0ull},
    {"lu:2x2:cf:D1", 0xc32c040255f00a6aull},
    {"lu:2x2:cf:D2", 0xc32c040255f00a6aull},
    {"lu:2x2:cf:D3", 0xc32c040255f00a6aull},
    {"lu:2x2:pp:D1", 0xdaf5875f68fc2c57ull},
    {"lu:2x2:pp:D2", 0xdaf5875f68fc2c57ull},
    {"lu:2x2:pp:D3", 0xdaf5875f68fc2c57ull},
    {"lu:2x4:cf:D1", 0xa7e5ced0bc050ff7ull},
    {"lu:2x4:cf:D2", 0xa7e5ced0bc050ff7ull},
    {"lu:2x4:cf:D3", 0xa7e5ced0bc050ff7ull},
    {"lu:2x4:pp:D1", 0x84b074fa4ff0c4f7ull},
    {"lu:2x4:pp:D2", 0x84b074fa4ff0c4f7ull},
    {"lu:2x4:pp:D3", 0x84b074fa4ff0c4f7ull},
    {"lu:4x4:cf:D1", 0xb4cd97c993f16369ull},
    {"lu:4x4:cf:D2", 0xb4cd97c993f16369ull},
    {"lu:4x4:cf:D3", 0xb4cd97c993f16369ull},
    {"lu:4x4:pp:D1", 0x54ea5e44510953e8ull},
    {"lu:4x4:pp:D2", 0x54ea5e44510953e8ull},
    {"lu:4x4:pp:D3", 0x54ea5e44510953e8ull},
    {"lu-chains:2x2:cf:D1", 0xc32c040255f00a6aull},
    {"lu-chains:2x2:cf:D2", 0xc32c040255f00a6aull},
    {"lu-chains:2x2:cf:D3", 0xc32c040255f00a6aull},
    {"lu-chains:2x2:pp:D1", 0xdaf5875f68fc2c57ull},
    {"lu-chains:2x2:pp:D2", 0xdaf5875f68fc2c57ull},
    {"lu-chains:2x2:pp:D3", 0xdaf5875f68fc2c57ull},
    {"lu-chains:2x4:cf:D1", 0xb0b30ca3d95c7874ull},
    {"lu-chains:2x4:cf:D2", 0xb0b30ca3d95c7874ull},
    {"lu-chains:2x4:cf:D3", 0xb0b30ca3d95c7874ull},
    {"lu-chains:2x4:pp:D1", 0x14908a5057727049ull},
    {"lu-chains:2x4:pp:D2", 0x14908a5057727049ull},
    {"lu-chains:2x4:pp:D3", 0x14908a5057727049ull},
    {"lu-chains:4x4:cf:D1", 0x007e7d58cde716a9ull},
    {"lu-chains:4x4:cf:D2", 0x007e7d58cde716a9ull},
    {"lu-chains:4x4:cf:D3", 0x007e7d58cde716a9ull},
    {"lu-chains:4x4:pp:D1", 0xbc20e757159379dfull},
    {"lu-chains:4x4:pp:D2", 0xbc20e757159379dfull},
    {"lu-chains:4x4:pp:D3", 0xbc20e757159379dfull},
};

TEST(TaskPlanDigests, Capture) {
  if (std::getenv("HS_CAPTURE_GOLDENS") == nullptr) GTEST_SKIP();
  for (const Case& c : cases())
    std::printf("    {\"%s\", 0x%016llxull},\n", c.name.c_str(),
                static_cast<unsigned long long>(digest(c.job)));
}

TEST(TaskPlanDigests, EveryPlanBuilderMatchesItsSchedule) {
  const std::vector<Case> all = cases();
  ASSERT_EQ(all.size(), std::size(kDigests));
  for (std::size_t i = 0; i < all.size(); ++i) {
    ASSERT_EQ(all[i].name, kDigests[i].name) << "case table out of order";
    EXPECT_EQ(digest(all[i].job), kDigests[i].digest) << all[i].name;
  }
}

}  // namespace
