// Golden cache keys: the exact bytes of SimJob::cache_key() for every
// registered kernel and every optional key component (`;la=`, `;h=`,
// `;rg=`, `;fault=`, noise). These bytes are the identity of every entry
// in the in-memory cache AND the on-disk store — if one of these tests
// fails, the change silently invalidates (or worse, aliases) cached
// results. Bump deliberately, never by accident; a deliberate bump should
// normally come with a simulator-fingerprint bump (store/fingerprint.cpp)
// so stale on-disk entries become invisible rather than wrong.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/hierarchy.hpp"
#include "exec/sim_job.hpp"
#include "fault/fault_plan.hpp"

namespace {

using hs::core::Algorithm;
using hs::core::ProblemSpec;
using hs::exec::SimJob;

// One canonical job shape: grid5000, 4x4 grid, G=4, 256/32 square (256/16
// factorization), all options default. Every golden below is this job with
// exactly one knob turned.
SimJob base_job(Algorithm algorithm) {
  SimJob job;
  job.platform = hs::net::Platform::by_name("grid5000");
  job.gamma_flop = job.platform.gamma_flop;
  job.algorithm = algorithm;
  job.grid = {4, 4};
  job.groups = 4;
  if (algorithm == Algorithm::Lu || algorithm == Algorithm::Cholesky)
    job.problem = ProblemSpec::factorization(256, 16);
  else
    job.problem = ProblemSpec::square(256, 32);
  return job;
}

// The shared key bytes around the serialized Algorithm value. Assembled
// from string literals (never from the code under test), so each per-kernel
// golden is still a byte-for-byte constant.
std::string golden_key(const std::string& alg, int block,
                       const std::string& tail = "") {
  return "net=hockney(0x1.a36e2eb1c432dp-14,0x1.12e0be826d695p-33);"
         "gamma=0x1.12e0be826d695p-33;cm=1;mba=5;alg=" +
         alg + ";grid=4x4;layers=1;groups=4;rl=;cl=;prob=256,256,256," +
         std::to_string(block) +
         ",0;mode=1;bcast=-1;ovl=0;la=-1;verify=0;seed=2013;ns=0x0p+0;"
         "nseed=0" +
         tail;
}

// Every kernel in the registry, with the serialized enum value it must
// keep forever (enumerators are append-only for exactly this reason).
TEST(CacheKeyGoldens, EveryKernelKeepsItsKeyBytes) {
  const std::vector<std::pair<Algorithm, std::string>> kernels = {
      {Algorithm::Summa, "0"},        {Algorithm::Hsumma, "1"},
      {Algorithm::HsummaMultilevel, "2"}, {Algorithm::SummaCyclic, "3"},
      {Algorithm::HsummaCyclic, "4"}, {Algorithm::Cannon, "5"},
      {Algorithm::Fox, "6"},          {Algorithm::Summa25D, "7"},
  };
  for (const auto& [algorithm, alg] : kernels)
    EXPECT_EQ(base_job(algorithm).cache_key(), golden_key(alg, 32))
        << "alg=" << alg;
  EXPECT_EQ(base_job(Algorithm::Lu).cache_key(), golden_key("8", 16));
  EXPECT_EQ(base_job(Algorithm::Cholesky).cache_key(), golden_key("9", 16));
}

TEST(CacheKeyGoldens, LookaheadSerializesIntoTheLaField) {
  SimJob job = base_job(Algorithm::Hsumma);
  job.lookahead = 3;
  EXPECT_EQ(job.cache_key(),
            "net=hockney(0x1.a36e2eb1c432dp-14,0x1.12e0be826d695p-33);"
            "gamma=0x1.12e0be826d695p-33;cm=1;mba=5;alg=1;grid=4x4;"
            "layers=1;groups=4;rl=;cl=;prob=256,256,256,32,0;mode=1;"
            "bcast=-1;ovl=0;la=3;verify=0;seed=2013;ns=0x0p+0;nseed=0");
}

TEST(CacheKeyGoldens, DeepHierarchyChainAppendsH) {
  SimJob job = base_job(Algorithm::Hsumma);
  job.groups = 1;
  job.hierarchy = hs::core::GroupHierarchy({4, 2, 2});
  EXPECT_EQ(job.cache_key(),
            "net=hockney(0x1.a36e2eb1c432dp-14,0x1.12e0be826d695p-33);"
            "gamma=0x1.12e0be826d695p-33;cm=1;mba=5;alg=1;grid=4x4;"
            "layers=1;groups=1;rl=;cl=;prob=256,256,256,32,0;mode=1;"
            "bcast=-1;ovl=0;la=-1;verify=0;seed=2013;ns=0x0p+0;nseed=0;"
            "h=4x2x2");
}

TEST(CacheKeyGoldens, RankGammaAppendsHexfloatRg) {
  SimJob job = base_job(Algorithm::Summa);
  job.rank_gamma.assign(16, 1.0);
  job.rank_gamma[3] = 2.5;
  EXPECT_EQ(job.cache_key(),
            golden_key("0", 32,
                       ";rg=0x1p+0,0x1p+0,0x1p+0,0x1.4p+1,0x1p+0,0x1p+0,"
                       "0x1p+0,0x1p+0,0x1p+0,0x1p+0,0x1p+0,0x1p+0,0x1p+0,"
                       "0x1p+0,0x1p+0,0x1p+0,"));
}

TEST(CacheKeyGoldens, FaultPlanAppendsItsCanonicalSpec) {
  SimJob job = base_job(Algorithm::Summa);
  job.faults = std::make_shared<hs::fault::FaultPlan>(hs::fault::FaultPlan{
      .slowdowns = {{1, 0.5, hs::fault::kForever, 4.0}}});
  EXPECT_EQ(job.cache_key(),
            golden_key("0", 32,
                       ";fault=seed=2013;retry:max=16,base=0x1p+0,"
                       "cap=0x1p+6;slow:rank=1,start=0x1p-1,end=inf,"
                       "factor=0x1p+2"));
}

TEST(CacheKeyGoldens, NoiseSerializesSigmaAndSeed) {
  SimJob job = base_job(Algorithm::Summa);
  job.noise_sigma = 0.05;
  job.noise_seed = 99;
  EXPECT_EQ(job.cache_key(),
            "net=hockney(0x1.a36e2eb1c432dp-14,0x1.12e0be826d695p-33);"
            "gamma=0x1.12e0be826d695p-33;cm=1;mba=5;alg=0;grid=4x4;"
            "layers=1;groups=4;rl=;cl=;prob=256,256,256,32,0;mode=1;"
            "bcast=-1;ovl=0;la=-1;verify=0;seed=2013;"
            "ns=0x1.999999999999ap-5;nseed=99");
}

// All optional components at once, in their fixed order: la in the fixed
// block, then ;h= then ;rg= then ;fault= appended.
TEST(CacheKeyGoldens, EveryOptionalComponentComposesInOrder) {
  SimJob job = base_job(Algorithm::Hsumma);
  job.groups = 1;
  job.hierarchy = hs::core::GroupHierarchy({4, 4});
  job.lookahead = 2;
  job.rank_gamma.assign(16, 1.0);
  job.rank_gamma[0] = 2.0;
  job.faults = std::make_shared<hs::fault::FaultPlan>(hs::fault::FaultPlan{
      .slowdowns = {{1, 0.5, hs::fault::kForever, 4.0}}});
  EXPECT_EQ(job.cache_key(),
            "net=hockney(0x1.a36e2eb1c432dp-14,0x1.12e0be826d695p-33);"
            "gamma=0x1.12e0be826d695p-33;cm=1;mba=5;alg=1;grid=4x4;"
            "layers=1;groups=1;rl=;cl=;prob=256,256,256,32,0;mode=1;"
            "bcast=-1;ovl=0;la=2;verify=0;seed=2013;ns=0x0p+0;nseed=0;"
            "h=4x4;"
            "rg=0x1p+1,0x1p+0,0x1p+0,0x1p+0,0x1p+0,0x1p+0,0x1p+0,0x1p+0,"
            "0x1p+0,0x1p+0,0x1p+0,0x1p+0,0x1p+0,0x1p+0,0x1p+0,0x1p+0,;"
            "fault=seed=2013;retry:max=16,base=0x1p+0,cap=0x1p+6;"
            "slow:rank=1,start=0x1p-1,end=inf,factor=0x1p+2");
}

}  // namespace
