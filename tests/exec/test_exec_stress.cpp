// Stress and race coverage for the parallel executor; built to run clean
// under TSan (cmake -DHS_SANITIZE=thread, ctest -L stress).
#include "exec/executor.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "core/hierarchy.hpp"
#include "fault/fault_plan.hpp"
#include "trace/metrics.hpp"
#include "trace/recorder.hpp"

namespace {

using hs::exec::ParallelExecutor;
using hs::exec::SimJob;

SimJob tiny_job(int groups, std::uint64_t seed) {
  SimJob job;
  job.platform = hs::net::Platform::by_name("grid5000");
  job.ranks = 16;
  job.groups = groups;
  job.problem = hs::core::ProblemSpec::square(128, 32);
  job.seed = seed;  // distinct seeds defeat the cache where wanted
  return job;
}

TEST(ExecStress, ManySmallJobsAllComplete) {
  ParallelExecutor executor({.jobs = 4});
  std::vector<std::size_t> ids;
  for (int i = 0; i < 64; ++i)
    ids.push_back(executor.submit(
        tiny_job(1 << (i % 5), static_cast<std::uint64_t>(i / 10))));
  executor.wait_all();
  for (std::size_t id : ids)
    EXPECT_GT(executor.result(id).timing.total_time, 0.0);
  EXPECT_EQ(executor.jobs_submitted(), 64u);
  EXPECT_EQ(executor.engines_run() + executor.cache_hits(), 64u);
}

TEST(ExecStress, FaultySweepUnderFourWorkers) {
  // Straggler jobs share one immutable FaultPlan across workers: the plan
  // must be read-only under TSan and the results bit-identical to the
  // serial path.
  const auto plan = std::make_shared<const hs::fault::FaultPlan>(
      hs::fault::FaultPlan::stragglers(16, 2, 4.0, 9));
  auto faulty_job = [&plan](int groups, std::uint64_t seed) {
    SimJob job = tiny_job(groups, seed);
    job.faults = plan;
    return job;
  };

  ParallelExecutor serial({.jobs = 1});
  ParallelExecutor parallel({.jobs = 4});
  std::vector<std::size_t> serial_ids, parallel_ids;
  for (int i = 0; i < 32; ++i) {
    const int groups = 1 << (i % 5);
    const auto seed = static_cast<std::uint64_t>(i / 8);
    serial_ids.push_back(serial.submit(faulty_job(groups, seed)));
    parallel_ids.push_back(parallel.submit(faulty_job(groups, seed)));
  }
  parallel.wait_all();
  for (std::size_t i = 0; i < serial_ids.size(); ++i) {
    const auto a = serial.result(serial_ids[i]);
    const auto b = parallel.result(parallel_ids[i]);
    EXPECT_EQ(a.timing.total_time, b.timing.total_time);
    EXPECT_EQ(a.timing.max_comm_time, b.timing.max_comm_time);
  }
}

TEST(ExecStress, ConcurrentProducersAndReaders) {
  // Several threads submit and immediately read results while workers run:
  // exercises submit/result/cache interleavings under contention.
  ParallelExecutor executor({.jobs = 3});
  std::vector<std::thread> producers;
  producers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    producers.emplace_back([&executor, t] {
      for (int i = 0; i < 8; ++i) {
        const std::size_t id = executor.submit(
            tiny_job(1 << (i % 5), static_cast<std::uint64_t>(t)));
        EXPECT_GT(executor.result(id).timing.total_time, 0.0);
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  executor.wait_all();
  EXPECT_EQ(executor.jobs_submitted(), 32u);
}

TEST(ExecStress, LuParallelSweepRacesClean) {
  // Factorization jobs run through the same registry path as the
  // multiplication kernels; a mixed-depth LU sweep with duplicated points
  // exercises worker/cache interleavings (and the TSan lane) on the
  // factorization harness too.
  ParallelExecutor executor({.jobs = 4});
  std::vector<std::size_t> ids;
  for (int i = 0; i < 24; ++i) {
    SimJob job;
    job.platform = hs::net::Platform::by_name("grid5000");
    job.algorithm = hs::core::Algorithm::Lu;
    job.ranks = 16;
    job.groups = 1 << (i % 3);  // 1, 2, 4 -> flat and two hierarchies
    job.problem = hs::core::ProblemSpec::factorization(128, 16);
    job.seed = static_cast<std::uint64_t>(i / 6);
    ids.push_back(executor.submit(std::move(job)));
  }
  executor.wait_all();
  for (std::size_t id : ids)
    EXPECT_GT(executor.result(id).timing.total_time, 0.0);
  EXPECT_EQ(executor.jobs_submitted(), 24u);
  EXPECT_EQ(executor.engines_run() + executor.cache_hits(), 24u);
  EXPECT_GT(executor.cache_hits(), 0u);  // duplicated points dedupe
}

TEST(ExecStress, TaskPlanDepthSweepRacesClean) {
  // The full (G, D) plane the tuner samples, under four workers racing a
  // serial twin: task-graph construction and the overlapped scheduler run
  // inside worker threads here, so this is the TSan lane for the task
  // runtime. Results must be bit-identical to the serial path, depth
  // included, and duplicated (G, D) points must coalesce in the cache.
  auto plane_job = [](hs::core::Algorithm algorithm, int groups, int depth,
                      std::uint64_t seed) {
    SimJob job = tiny_job(groups, seed);
    job.algorithm = algorithm;
    job.lookahead = depth;
    return job;
  };
  ParallelExecutor serial({.jobs = 1});
  ParallelExecutor parallel({.jobs = 4});
  std::vector<std::size_t> serial_ids, parallel_ids;
  for (int i = 0; i < 48; ++i) {
    const int depth = i % 4;  // 0..3 spans inline and deep schedules
    const int groups = 1 << (i / 4 % 3);
    const auto algorithm = (i / 12) % 2 == 0 ? hs::core::Algorithm::Summa
                                             : hs::core::Algorithm::Hsumma;
    const int g = algorithm == hs::core::Algorithm::Summa ? 1 : 2 * groups;
    serial_ids.push_back(serial.submit(plane_job(algorithm, g, depth, 0)));
    parallel_ids.push_back(parallel.submit(plane_job(algorithm, g, depth, 0)));
  }
  parallel.wait_all();
  for (std::size_t i = 0; i < serial_ids.size(); ++i) {
    const auto a = serial.result(serial_ids[i]);
    const auto b = parallel.result(parallel_ids[i]);
    EXPECT_EQ(a.timing.total_time, b.timing.total_time);
    EXPECT_EQ(a.timing.max_comm_time, b.timing.max_comm_time);
    EXPECT_EQ(a.messages, b.messages);
    EXPECT_EQ(a.wire_bytes, b.wire_bytes);
  }
  EXPECT_GT(parallel.cache_hits(), 0u);  // repeated (G, D) points dedupe
}

TEST(ExecStress, HierarchySweepRacesClean) {
  // Multi-level chains under four workers racing a serial twin: the
  // recursive kernel builds per-level sub-communicators and slot rings
  // inside worker threads, so this is the TSan lane for the hierarchy
  // spine. jobs=1 and jobs=4 must be bit-identical for every (chain, D)
  // point, and duplicated points must coalesce in the cache.
  const hs::core::GroupHierarchy chains[] = {
      hs::core::GroupHierarchy(),           // flat SUMMA
      hs::core::GroupHierarchy({4}),        // scalar chain -> legacy HSUMMA
      hs::core::GroupHierarchy({2, 2}),     // 2-deep
      hs::core::GroupHierarchy({4, 2}),     // 2-deep, asymmetric
  };
  auto chain_job = [](const hs::core::GroupHierarchy& chain, int depth,
                      std::uint64_t seed) {
    SimJob job = tiny_job(1, seed);
    job.groups = 1;
    job.hierarchy = chain;
    job.lookahead = depth;
    return job;
  };
  ParallelExecutor serial({.jobs = 1});
  ParallelExecutor parallel({.jobs = 4});
  std::vector<std::size_t> serial_ids, parallel_ids;
  for (int i = 0; i < 32; ++i) {
    const auto& chain = chains[i % 4];
    const int depth = (i / 4) % 2;
    serial_ids.push_back(serial.submit(chain_job(chain, depth, 0)));
    parallel_ids.push_back(parallel.submit(chain_job(chain, depth, 0)));
  }
  parallel.wait_all();
  for (std::size_t i = 0; i < serial_ids.size(); ++i) {
    const auto a = serial.result(serial_ids[i]);
    const auto b = parallel.result(parallel_ids[i]);
    EXPECT_EQ(a.timing.total_time, b.timing.total_time);
    EXPECT_EQ(a.timing.max_comm_time, b.timing.max_comm_time);
    EXPECT_EQ(a.timing.max_level_comm_time, b.timing.max_level_comm_time);
    EXPECT_EQ(a.messages, b.messages);
    EXPECT_EQ(a.wire_bytes, b.wire_bytes);
  }
  EXPECT_GT(parallel.cache_hits(), 0u);  // repeated chain points dedupe
}

TEST(ExecStress, TracedSweepRacesClean) {
  // Every job in the sweep carries its own Recorder and MetricsRegistry;
  // workers on different threads fill them concurrently. Each sink is
  // private to one job, so this must be data-race-free under TSan, and
  // sink-carrying jobs must bypass the result cache (no shared sink, no
  // coalescing).
  constexpr int kJobs = 20;
  std::vector<std::unique_ptr<hs::trace::Recorder>> recorders;
  std::vector<std::unique_ptr<hs::trace::MetricsRegistry>> registries;
  for (int i = 0; i < kJobs; ++i) {
    recorders.push_back(std::make_unique<hs::trace::Recorder>());
    registries.push_back(std::make_unique<hs::trace::MetricsRegistry>());
  }
  ParallelExecutor executor({.jobs = 4});
  std::vector<std::size_t> ids;
  for (int i = 0; i < kJobs; ++i) {
    SimJob job = tiny_job(1 << (i % 3), /*seed=*/0);  // duplicated points
    job.recorder = recorders[static_cast<std::size_t>(i)].get();
    job.metrics = registries[static_cast<std::size_t>(i)].get();
    ids.push_back(executor.submit(std::move(job)));
  }
  executor.wait_all();
  for (int i = 0; i < kJobs; ++i) {
    EXPECT_GT(executor.result(ids[static_cast<std::size_t>(i)])
                  .timing.total_time,
              0.0);
    EXPECT_FALSE(recorders[static_cast<std::size_t>(i)]->empty());
    EXPECT_FALSE(registries[static_cast<std::size_t>(i)]->empty());
  }
  // Identical parameter points were NOT deduped: each sink saw its run.
  EXPECT_EQ(executor.engines_run(), static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(executor.cache_hits(), 0u);
}

TEST(ExecStress, DestructorDrainsQueuedJobs) {
  std::vector<std::size_t> ids;
  {
    ParallelExecutor executor({.jobs = 2});
    for (int i = 0; i < 16; ++i)
      ids.push_back(executor.submit(
          tiny_job(2, static_cast<std::uint64_t>(i))));
    // No result()/wait_all(): the destructor must finish every job, not
    // abandon the queue.
  }
  EXPECT_EQ(ids.size(), 16u);
}

}  // namespace
