#include "trace/metrics.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "desim/engine.hpp"
#include "exec/executor.hpp"
#include "mpc/collectives.hpp"

namespace {

using hs::desim::Engine;
using hs::desim::Task;
using hs::mpc::Buf;
using hs::mpc::Comm;
using hs::mpc::Machine;
using hs::trace::MetricsRegistry;

TEST(MetricsRegistry, CountersAccumulateAndGaugesOverwrite) {
  MetricsRegistry metrics;
  EXPECT_TRUE(metrics.empty());
  metrics.add_counter("a.calls", 2);
  metrics.add_counter("a.calls", 3);
  metrics.set_gauge("a.load", 0.5);
  metrics.set_gauge("a.load", 0.25);
  EXPECT_EQ(metrics.counter("a.calls"), 5u);
  EXPECT_DOUBLE_EQ(metrics.gauge("a.load"), 0.25);
  EXPECT_TRUE(metrics.has_counter("a.calls"));
  EXPECT_FALSE(metrics.has_counter("missing"));
  EXPECT_FALSE(metrics.empty());
  metrics.clear();
  EXPECT_TRUE(metrics.empty());
}

TEST(MetricsRegistry, TableListsCountersSorted) {
  MetricsRegistry metrics;
  metrics.add_counter("z.last", 1);
  metrics.add_counter("a.first", 2);
  std::ostringstream out;
  metrics.to_table().print(out);
  const std::string text = out.str();
  const auto first = text.find("a.first");
  const auto last = text.find("z.last");
  ASSERT_NE(first, std::string::npos);
  ASSERT_NE(last, std::string::npos);
  EXPECT_LT(first, last);
}

TEST(MetricsRegistry, JsonIsSortedAndEscaped) {
  MetricsRegistry metrics;
  metrics.add_counter("b.count", 7);
  metrics.add_counter("a \"quoted\"", 1);
  metrics.set_gauge("g.ratio", 0.5);
  const std::string json = metrics.to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"b.count\":7"), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("\"g.ratio\":0.5"), std::string::npos);
  EXPECT_LT(json.find("a \\\"quoted\\\""), json.find("b.count"));
}

TEST(MetricsRegistry, HistogramsRenderQuantilesInJson) {
  MetricsRegistry metrics;
  for (int i = 1; i <= 100; ++i)
    metrics.histogram("h.latency").add(static_cast<double>(i));
  const std::string json = metrics.to_json();
  // The histograms section sits alongside counters/gauges and each entry
  // carries the full quantile summary.
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"h.latency\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":100"), std::string::npos);
  EXPECT_NE(json.find("\"min\":1"), std::string::npos);
  EXPECT_NE(json.find("\"max\":100"), std::string::npos);
  for (const char* key : {"\"sum\":", "\"p50\":", "\"p90\":", "\"p99\":"})
    EXPECT_NE(json.find(key), std::string::npos) << key;
  // Empty histograms are droppable noise, never NaN in the JSON.
  metrics.histogram("h.empty");
  EXPECT_EQ(metrics.to_json().find("nan"), std::string::npos);
}

TEST(MetricsRegistry, MergeCombinesAllThreeKinds) {
  MetricsRegistry a, b;
  a.add_counter("calls", 3);
  b.add_counter("calls", 4);
  b.add_counter("only_b", 1);
  a.set_gauge("peak", 2.0);
  b.set_gauge("peak", 5.0);  // gauges are ceilings: merge takes the max
  a.histogram("lat").add(1.0);
  a.histogram("lat").add(4.0);
  b.histogram("lat").add(2.0);
  b.histogram("only_b.lat").add(8.0);
  a.merge(b);
  EXPECT_EQ(a.counter("calls"), 7u);
  EXPECT_EQ(a.counter("only_b"), 1u);
  EXPECT_DOUBLE_EQ(a.gauge("peak"), 5.0);
  const hs::Histogram* lat = a.find_histogram("lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count(), 3u);
  EXPECT_EQ(lat->min(), 1.0);
  EXPECT_EQ(lat->max(), 4.0);
  ASSERT_TRUE(a.has_histogram("only_b.lat"));
  // Merge is deterministic regardless of worker order: the mirror merge
  // produces identical JSON.
  MetricsRegistry a2, b2;
  a2.add_counter("calls", 4);
  a2.add_counter("only_b", 1);
  b2.add_counter("calls", 3);
  a2.set_gauge("peak", 5.0);
  b2.set_gauge("peak", 2.0);
  a2.histogram("lat").add(2.0);
  a2.histogram("only_b.lat").add(8.0);
  b2.histogram("lat").add(1.0);
  b2.histogram("lat").add(4.0);
  a2.merge(b2);
  EXPECT_EQ(a2.to_json(), a.to_json());
}

TEST(MetricsRegistry, TableListsHistogramRows) {
  MetricsRegistry metrics;
  metrics.histogram("queue.depth").add(2.0);
  metrics.histogram("queue.depth").add(6.0);
  std::ostringstream out;
  metrics.to_table().print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("queue.depth"), std::string::npos);
  EXPECT_NE(text.find("p50"), std::string::npos);
  EXPECT_NE(text.find("count=2"), std::string::npos);
}

TEST(MetricsRegistry, EngineCollectorReportsEventCounts) {
  Engine engine;
  auto program = [&]() -> Task<void> {
    co_await engine.sleep(1.0);
    co_await engine.sleep(1.0);
  };
  engine.spawn(program());
  engine.run();
  MetricsRegistry metrics;
  hs::trace::collect_engine_metrics(engine, metrics);
  EXPECT_GT(metrics.counter("desim.events_processed"), 0u);
  EXPECT_TRUE(metrics.has_counter("desim.heap_peak"));
}

TEST(MetricsRegistry, MachineCollectorCountsCollectives) {
  Engine engine;
  Machine machine(engine,
                  std::make_shared<hs::net::HockneyModel>(1e-5, 1e-9),
                  {.ranks = 4});
  auto program = [&](Comm comm) -> Task<void> {
    co_await hs::mpc::bcast(comm, 0, Buf::phantom(64),
                            hs::net::BcastAlgo::Binomial);
    co_await hs::mpc::reduce(comm, 0, hs::mpc::ConstBuf::phantom(16),
                             Buf::phantom(16));
  };
  hs::mpc::run_spmd(machine, program);

  MetricsRegistry metrics;
  machine.collect_metrics(metrics);
  EXPECT_EQ(metrics.counter("mpc.collective.bcast.calls"), 4u);
  EXPECT_EQ(metrics.counter("mpc.collective.bcast.bytes"), 4u * 64u * 8u);
  EXPECT_EQ(metrics.counter("mpc.collective.reduce.calls"), 4u);
  EXPECT_EQ(metrics.counter("mpc.collective.reduce.bytes"), 4u * 16u * 8u);
  EXPECT_EQ(metrics.counter("mpc.bcast_algo.binomial.calls"), 4u);
  EXPECT_GT(metrics.counter("mpc.messages"), 0u);
  EXPECT_GT(metrics.counter("mpc.wire_bytes"), 0u);
  // Port busy gauges exist and are consistent.
  EXPECT_GE(metrics.gauge("mpc.port.send_busy_total_s"),
            metrics.gauge("mpc.port.send_busy_max_s"));
}

TEST(MetricsRegistry, ExecutorCollectorCountsJobs) {
  hs::exec::ParallelExecutor executor({.jobs = 2});
  hs::exec::SimJob job;
  job.platform = hs::net::Platform::by_name("grid5000");
  job.ranks = 4;
  job.problem = hs::core::ProblemSpec::square(64, 32);
  executor.submit(job);
  executor.submit(job);  // identical: cache or coalesce hit
  executor.wait_all();

  MetricsRegistry metrics;
  executor.collect_metrics(metrics);
  EXPECT_EQ(metrics.counter("exec.jobs_submitted"), 2u);
  EXPECT_EQ(metrics.counter("exec.engines_run"), 1u);
  EXPECT_EQ(metrics.counter("exec.cache_hits"), 1u);
  EXPECT_GT(metrics.counter("exec.run_ns_total"), 0u);
  EXPECT_GE(metrics.counter("exec.run_ns_total"),
            metrics.counter("exec.run_ns_max"));
  EXPECT_DOUBLE_EQ(metrics.gauge("exec.workers"), 2.0);
}

}  // namespace
