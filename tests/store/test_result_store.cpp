// The content-addressed on-disk result store: durability across instances
// (process restarts) and between open instances, fingerprint namespace
// isolation, atomic publishes and corruption tolerance.
#include "store/result_store.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>

#include "exec/executor.hpp"
#include "store/fingerprint.hpp"

namespace {

namespace fs = std::filesystem;
using hs::core::RunResult;
using hs::store::ResultStore;
using hs::store::StoreOptions;

RunResult result_with(double total_time) {
  RunResult result;
  result.timing.total_time = total_time;
  result.timing.max_comm_time = total_time / 2;
  result.messages = static_cast<std::uint64_t>(total_time * 1000);
  return result;
}

fs::path object_file(const ResultStore& store, const std::string& key) {
  const std::string name = ResultStore::object_name(key);
  return fs::path(store.namespace_dir()) / "objects" / name.substr(0, 2) /
         (name + ".json");
}

std::string read_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

void write_bytes(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

class ResultStoreTest : public testing::Test {
 protected:
  void SetUp() override {
    root_ = testing::TempDir() + "/store_" +
            testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  std::string root_;
};

TEST_F(ResultStoreTest, SaveThenLoadRoundTrips) {
  ResultStore store({.root = root_});
  EXPECT_FALSE(store.load("key-a").has_value());
  store.save("key-a", result_with(1.5));
  const auto back = store.load("key-a");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->timing.total_time, 1.5);
  const auto stats = store.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.writes, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST_F(ResultStoreTest, SurvivesProcessRestart) {
  // A second instance on the same root (what a new bench process does)
  // sees the first instance's objects.
  {
    ResultStore store({.root = root_});
    store.save("key-a", result_with(2.5));
    store.save("key-b", result_with(3.5));
  }
  ResultStore reopened({.root = root_});
  const auto a = reopened.load("key-a");
  const auto b = reopened.load("key-b");
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->timing.total_time, 2.5);
  EXPECT_EQ(b->timing.total_time, 3.5);
  EXPECT_EQ(reopened.stats().entries, 2u);
}

TEST_F(ResultStoreTest, OpenStoreSeesAnotherInstancesPublish) {
  // Two instances on one root model two processes sharing a --cache-dir:
  // the reader is open before the writer publishes and must still hit.
  hs::exec::SimJob job;
  job.platform = hs::net::Platform::by_name("grid5000");
  job.ranks = 16;
  job.groups = 4;
  job.problem = hs::core::ProblemSpec::square(256, 32);
  auto reader = std::make_shared<ResultStore>(StoreOptions{.root = root_});
  ResultStore writer({.root = root_});
  const RunResult fresh = hs::exec::run_sim_job(job);
  writer.save(job.cache_key(), fresh);
  const auto seen = reader->load(job.cache_key());
  ASSERT_TRUE(seen.has_value()) << "the reader missed the writer's object";
  EXPECT_TRUE(*seen == fresh);

  hs::exec::ParallelExecutor executor({.jobs = 1, .store = reader});
  EXPECT_TRUE(executor.result(executor.submit(job)) == fresh);
  EXPECT_EQ(executor.engines_run(), 0u);
}

TEST_F(ResultStoreTest, FingerprintNamespacesAreInvisibleToEachOther) {
  // A simulator whose physics changed writes to a different namespace; old
  // results are never consulted (invalidation by invisibility). Plant a
  // valid object under a sibling namespace directory.
  const fs::path sibling = fs::path(root_) / "simv1";
  {
    ResultStore old({.root = root_});
    old.save("key-a", result_with(1.0));
    fs::rename(old.namespace_dir(), sibling);
  }
  ResultStore store({.root = root_});
  EXPECT_FALSE(store.load("key-a").has_value());
  EXPECT_EQ(store.stats().entries, 0u);
  EXPECT_NE(store.namespace_dir(), sibling.string());
  // The sibling's object is untouched: moved back, it loads.
  fs::remove_all(store.namespace_dir());
  fs::rename(sibling, store.namespace_dir());
  EXPECT_TRUE(store.load("key-a").has_value());
}

TEST_F(ResultStoreTest, DefaultFingerprintIsStable) {
  EXPECT_EQ(hs::store::simulator_fingerprint(),
            hs::store::simulator_fingerprint());
  EXPECT_EQ(hs::store::simulator_fingerprint().size(), 16u);
  ResultStore store({.root = root_});
  EXPECT_EQ(store.fingerprint(), hs::store::simulator_fingerprint());
}

TEST_F(ResultStoreTest, PublishesLeaveNoTempFiles) {
  ResultStore store({.root = root_});
  for (int i = 0; i < 8; ++i)
    store.save("key-" + std::to_string(i), result_with(i));
  std::size_t objects = 0;
  for (const auto& entry : fs::recursive_directory_iterator(root_)) {
    if (!entry.is_regular_file()) continue;
    EXPECT_EQ(entry.path().extension(), ".json")
        << "stray file: " << entry.path();
    ++objects;
  }
  EXPECT_EQ(objects, 8u);
}

TEST_F(ResultStoreTest, CorruptObjectIsDroppedAndCounted) {
  // A bad result, an object cut to half its bytes, one short by its last
  // byte and an empty one: each is a miss and one bad entry, is removed,
  // and the next save heals it.
  ResultStore store({.root = root_});
  store.save("key-a", result_with(1.0));
  const fs::path path = object_file(store, "key-a");
  const std::string bytes = read_bytes(path);
  ASSERT_FALSE(bytes.empty());
  const std::string corruptions[] = {
      "{\"key\":\"key-a\",\"result\":\"garbage\"}",
      bytes.substr(0, bytes.size() / 2), bytes.substr(0, bytes.size() - 1),
      ""};
  std::uint64_t bad = 0;
  for (const std::string& corrupt : corruptions) {
    SCOPED_TRACE(corrupt);
    write_bytes(path, corrupt);
    EXPECT_FALSE(store.load("key-a").has_value());
    EXPECT_EQ(store.stats().bad_entries, ++bad);
    EXPECT_FALSE(fs::exists(path)) << "corrupt object should be removed";
    store.save("key-a", result_with(4.0));
    const auto healed = store.load("key-a");
    ASSERT_TRUE(healed.has_value());
    EXPECT_EQ(healed->timing.total_time, 4.0);
  }
}

TEST_F(ResultStoreTest, StrayTempFileIsIgnored) {
  // A writer that crashed before its rename leaves <name>.json.tmp.<pid>:
  // not an object, so load misses and stats() skips it.
  ResultStore store({.root = root_});
  store.save("key-a", result_with(1.0));
  const fs::path path = object_file(store, "key-a");
  const fs::path stray = path.string() + ".tmp.12345";
  fs::rename(path, stray);
  EXPECT_FALSE(store.load("key-a").has_value());
  const auto stats = store.stats();
  EXPECT_EQ(stats.bad_entries, 0u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_TRUE(fs::exists(stray));
}

TEST_F(ResultStoreTest, LeftoverIndexFileIsIgnored) {
  // Stores written by earlier versions keep an index.json beside objects/:
  // it is neither read nor rewritten, and every object still loads.
  ResultStore store({.root = root_});
  store.save("key-a", result_with(1.0));
  store.save("key-b", result_with(2.0));
  const fs::path index = fs::path(store.namespace_dir()) / "index.json";
  const std::string stale = "{\"clock\":\"1\",\"entries\":{}}";
  write_bytes(index, stale);
  ResultStore reopened({.root = root_});
  EXPECT_TRUE(reopened.load("key-a").has_value());
  EXPECT_TRUE(reopened.load("key-b").has_value());
  reopened.save("key-c", result_with(3.0));
  EXPECT_EQ(reopened.stats().entries, 3u);
  EXPECT_EQ(read_bytes(index), stale);
}

TEST_F(ResultStoreTest, KeyMismatchIsAMissNeverAWrongResult) {
  // Model a 64-bit hash collision: an object whose embedded key differs
  // from the requested one must not be served.
  ResultStore store({.root = root_});
  store.save("key-a", result_with(1.0));
  const std::string name_a = ResultStore::object_name("key-a");
  const std::string name_b = ResultStore::object_name("key-b");
  const fs::path dir = fs::path(store.namespace_dir()) / "objects";
  fs::create_directories(dir / name_b.substr(0, 2));
  fs::copy_file(dir / name_a.substr(0, 2) / (name_a + ".json"),
                dir / name_b.substr(0, 2) / (name_b + ".json"));
  ResultStore reopened({.root = root_});
  EXPECT_FALSE(reopened.load("key-b").has_value());
  EXPECT_EQ(reopened.stats().bad_entries, 1u);
  EXPECT_TRUE(reopened.load("key-a").has_value());
}

TEST_F(ResultStoreTest, CollectMetricsExportsCountersAndFootprint) {
  ResultStore store({.root = root_});
  store.save("key-a", result_with(1.0));
  ASSERT_TRUE(store.load("key-a").has_value());
  EXPECT_FALSE(store.load("key-b").has_value());
  hs::trace::MetricsRegistry metrics;
  store.collect_metrics(metrics);
  EXPECT_EQ(metrics.counter("store.hits"), 1u);
  EXPECT_EQ(metrics.counter("store.misses"), 1u);
  EXPECT_EQ(metrics.counter("store.writes"), 1u);
  EXPECT_EQ(metrics.gauge("store.entries"), 1.0);
  EXPECT_GT(metrics.gauge("store.bytes"), 0.0);
}

}  // namespace
