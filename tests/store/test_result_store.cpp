// The content-addressed on-disk result store: durability across instances
// (process restarts), fingerprint namespace isolation, atomic publishes,
// corruption tolerance and LRU byte-budget eviction.
#include "store/result_store.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

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

TEST_F(ResultStoreTest, FingerprintNamespacesAreInvisibleToEachOther) {
  // A simulator whose physics changed writes to a different namespace; old
  // results are never consulted (invalidation by invisibility).
  ResultStore v1({.root = root_, .fingerprint = "simv1"});
  v1.save("key-a", result_with(1.0));
  ResultStore v2({.root = root_, .fingerprint = "simv2"});
  EXPECT_FALSE(v2.load("key-a").has_value());
  ASSERT_TRUE(v1.load("key-a").has_value());
  EXPECT_NE(v1.namespace_dir(), v2.namespace_dir());
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
    if (entry.path().filename() != "index.json") ++objects;
  }
  EXPECT_EQ(objects, 8u);
}

TEST_F(ResultStoreTest, CorruptObjectIsDroppedAndCounted) {
  ResultStore store({.root = root_});
  store.save("key-a", result_with(1.0));
  const std::string name = ResultStore::object_name("key-a");
  const fs::path path = fs::path(store.namespace_dir()) / "objects" /
                        name.substr(0, 2) / (name + ".json");
  ASSERT_TRUE(fs::exists(path));
  {
    std::ofstream out(path, std::ios::trunc);
    out << "{\"key\":\"key-a\",\"result\":\"garbage\"}";
  }
  EXPECT_FALSE(store.load("key-a").has_value());
  EXPECT_EQ(store.stats().bad_entries, 1u);
  EXPECT_FALSE(fs::exists(path)) << "corrupt object should be removed";
  // Republishing heals the slot.
  store.save("key-a", result_with(4.0));
  ASSERT_TRUE(store.load("key-a").has_value());
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

TEST_F(ResultStoreTest, ByteBudgetEvictsLeastRecentlyUsed) {
  // Entries are a few hundred bytes; a 3-entry budget forces eviction on
  // the fourth save. key-0 is touched between saves so key-1 is the LRU
  // victim.
  ResultStore sizer({.root = root_ + "-sizer"});
  sizer.save("probe", result_with(1.0));
  const std::uint64_t entry_bytes = sizer.stats().bytes;
  ASSERT_GT(entry_bytes, 0u);
  fs::remove_all(root_ + "-sizer");

  ResultStore store({.root = root_, .byte_budget = 3 * entry_bytes + 2});
  store.save("key-0", result_with(0.0));
  store.save("key-1", result_with(1.0));
  store.save("key-2", result_with(2.0));
  ASSERT_TRUE(store.load("key-0").has_value());  // bump key-0's clock
  store.save("key-3", result_with(3.0));
  EXPECT_EQ(store.stats().evictions, 1u);
  EXPECT_EQ(store.stats().entries, 3u);
  EXPECT_LE(store.stats().bytes, 3 * entry_bytes + 2);
  EXPECT_FALSE(store.load("key-1").has_value()) << "LRU entry should be gone";
  EXPECT_TRUE(store.load("key-0").has_value());
  EXPECT_TRUE(store.load("key-2").has_value());
  EXPECT_TRUE(store.load("key-3").has_value());
}

TEST_F(ResultStoreTest, LruClocksSurviveRestartViaIndex) {
  {
    ResultStore store({.root = root_});
    store.save("key-0", result_with(0.0));
    store.save("key-1", result_with(1.0));
    store.save("key-2", result_with(2.0));
    ASSERT_TRUE(store.load("key-0").has_value());  // most recently used
  }  // destructor flushes the index
  const std::uint64_t entry_bytes = [&] {
    ResultStore sizer({.root = root_ + "-sizer"});
    sizer.save("probe", result_with(1.0));
    return sizer.stats().bytes;
  }();
  fs::remove_all(root_ + "-sizer");
  ResultStore reopened({.root = root_, .byte_budget = 2 * entry_bytes + 1});
  reopened.save("key-3", result_with(3.0));  // must evict two LRU entries
  EXPECT_TRUE(reopened.load("key-3").has_value());
  EXPECT_TRUE(reopened.load("key-0").has_value())
      << "the recently-used entry should have survived the restart";
  EXPECT_FALSE(reopened.load("key-1").has_value());
  EXPECT_FALSE(reopened.load("key-2").has_value());
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
