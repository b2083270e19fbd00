#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "desim/engine.hpp"

namespace {

using hs::desim::Async;
using hs::desim::Engine;
using hs::desim::Task;

TEST(Async, ForkedTaskRunsConcurrentlyWithParent) {
  Engine engine;
  std::vector<std::pair<char, double>> log;
  auto child = [&]() -> Task<void> {
    co_await engine.sleep(1.0);
    log.emplace_back('c', engine.now());
  };
  auto parent = [&]() -> Task<void> {
    Async forked = Async::start(engine, child(), "child");
    co_await engine.sleep(3.0);  // parent "computes" while child runs
    log.emplace_back('p', engine.now());
    co_await forked.wait();
    log.emplace_back('j', engine.now());
  };
  engine.spawn(parent());
  engine.run();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], std::make_pair('c', 1.0));  // child finished first
  EXPECT_EQ(log[1], std::make_pair('p', 3.0));
  EXPECT_EQ(log[2], std::make_pair('j', 3.0));  // join was free
}

TEST(Async, JoinBlocksUntilChildFinishes) {
  Engine engine;
  double join_time = 0.0;
  auto child = [&]() -> Task<void> { co_await engine.sleep(5.0); };
  auto parent = [&]() -> Task<void> {
    Async forked = Async::start(engine, child());
    co_await engine.sleep(1.0);
    co_await forked.wait();
    join_time = engine.now();
  };
  engine.spawn(parent());
  engine.run();
  EXPECT_DOUBLE_EQ(join_time, 5.0);
}

TEST(Async, OverlapHidesCommBehindCompute) {
  // The overlap pattern: total = max(comm, comp) + epsilon, not comm + comp.
  Engine engine;
  auto comm_like = [&]() -> Task<void> { co_await engine.sleep(2.0); };
  auto rank = [&]() -> Task<void> {
    Async transfer = Async::start(engine, comm_like());
    co_await engine.sleep(3.0);  // compute
    co_await transfer.wait();
  };
  engine.spawn(rank());
  engine.run();
  EXPECT_DOUBLE_EQ(engine.now(), 3.0);
}

TEST(Async, MultipleForksJoinInAnyOrder) {
  Engine engine;
  auto child = [&](double t) -> Task<void> { co_await engine.sleep(t); };
  auto parent = [&]() -> Task<void> {
    Async a = Async::start(engine, child(4.0));
    Async b = Async::start(engine, child(1.0));
    co_await a.wait();
    co_await b.wait();  // already done
  };
  engine.spawn(parent());
  engine.run();
  EXPECT_DOUBLE_EQ(engine.now(), 4.0);
}

TEST(Async, EmptyAsyncThrowsOnWait) {
  Async empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_THROW(empty.wait(), hs::PreconditionError);
}

TEST(Async, CompleteReflectsChildState) {
  Engine engine;
  Async forked;
  auto child = [&]() -> Task<void> { co_await engine.sleep(1.0); };
  auto parent = [&]() -> Task<void> {
    forked = Async::start(engine, child());
    EXPECT_FALSE(forked.complete());
    co_await engine.sleep(2.0);
    EXPECT_TRUE(forked.complete());
    co_await forked.wait();
  };
  engine.spawn(parent());
  engine.run();
}

/// Sets *destroyed when the last owner of the witness goes away.
class Witness {
 public:
  explicit Witness(bool* destroyed) : destroyed_(destroyed) {}
  Witness(Witness&& other) noexcept
      : destroyed_(std::exchange(other.destroyed_, nullptr)) {}
  Witness(const Witness&) = delete;
  Witness& operator=(const Witness&) = delete;
  Witness& operator=(Witness&&) = delete;
  ~Witness() {
    if (destroyed_ != nullptr) *destroyed_ = true;
  }

 private:
  bool* destroyed_;
};

/// A task whose frame holds a by-value witness until the frame is freed.
Task<void> hold(Engine& engine, [[maybe_unused]] Witness witness) {
  co_await engine.sleep(1.0);
}

TEST(Async, ForkedTaskFrameIsFreedBeforeItsJoinerResumes) {
  Engine engine;
  bool destroyed = false;
  bool destroyed_at_join = false;
  auto parent = [&]() -> Task<void> {
    Async forked = Async::start(engine, hold(engine, Witness(&destroyed)));
    co_await forked.wait();
    destroyed_at_join = destroyed;
  };
  engine.spawn(parent());
  engine.run();
  EXPECT_TRUE(destroyed_at_join);
}

TEST(Async, SpawnedProcessFrameIsFreedBeforeRunReturns) {
  Engine engine;
  bool destroyed = false;
  engine.spawn(hold(engine, Witness(&destroyed)));
  engine.run();
  EXPECT_TRUE(destroyed);
}

TEST(Async, ChildExceptionSurfacesFromRun) {
  Engine engine;
  auto child = [&]() -> Task<void> {
    co_await engine.sleep(1.0);
    throw std::runtime_error("child failed");
  };
  auto parent = [&]() -> Task<void> {
    Async forked = Async::start(engine, child());
    co_await engine.sleep(10.0);
    co_await forked.wait();
  };
  engine.spawn(parent());
  EXPECT_THROW(engine.run(), std::runtime_error);
}

}  // namespace
