#include "desim/engine.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace {

using hs::desim::DeadlockError;
using hs::desim::Engine;
using hs::desim::Gate;
using hs::desim::Task;

Task<void> record_at(Engine& engine, double t, std::vector<double>& log) {
  co_await engine.sleep_until(t);
  log.push_back(engine.now());
}

TEST(Engine, StartsAtTimeZero) {
  Engine engine;
  EXPECT_EQ(engine.now(), 0.0);
}

TEST(Engine, ProcessesEventsInTimeOrder) {
  Engine engine;
  std::vector<double> log;
  engine.spawn(record_at(engine, 3.0, log), "late");
  engine.spawn(record_at(engine, 1.0, log), "early");
  engine.spawn(record_at(engine, 2.0, log), "middle");
  engine.run();
  EXPECT_EQ(log, (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(engine.now(), 3.0);
}

TEST(Engine, TiesBreakInSpawnOrder) {
  Engine engine;
  std::vector<int> order;
  auto proc = [&](int id) -> Task<void> {
    co_await engine.sleep_until(5.0);
    order.push_back(id);
  };
  for (int i = 0; i < 4; ++i) engine.spawn(proc(i));
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Engine, SleepIsRelative) {
  Engine engine;
  std::vector<double> log;
  auto proc = [&]() -> Task<void> {
    co_await engine.sleep(1.5);
    log.push_back(engine.now());
    co_await engine.sleep(2.5);
    log.push_back(engine.now());
  };
  engine.spawn(proc());
  engine.run();
  EXPECT_EQ(log, (std::vector<double>{1.5, 4.0}));
}

TEST(Engine, ZeroSleepResumesImmediately) {
  Engine engine;
  bool ran = false;
  auto proc = [&]() -> Task<void> {
    co_await engine.sleep(0.0);
    ran = true;
  };
  engine.spawn(proc());
  engine.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(engine.now(), 0.0);
}

TEST(Engine, NegativeSleepThrows) {
  Engine engine;
  auto proc = [&]() -> Task<void> { co_await engine.sleep(-1.0); };
  engine.spawn(proc());
  EXPECT_THROW(engine.run(), hs::PreconditionError);
}

TEST(Engine, SpawnStartTimeDelaysProcess) {
  Engine engine;
  std::vector<double> log;
  auto proc = [&]() -> Task<void> {
    log.push_back(engine.now());
    co_return;
  };
  engine.spawn_at(7.5, proc(), "delayed");
  engine.run();
  EXPECT_EQ(log, (std::vector<double>{7.5}));
}

TEST(Engine, ExceptionInProcessPropagatesFromRun) {
  Engine engine;
  auto proc = [&]() -> Task<void> {
    co_await engine.sleep(1.0);
    throw std::runtime_error("boom");
  };
  engine.spawn(proc());
  EXPECT_THROW(engine.run(), std::runtime_error);
}

TEST(Engine, DeadlockDetectedAndNamed) {
  Engine engine;
  Gate gate(engine);  // never fired
  auto proc = [&]() -> Task<void> { co_await gate.wait(); };
  engine.spawn(proc(), "stuck-process");
  try {
    engine.run();
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    EXPECT_NE(std::string(e.what()).find("stuck-process"), std::string::npos);
  }
}

// A finished process's slot serves the next spawn. Forks that finished
// before the stuck process and after it must leave the diagnosis to the
// stuck one alone.
TEST(Engine, DeadlockAfterSlotReuseNamesOnlyTheStuckProcess) {
  Engine engine;
  Gate gate(engine);  // never fired
  auto child = [&]() -> Task<void> { co_await engine.sleep(1.0); };
  auto stuck = [&]() -> Task<void> { co_await gate.wait(); };
  auto parent = [&]() -> Task<void> {
    for (int i = 0; i < 64; ++i) {
      hs::desim::Async forked = hs::desim::Async::start(engine, child());
      co_await forked.wait();
    }
    engine.spawn(stuck(), "stuck-process");
    for (int i = 0; i < 64; ++i) engine.spawn_indexed(child(), "late", i);
    co_await engine.sleep(2.0);
  };
  engine.spawn_indexed(parent(), "parent", 0);
  try {
    engine.run();
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("1 process(es)"), std::string::npos) << message;
    EXPECT_NE(message.find("stuck-process"), std::string::npos) << message;
    EXPECT_EQ(message.find("late"), std::string::npos) << message;
    EXPECT_EQ(message.find("parent"), std::string::npos) << message;
  }
}

TEST(Engine, ForkThrowingInAReusedSlotAbortsTheRunWithItsException) {
  Engine engine;
  auto child = [&]() -> Task<void> { co_await engine.sleep(1.0); };
  auto failing = [&]() -> Task<void> {
    co_await engine.sleep(1.0);
    throw std::runtime_error("fork 64 failed");
  };
  auto parent = [&]() -> Task<void> {
    for (int i = 0; i < 64; ++i) {
      hs::desim::Async forked = hs::desim::Async::start(engine, child());
      co_await forked.wait();
    }
    hs::desim::Async forked = hs::desim::Async::start(engine, failing());
    co_await forked.wait();
  };
  engine.spawn(parent());
  try {
    engine.run();
    FAIL() << "expected the fork's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "fork 64 failed");
  }
}

TEST(Engine, CountsProcessedEvents) {
  Engine engine;
  auto proc = [&]() -> Task<void> {
    co_await engine.sleep(1.0);
    co_await engine.sleep(1.0);
  };
  engine.spawn(proc());
  engine.run();
  // Initial resume + two sleep resumes.
  EXPECT_EQ(engine.events_processed(), 3u);
}

TEST(Gate, FireBeforeWaitResumesAtFireTime) {
  Engine engine;
  std::vector<double> log;
  Gate gate(engine);
  auto firer = [&]() -> Task<void> {
    co_await engine.sleep(1.0);
    gate.fire_at(4.0);
  };
  auto waiter = [&]() -> Task<void> {
    co_await engine.sleep(2.0);  // gate already fired by now
    co_await gate.wait();
    log.push_back(engine.now());
  };
  engine.spawn(firer());
  engine.spawn(waiter());
  engine.run();
  EXPECT_EQ(log, (std::vector<double>{4.0}));
}

TEST(Gate, FireAfterWaitResumesWaiter) {
  Engine engine;
  std::vector<double> log;
  Gate gate(engine);
  auto waiter = [&]() -> Task<void> {
    co_await gate.wait();
    log.push_back(engine.now());
  };
  auto firer = [&]() -> Task<void> {
    co_await engine.sleep(3.0);
    gate.fire_at(5.0);
  };
  engine.spawn(waiter());
  engine.spawn(firer());
  engine.run();
  EXPECT_EQ(log, (std::vector<double>{5.0}));
}

TEST(Gate, WaitAfterFireTimePassedIsImmediate) {
  Engine engine;
  std::vector<double> log;
  Gate gate(engine);
  auto firer = [&]() -> Task<void> {
    gate.fire_at(1.0);
    co_return;
  };
  auto waiter = [&]() -> Task<void> {
    co_await engine.sleep(10.0);
    co_await gate.wait();  // fire time long past: no extra delay
    log.push_back(engine.now());
  };
  engine.spawn(firer());
  engine.spawn(waiter());
  engine.run();
  EXPECT_EQ(log, (std::vector<double>{10.0}));
}

TEST(Gate, DoubleFireThrows) {
  Engine engine;
  Gate gate(engine);
  auto proc = [&]() -> Task<void> {
    gate.fire_at(1.0);
    gate.fire_at(2.0);
    co_return;
  };
  engine.spawn(proc());
  EXPECT_THROW(engine.run(), hs::PreconditionError);
}

TEST(Gate, FireIntoPastThrows) {
  Engine engine;
  Gate gate(engine);
  auto proc = [&]() -> Task<void> {
    co_await engine.sleep(5.0);
    gate.fire_at(1.0);
  };
  engine.spawn(proc());
  EXPECT_THROW(engine.run(), hs::PreconditionError);
}

TEST(Engine, ManyProcessesScale) {
  Engine engine;
  constexpr int kProcs = 1000;
  int done = 0;
  auto proc = [&](int id) -> Task<void> {
    co_await engine.sleep(static_cast<double>(id % 17));
    ++done;
  };
  for (int i = 0; i < kProcs; ++i) engine.spawn(proc(i));
  engine.run();
  EXPECT_EQ(done, kProcs);
}

TEST(Engine, PinnedToFirstRunningThread) {
  // Engines are pinned to the thread of their first run(): coroutine
  // frames live in that thread's FramePool, so running elsewhere later
  // must fail fast instead of corrupting free lists.
  Engine engine;
  auto tick = [&]() -> Task<void> { co_await engine.sleep(1.0); };
  engine.spawn(tick());
  engine.run();

  engine.spawn(tick());
  bool threw = false;
  std::thread other([&] {
    try {
      engine.run();
    } catch (const hs::PreconditionError&) {
      threw = true;
    }
  });
  other.join();
  EXPECT_TRUE(threw);

  // Still usable on its owning thread.
  engine.run();
}

TEST(Engine, RunsOnAnyThreadIfFirstRunIsThere) {
  // The pin is to the *first* running thread, which need not be the one
  // that constructed the engine.
  Engine engine;
  auto tick = [&]() -> Task<void> { co_await engine.sleep(1.0); };
  engine.spawn(tick());
  std::thread worker([&] {
    engine.run();
    engine.spawn(tick());
    engine.run();  // same thread: fine
  });
  worker.join();
  EXPECT_EQ(engine.now(), 2.0);
}

TEST(Engine, SpawnDuringRunWorks) {
  Engine engine;
  std::vector<double> log;
  auto child = [&]() -> Task<void> {
    co_await engine.sleep(1.0);
    log.push_back(engine.now());
  };
  auto parent = [&]() -> Task<void> {
    co_await engine.sleep(2.0);
    engine.spawn_at(engine.now(), child(), "child");
    log.push_back(engine.now());
  };
  engine.spawn(parent());
  engine.run();
  EXPECT_EQ(log, (std::vector<double>{2.0, 3.0}));
}

}  // namespace
