#include "src/common/state_cell.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace nucleus {
namespace {

TEST(StateCell, BuildsLazilyExactlyOnce) {
  StateCell<int> cell;
  EXPECT_EQ(cell.TryGet(), nullptr);
  EXPECT_FALSE(cell.Has());
  int builds = 0;
  const auto v = cell.GetOrTryBuild([&]() -> StatusOr<int> {
    ++builds;
    return 42;
  });
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(**v, 42);
  EXPECT_EQ(builds, 1);
  const auto again = cell.GetOrTryBuild([&]() -> StatusOr<int> {
    ++builds;
    return 7;
  });
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *v);  // pinned: same object
  EXPECT_EQ(builds, 1);
  EXPECT_TRUE(cell.Has());
  cell.Reset();
  EXPECT_EQ(cell.TryGet(), nullptr);
}

TEST(StateCell, ConcurrentBuildersRaceToOneBuild) {
  StateCell<std::vector<int>> cell;
  std::atomic<int> builds{0};
  std::vector<std::thread> workers;
  std::vector<const std::vector<int>*> seen(8, nullptr);
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&, t] {
      seen[t] = *cell.GetOrTryBuild([&]() -> StatusOr<std::vector<int>> {
        ++builds;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        return std::vector<int>(1000, 5);
      });
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(builds.load(), 1);
  for (int t = 0; t < 8; ++t) {
    EXPECT_EQ(seen[t], seen[0]);  // everyone observes the same install
    EXPECT_EQ(seen[t]->size(), 1000u);
  }
}

TEST(StateCell, DifferentCellsBuildConcurrently) {
  // A slow build in one cell must not block another cell's builder: run a
  // deliberately slow build and assert a second cell completes while the
  // first is still in flight.
  StateCell<int> slow, fast;
  std::atomic<bool> slow_started{false};
  std::atomic<bool> slow_done{false};
  std::thread slow_builder([&] {
    slow.GetOrTryBuild([&]() -> StatusOr<int> {
      slow_started = true;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      slow_done = true;
      return 1;
    });
  });
  while (!slow_started) std::this_thread::yield();
  fast.GetOrTryBuild([]() -> StatusOr<int> { return 2; });
  EXPECT_FALSE(slow_done.load());  // fast finished first
  slow_builder.join();
  EXPECT_TRUE(slow_done.load());
}

}  // namespace
}  // namespace nucleus
