#include "common/metrics.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace ampc {
namespace {

TEST(MetricsTest, CountersStartAtZero) {
  Metrics m;
  EXPECT_EQ(m.Get("anything"), 0);
}

TEST(MetricsTest, AddAccumulates) {
  Metrics m;
  m.Add("kv_reads", 3);
  m.Add("kv_reads", 4);
  EXPECT_EQ(m.Get("kv_reads"), 7);
}

TEST(MetricsTest, TimersAccumulate) {
  Metrics m;
  m.AddTime("sim:shuffle", 1.5);
  m.AddTime("sim:shuffle", 0.25);
  EXPECT_NEAR(m.GetTime("sim:shuffle"), 1.75, 1e-9);
  EXPECT_EQ(m.GetTime("missing"), 0.0);
}

TEST(MetricsTest, SnapshotCapturesEverything) {
  Metrics m;
  m.Add("a", 1);
  m.Add("b", 2);
  m.AddTime("t", 0.5);
  MetricsSnapshot snap = m.Snapshot();
  EXPECT_EQ(snap.counters.at("a"), 1);
  EXPECT_EQ(snap.counters.at("b"), 2);
  EXPECT_NEAR(snap.timers_sec.at("t"), 0.5, 1e-9);
}

TEST(MetricsTest, ResetZeroes) {
  Metrics m;
  m.Add("x", 10);
  m.AddTime("t", 1.0);
  m.Reset();
  EXPECT_EQ(m.Get("x"), 0);
  EXPECT_EQ(m.GetTime("t"), 0.0);
}

TEST(MetricsTest, ConcurrentAddsAreExact) {
  Metrics m;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&m] {
      for (int i = 0; i < 10000; ++i) m.Add("hits", 1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(m.Get("hits"), 80000);
}

TEST(MetricsTest, ToStringMentionsCounters) {
  Metrics m;
  m.Add("shuffles", 5);
  const std::string s = m.Snapshot().ToString();
  EXPECT_NE(s.find("shuffles=5"), std::string::npos);
}

// Timers hold int64 nanoseconds. A value or a running sum past 2^63 ns
// (about 292 simulated years) must stop the run, naming the timer,
// instead of wrapping to garbage.
TEST(MetricsTest, TimerValueOutOfRangeDies) {
  Metrics m;
  EXPECT_DEATH(m.AddTime("sim:recovery", 1e10), "sim:recovery");
}

TEST(MetricsTest, TimerSumOverflowDies) {
  Metrics m;
  m.AddTime("sim_total", 5e9);
  EXPECT_DEATH(m.AddTime("sim_total", 5e9), "sim_total");
}

}  // namespace
}  // namespace ampc
