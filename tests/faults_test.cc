// Tests for the injected fault model: the FaultInjector's machine and
// domain kill streams, their warnings and skips, the straggler draw, the
// cluster's round log, and the recovery charges whose ordering (replica
// < checkpoint < whole-job replay) the paper's Section 5.7 positioning
// relies on.
#include "sim/faults.h"

#include <bit>

#include <gtest/gtest.h>

#include "core/mis.h"
#include "graph/generators.h"
#include "sim/cluster.h"

namespace ampc::sim {
namespace {

TEST(FaultsTest, ClusterRoundLogMatchesRoundMetric) {
  graph::Graph g =
      graph::BuildGraph(graph::GenerateErdosRenyi(100, 300, 5));
  ClusterConfig config;
  config.num_machines = 4;
  config.threads_per_machine = 2;
  Cluster cluster(config);
  core::AmpcMis(cluster, g, 5);
  EXPECT_EQ(static_cast<int64_t>(cluster.round_log().size()),
            cluster.metrics().Get("rounds"));
  double total = 0;
  for (const double r : cluster.round_log()) {
    EXPECT_GT(r, 0.0);
    total += r;
  }
  EXPECT_NEAR(total, cluster.SimSeconds(), 1e-9);
}

// --- FaultInjector ---------------------------------------------------

TEST(FaultsTest, InjectorIsDeterministicInSeed) {
  FaultInjector a({.rate_per_machine_sec = 0.5, .machines = 4, .seed = 11});
  FaultInjector b({.rate_per_machine_sec = 0.5, .machines = 4, .seed = 11});
  const std::vector<FaultEvent> ka = a.AdvanceTo(20.0);
  const std::vector<FaultEvent> kb = b.AdvanceTo(20.0);
  ASSERT_EQ(ka.size(), kb.size());
  EXPECT_FALSE(ka.empty());
  for (size_t i = 0; i < ka.size(); ++i) {
    EXPECT_DOUBLE_EQ(ka[i].time, kb[i].time);
    EXPECT_EQ(ka[i].machine, kb[i].machine);
  }
  // A different seed yields a different schedule.
  FaultInjector c({.rate_per_machine_sec = 0.5, .machines = 4, .seed = 12});
  const std::vector<FaultEvent> kc = c.AdvanceTo(20.0);
  bool same = kc.size() == ka.size();
  for (size_t i = 0; same && i < ka.size(); ++i) {
    same = kc[i].time == ka[i].time && kc[i].machine == ka[i].machine;
  }
  EXPECT_FALSE(same);
}

TEST(FaultsTest, InjectorWindowingDoesNotChangeTheSchedule) {
  // Harvesting in many small windows is the same schedule as one big
  // window: arrivals are a property of the streams, not of when the
  // cluster looks.
  FaultInjector whole({.rate_per_machine_sec = 0.3, .machines = 3, .seed = 7});
  const std::vector<FaultEvent> all = whole.AdvanceTo(30.0);
  FaultInjector windowed(
      {.rate_per_machine_sec = 0.3, .machines = 3, .seed = 7});
  std::vector<FaultEvent> stitched;
  for (double t = 1.0; t <= 30.0; t += 1.0) {
    const std::vector<FaultEvent> window = windowed.AdvanceTo(t);
    stitched.insert(stitched.end(), window.begin(), window.end());
  }
  ASSERT_EQ(stitched.size(), all.size());
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_DOUBLE_EQ(stitched[i].time, all[i].time);
    EXPECT_EQ(stitched[i].machine, all[i].machine);
  }
}

TEST(FaultsTest, InjectorEventsAreOrderedAndInWindow) {
  FaultInjector injector(
      {.rate_per_machine_sec = 0.8, .machines = 5, .seed = 3});
  double last = 0.0;
  for (const double t : {2.0, 5.0, 9.0}) {
    const double lo = injector.now();
    for (const FaultEvent& e : injector.AdvanceTo(t)) {
      EXPECT_GT(e.time, lo);
      EXPECT_LE(e.time, t);
      EXPECT_GE(e.time, last);
      EXPECT_GE(e.machine, 0);
      EXPECT_LT(e.machine, 5);
      last = e.time;
    }
    EXPECT_DOUBLE_EQ(injector.now(), t);
  }
}

TEST(FaultsTest, InjectorSkipToYieldsNoEventsInSkippedInterval) {
  FaultInjector injector(
      {.rate_per_machine_sec = 1.0, .machines = 4, .seed = 5});
  injector.SkipTo(10.0);
  EXPECT_DOUBLE_EQ(injector.now(), 10.0);
  // Nothing can land inside a skipped interval; later windows still
  // produce kills (arrivals were redrawn from the skip point).
  const std::vector<FaultEvent> later = injector.AdvanceTo(30.0);
  EXPECT_FALSE(later.empty());
  for (const FaultEvent& e : later) EXPECT_GT(e.time, 10.0);
}

TEST(FaultsTest, InjectorScheduleMatchesParent) {
  // Every stream kind at once: machine kills, domain kills and warnings,
  // harvested in windows with failure-free skips between them. The
  // count and fingerprint were recorded when machine and domain streams
  // were walked by separate loops, so they pin that one stream list
  // draws the same kill schedule.
  FaultInjector injector({.rate_per_machine_sec = 0.5,
                          .machines = 8,
                          .seed = 7,
                          .machines_per_domain = 2,
                          .domain_fault_rate_sec = 0.3,
                          .warning_lead_sec = 0.4});
  uint64_t fingerprint = 0;
  int64_t events = 0;
  double now = 0.0;
  for (int step = 1; step <= 50; ++step) {
    now += 0.37;
    for (const FaultEvent& e : injector.AdvanceTo(now)) {
      fingerprint = HashCombine(
          fingerprint,
          Hash64(std::bit_cast<uint64_t>(e.time),
                 HashCombine(HashCombine(static_cast<uint64_t>(e.machine),
                                         static_cast<uint64_t>(e.domain)),
                             e.warning ? 1 : 0)));
      ++events;
    }
    if (step % 5 == 0) injector.SkipTo(now + 0.1);
  }
  EXPECT_EQ(events, 220);
  EXPECT_EQ(fingerprint, 0x8ce816761cc4404fULL);
}

TEST(FaultsTest, DisabledInjectorNeverFires) {
  FaultInjector off;
  EXPECT_FALSE(off.enabled());
  EXPECT_TRUE(off.AdvanceTo(1e9).empty());
  FaultInjector zero({.rate_per_machine_sec = 0.0, .machines = 8, .seed = 42});
  EXPECT_FALSE(zero.enabled());
  EXPECT_TRUE(zero.AdvanceTo(1e9).empty());
}

// --- Warnings, fault domains, stragglers ----------------------------

TEST(FaultsTest, WarningsLeadTheirKillsByExactlyTheLead) {
  FaultInjector::Config config;
  config.rate_per_machine_sec = 0.4;
  config.machines = 4;
  config.seed = 11;
  config.warning_lead_sec = 0.25;
  FaultInjector injector(config);
  const std::vector<FaultEvent> events = injector.AdvanceTo(40.0);
  int kills = 0, warnings = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].warning) {
      ++warnings;
      continue;
    }
    ++kills;
    // Every kill was announced by exactly one earlier warning for the
    // same machine, warning_lead seconds ahead (clamped to the window
    // start for arrivals inside the very first lead interval).
    const double expected_warning =
        std::max(0.0, events[i].time - config.warning_lead_sec);
    int announcements = 0;
    for (size_t j = 0; j < i; ++j) {
      if (events[j].warning && events[j].machine == events[i].machine &&
          std::abs(events[j].time - expected_warning) < 1e-9) {
        ++announcements;
      }
    }
    EXPECT_EQ(announcements, 1)
        << "kill of machine " << events[i].machine << " at "
        << events[i].time;
  }
  EXPECT_GT(kills, 0);
  // Warnings can outnumber kills: the last lead interval announces
  // arrivals landing beyond the window.
  EXPECT_GE(warnings, kills);
}

TEST(FaultsTest, WarningWindowingDoesNotChangeTheSchedule) {
  // Warnings, like kills, are a property of the streams: harvesting in
  // many small windows announces each arrival at the same instant as
  // one big window (the clamp can only bite in the window the arrival's
  // lead interval actually starts in).
  FaultInjector::Config config;
  config.rate_per_machine_sec = 0.3;
  config.machines = 3;
  config.seed = 7;
  config.warning_lead_sec = 0.4;
  FaultInjector whole(config);
  const std::vector<FaultEvent> all = whole.AdvanceTo(30.0);
  FaultInjector windowed(config);
  std::vector<FaultEvent> stitched;
  for (double t = 1.0; t <= 30.0; t += 1.0) {
    const std::vector<FaultEvent> window = windowed.AdvanceTo(t);
    stitched.insert(stitched.end(), window.begin(), window.end());
  }
  ASSERT_EQ(stitched.size(), all.size());
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_NEAR(stitched[i].time, all[i].time, 1e-9);
    EXPECT_EQ(stitched[i].machine, all[i].machine);
    EXPECT_EQ(stitched[i].warning, all[i].warning);
  }
}

TEST(FaultsTest, DomainKillsTakeWholeRacksAtOnce) {
  FaultInjector::Config config;
  config.machines = 10;
  config.machines_per_domain = 4;  // domains {0-3}, {4-7}, {8, 9}
  config.domain_fault_rate_sec = 0.2;
  config.seed = 9;
  FaultInjector injector(config);
  EXPECT_TRUE(injector.enabled());
  const std::vector<FaultEvent> events = injector.AdvanceTo(30.0);
  EXPECT_FALSE(events.empty());
  // Every event belongs to a contiguous group covering its whole
  // domain — one kill per member machine, all at the same instant,
  // including the ragged last domain of two machines.
  for (size_t i = 0; i < events.size();) {
    const FaultEvent& head = events[i];
    EXPECT_FALSE(head.warning);
    ASSERT_GE(head.domain, 0);
    const int lo = head.domain * config.machines_per_domain;
    const int hi = std::min(config.machines, lo + config.machines_per_domain);
    for (int m = lo; m < hi; ++m, ++i) {
      ASSERT_LT(i, events.size());
      EXPECT_EQ(events[i].machine, m);
      EXPECT_EQ(events[i].domain, head.domain);
      EXPECT_DOUBLE_EQ(events[i].time, head.time);
    }
  }
  // Deterministic in the seed, like the per-machine streams.
  FaultInjector twin(config);
  const std::vector<FaultEvent> again = twin.AdvanceTo(30.0);
  ASSERT_EQ(again.size(), events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_DOUBLE_EQ(again[i].time, events[i].time);
    EXPECT_EQ(again[i].machine, events[i].machine);
    EXPECT_EQ(again[i].domain, events[i].domain);
  }
}

TEST(FaultsTest, SkipToCommitsWarnedArrivals) {
  // A warned arrival is committed: skipping the clock past it (drain
  // and recovery intervals are failure-free) must not redraw it — the
  // cluster drained the machine on the warning and would otherwise
  // leave it drained forever, waiting for a kill that never comes.
  FaultInjector::Config config;
  config.rate_per_machine_sec = 0.5;
  config.machines = 3;
  config.seed = 13;
  config.warning_lead_sec = 5.0;
  FaultInjector injector(config);
  // The twin (no lead) shares the per-machine gap streams, so its kill
  // times are the committed arrivals the warned injector must honor.
  FaultInjector::Config bare = config;
  bare.warning_lead_sec = 0.0;
  FaultInjector twin(bare);
  const std::vector<FaultEvent> truth = twin.AdvanceTo(100.0);
  ASSERT_FALSE(truth.empty());

  const std::vector<FaultEvent> early = injector.AdvanceTo(0.1);
  std::vector<int> warned;
  for (const FaultEvent& e : early) {
    ASSERT_TRUE(e.warning);  // lead 5.0 >> window 0.1: no kill yet
    warned.push_back(e.machine);
  }
  ASSERT_FALSE(warned.empty());
  injector.SkipTo(2.0);
  const std::vector<FaultEvent> later = injector.AdvanceTo(100.0);
  for (const int machine : warned) {
    double committed = -1.0;
    for (const FaultEvent& e : truth) {
      if (e.machine == machine) {
        committed = e.time;
        break;
      }
    }
    double landed = -1.0;
    for (const FaultEvent& e : later) {
      if (!e.warning && e.machine == machine) {
        landed = e.time;
        break;
      }
    }
    EXPECT_NEAR(landed, committed, 1e-9) << "machine " << machine;
  }
}

TEST(FaultsTest, StragglerModelIsDeterministicAndRateBounded) {
  StragglerModel model;
  model.slow_rate = 0.25;
  model.seed = 7;
  EXPECT_TRUE(model.enabled());
  const StragglerModel twin = model;
  int slow = 0, total = 0;
  for (int64_t round = 0; round < 64; ++round) {
    for (int machine = 0; machine < 16; ++machine) {
      EXPECT_EQ(model.Slow(round, machine), twin.Slow(round, machine));
      slow += model.Slow(round, machine) ? 1 : 0;
      ++total;
    }
  }
  // A pure hash of (round, machine, seed): some pairs straggle, most
  // don't, and the empirical rate tracks the configured one.
  EXPECT_GT(slow, 0);
  EXPECT_LT(slow, total);
  EXPECT_NEAR(static_cast<double>(slow) / total, 0.25, 0.05);
  StragglerModel off;
  EXPECT_FALSE(off.enabled());
  EXPECT_FALSE(off.Slow(3, 2));
}

// --- Replay-vs-restart arithmetic on a known kill schedule ----------
// Cluster::InjectMachineFailure kills a machine at the end of the last
// charged round, so the recovery charge is a closed-form function of
// round_log() the tests can pin exactly.

TEST(FaultsTest, UnprotectedKillReplaysTheWholeJob) {
  ClusterConfig config;
  config.num_machines = 4;
  config.threads_per_machine = 1;
  Cluster cluster(config);  // no replicas, no checkpoints
  cluster.AccountMapRound("a");
  cluster.AccountMapRound("b");
  cluster.AccountShuffle("c", 64 << 20);
  const double before = cluster.SimSeconds();
  cluster.InjectMachineFailure(2);
  // Whole-job restart: every completed round plus the full in-flight
  // round replays — recovery time equals the job so far.
  EXPECT_NEAR(cluster.metrics().GetTime("sim:recovery"), before, 1e-8);
  EXPECT_NEAR(cluster.metrics().GetTime("recovery_replay_seconds"), before,
              1e-8);
  EXPECT_NEAR(cluster.SimSeconds(), 2 * before, 1e-8);
  EXPECT_EQ(cluster.metrics().Get("machines_lost"), 1);
}

TEST(FaultsTest, ReplicatedKillPaysOnlyTransferAndInFlightSlice) {
  ClusterConfig config;
  config.num_machines = 4;
  config.threads_per_machine = 1;
  config.faults.replication = 2;
  Cluster cluster(config);
  cluster.AccountMapRound("a");
  cluster.AccountMapRound("b");
  cluster.AccountShuffle("c", 64 << 20);
  const std::vector<double> rounds = cluster.round_log();
  cluster.InjectMachineFailure(1);
  // No KV bytes resident => no replica stream to pay; the in-flight
  // round replays whole (KV-free rounds have share 1).
  EXPECT_NEAR(cluster.metrics().GetTime("sim:recovery"), rounds.back(),
              1e-8);
  EXPECT_NEAR(cluster.metrics().GetTime("recovery_replay_seconds"),
              rounds.back(), 1e-8);
}

TEST(FaultsTest, CheckpointedKillReplaysOnlySinceTheCheckpoint) {
  ClusterConfig config;
  config.num_machines = 4;
  config.threads_per_machine = 1;
  // A period smaller than any round: a checkpoint lands after every
  // round, so a kill replays only the in-flight round.
  config.faults.checkpoint_period_sec = 1e-9;
  Cluster cluster(config);
  cluster.AccountMapRound("a");
  cluster.AccountMapRound("b");
  cluster.AccountShuffle("c", 64 << 20);
  const std::vector<double> rounds = cluster.round_log();
  const double restart_cost = cluster.SimSeconds();
  cluster.InjectMachineFailure(3);
  const double recovery = cluster.metrics().GetTime("sim:recovery");
  EXPECT_NEAR(recovery, rounds.back(), 1e-8);
  EXPECT_LT(recovery, restart_cost);
}

TEST(FaultsTest, ReplicatedRecoveryChargesTheReplicaStream) {
  // With resident KV bytes, the replica path pays the dead machine's
  // footprint over its NIC plus the in-flight slice.
  ClusterConfig config;
  config.num_machines = 4;
  config.threads_per_machine = 2;
  config.faults.replication = 2;
  Cluster cluster(config);
  auto store = cluster.MakeStore<int64_t>(4096);
  cluster.RunKvWritePhase<int64_t>(
      "write", store, 4096, [](int64_t key) { return key * 3; });
  const int machine = 1;
  const int64_t resident = cluster.machine_kv_write_bytes()[machine];
  ASSERT_GT(resident, 0);
  const double last_round = cluster.round_log().back();
  // The write round's in-flight slice is footprint-scaled.
  int64_t hottest = 0;
  const auto& fp = cluster.round_footprints().back();
  for (int m = 0; m < config.num_machines; ++m) {
    hottest = std::max(hottest, fp.kv_read_bytes[m] + fp.kv_write_bytes[m]);
  }
  const double share =
      static_cast<double>(fp.kv_read_bytes[machine] +
                          fp.kv_write_bytes[machine]) /
      static_cast<double>(hottest);
  cluster.InjectMachineFailure(machine);
  const double expected =
      static_cast<double>(resident) / config.network.bytes_per_sec +
      last_round * share;
  EXPECT_NEAR(cluster.metrics().GetTime("sim:recovery"), expected, 1e-8);
  EXPECT_NEAR(cluster.metrics().GetTime("recovery_replay_seconds"),
              last_round * share, 1e-8);
}

TEST(FaultsTest, RecoveryOrderingReplicaBeforeCheckpointBeforeRestart) {
  // The Section 5.7 ordering: replicated < checkpointed < unprotected
  // recovery for the same kill at the end of the same job.
  auto run_and_kill = [](int replication, double period) {
    ClusterConfig config;
    config.num_machines = 4;
    config.threads_per_machine = 2;
    config.faults.replication = replication;
    config.faults.checkpoint_period_sec = period;
    Cluster cluster(config);
    auto store = cluster.MakeStore<int64_t>(4096);
    cluster.RunKvWritePhase<int64_t>(
        "write", store, 4096, [](int64_t key) { return key * 3; });
    for (int r = 0; r < 6; ++r) cluster.AccountMapRound("map");
    cluster.InjectMachineFailure(1);
    return cluster.metrics().GetTime("sim:recovery");
  };
  const double replicated = run_and_kill(2, 0.0);
  const double checkpointed = run_and_kill(1, 0.2);
  const double unprotected = run_and_kill(1, 0.0);
  EXPECT_LT(replicated, checkpointed);
  EXPECT_LT(checkpointed, unprotected);
}

}  // namespace
}  // namespace ampc::sim
