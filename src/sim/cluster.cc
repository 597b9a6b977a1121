#include "sim/cluster.h"

#include <algorithm>

#include "common/logging.h"
#include "common/parallel.h"

namespace ampc::sim {

Cluster::Cluster(ClusterConfig config, ThreadPool& pool)
    : config_(config), pool_(pool) {
  AMPC_CHECK_GE(config_.num_machines, 1);
  AMPC_CHECK_GE(config_.threads_per_machine, 1);
  AMPC_CHECK_GE(config_.pipeline_depth, 1);
  AMPC_CHECK_GE(config_.faults.fault_rate_per_machine_sec, 0.0);
  AMPC_CHECK_GE(config_.faults.replication, 1);
  AMPC_CHECK_GE(config_.faults.checkpoint_period_sec, 0.0);
  AMPC_CHECK_GE(config_.faults.machines_per_domain, 0);
  AMPC_CHECK_GE(config_.faults.domain_fault_rate_sec, 0.0);
  AMPC_CHECK_GE(config_.faults.warning_lead_sec, 0.0);
  AMPC_CHECK_GE(config_.faults.slow_machine_rate, 0.0);
  AMPC_CHECK_LE(config_.faults.slow_machine_rate, 1.0);
  machine_kv_write_bytes_.assign(config_.num_machines, 0);
  checkpointed_bytes_.assign(config_.num_machines, 0);
  shard_hosts_.resize(config_.num_machines);
  for (int m = 0; m < config_.num_machines; ++m) shard_hosts_[m] = m;
  drained_.assign(config_.num_machines, 0);
  shard_primary_bytes_.assign(config_.num_machines, 0);
  cache_generation_.assign(config_.num_machines, 0);
  if (config_.faults.fault_rate_per_machine_sec > 0.0 ||
      config_.faults.domain_fault_rate_sec > 0.0) {
    FaultInjector::Config injector;
    injector.rate_per_machine_sec = config_.faults.fault_rate_per_machine_sec;
    injector.machines = config_.num_machines;
    injector.seed = config_.faults.fault_seed;
    injector.machines_per_domain = config_.faults.machines_per_domain;
    injector.domain_fault_rate_sec = config_.faults.domain_fault_rate_sec;
    injector.warning_lead_sec = config_.faults.warning_lead_sec;
    fault_injector_ = FaultInjector(injector);
  }
  straggler_.slow_rate = config_.faults.slow_machine_rate;
  straggler_.seed = config_.faults.fault_seed;
  const kv::Placement placement = PlacementFor(0);
  for (int s = 0; s < config_.num_machines; ++s) {
    replicas_.push_back(placement.ReplicasOfShard(s).machines);
  }
}

void Cluster::RecordRound(const std::string& phase, double sim,
                          std::vector<int64_t> kv_read_bytes,
                          std::vector<int64_t> kv_write_bytes) {
  metrics_.Add("rounds", 1);
  metrics_.AddTime("sim:" + phase, sim);
  metrics_.AddTime("sim_total", sim);
  last_round_start_ = sim_clock_;
  sim_clock_ += sim;
  // A KV-free round's columns are all zeros.
  kv_read_bytes.resize(config_.num_machines, 0);
  kv_write_bytes.resize(config_.num_machines, 0);
  rounds_.push_back(RoundFootprint{phase, sim, std::move(kv_read_bytes),
                                   std::move(kv_write_bytes)});
}

void Cluster::ChargeRound(const std::string& phase, double sim,
                          double wall_seconds,
                          std::vector<int64_t> kv_read_bytes,
                          std::vector<int64_t> kv_write_bytes) {
  RecordRound(phase, sim, std::move(kv_read_bytes), std::move(kv_write_bytes));
  metrics_.AddTime("wall:" + phase, wall_seconds);
  metrics_.AddTime("wall_total", wall_seconds);
  ProcessFaultsAndCheckpoints();
}

void Cluster::ExtendLastRound(const std::string& timer, double sim) {
  if (!rounds_.empty()) rounds_.back().sim_seconds += sim;
  sim_clock_ += sim;
  metrics_.AddTime(timer, sim);
  metrics_.AddTime("sim_total", sim);
}

void Cluster::AccountShuffle(const std::string& phase, int64_t bytes,
                             double wall_seconds) {
  metrics_.Add("shuffles", 1);
  metrics_.Add("shuffle_bytes", bytes);
  const double throughput =
      config_.shuffle_bytes_per_sec * config_.num_machines;
  ChargeRound(phase, ShuffleSeconds(static_cast<double>(bytes) / throughput),
              wall_seconds);
}

void Cluster::AccountShardedShuffle(
    const std::string& phase, const std::vector<int64_t>& per_machine_bytes,
    double wall_seconds) {
  int64_t total = 0;
  int64_t hottest = 0;
  for (const int64_t bytes : per_machine_bytes) {
    total += bytes;
    hottest = std::max(hottest, bytes);
  }
  metrics_.Add("shuffles", 1);
  metrics_.Add("shuffle_bytes", total);
  metrics_.Add("shuffle_hot_machine_bytes", hottest);
  // Machines shuffle concurrently; the round lasts as long as the
  // hottest machine's durable-storage writes. Matches AccountShuffle
  // (total / (per-machine throughput * P)) when the bytes are uniform.
  ChargeRound(phase,
              ShuffleSeconds(static_cast<double>(hottest) /
                             config_.shuffle_bytes_per_sec),
              wall_seconds);
}

void Cluster::AccountInMemoryFinish(const std::string& phase, int64_t bytes,
                                    int64_t items) {
  // Gathering the residual graph onto one machine is a shuffle...
  AccountShuffle(phase, bytes);
  // ...followed by a sequential in-memory solve.
  AccountInMemoryCompute(phase, items);
}

void Cluster::AccountInMemoryCompute(const std::string& phase,
                                     int64_t items) {
  ExtendLastRound("sim:" + phase,
                  static_cast<double>(items) * config_.map_item_cpu_sec);
  ProcessFaultsAndCheckpoints();
}

void Cluster::SettleMapPhase(const std::string& phase,
                             const std::vector<WorkerTally>& tallies,
                             double wall_seconds, int64_t key_space,
                             bool pull) {
  const int machines = config_.num_machines;
  const int overlap =
      config_.multithreading ? config_.threads_per_machine : 1;
  // Fold the worker tallies in slice order: client-side counts go to
  // the slice's machine and to the round's total, served bytes to each
  // hosting machine.
  std::vector<PhaseCounters> per_machine(machines);
  PhaseCounters total;
  std::vector<int64_t> served(machines, 0);
  for (const WorkerTally& tally : tallies) {
    per_machine[tally.machine].Absorb(tally.client);
    total.Absorb(tally.client);
    for (size_t m = 0; m < tally.served_bytes.size(); ++m) {
      served[m] += tally.served_bytes[m];
    }
  }
  // Pull rounds (RunPullPhase) advance through global lockstep steps:
  // the most pull steps any machine's workers opened. Per step, every
  // machine receives its broadcast slice of the frontier bitmap
  // (ceil(key_space/8) / machines bytes), pays the aggregate
  // exchange's scatter + gather latency (two round trips), and sweeps
  // its local share of the key space against the bitmap at map-item
  // CPU rate — the cost that makes pull a *dense*-frontier win and
  // keeps tiny frontiers cheaper in their sparse representation.
  int64_t broadcast_bytes = 0;
  double pull_machine_time = 0.0;
  if (pull) {
    const int64_t pull_steps = std::max<int64_t>(1, total.pull_steps);
    const int64_t bitmap_slice_bytes =
        ((key_space + 7) / 8 + machines - 1) / machines;
    const int64_t sweep_items = (key_space + machines - 1) / machines;
    const double step_time =
        2.0 * config_.network.lookup_latency_sec +
        static_cast<double>(bitmap_slice_bytes) /
            config_.network.bytes_per_sec +
        static_cast<double>(sweep_items) * config_.map_item_cpu_sec /
            overlap;
    pull_machine_time = static_cast<double>(pull_steps) * step_time;
    broadcast_bytes = pull_steps * bitmap_slice_bytes * machines;
    metrics_.Add("frontier_dense_rounds", 1);
    metrics_.Add("frontier_broadcast_bytes", broadcast_bytes);
    metrics_.Add("frontier_exchange_bytes", total.pull_bytes);
  }
  double slowest_machine = 0;
  int64_t hottest_served = 0;
  for (int m = 0; m < machines; ++m) {
    const PhaseCounters& counters = per_machine[m];
    hottest_served = std::max(hottest_served, served[m]);
    // Straggler tax on this machine's trips (StragglerModel): a slow
    // destination's trip runs at slowdown x latency — extra
    // (slowdown - 1) trips' worth — unless a hedge won, in which case
    // the trip completed at 2 x latency (timeout + replica round trip:
    // extra 1), with both legs charged. Integer trip counts converted
    // to seconds exactly once, here; 0.0 when no trip was slow.
    const int64_t wins = counters.kv_hedge_wins;
    const double straggler_extra_sec =
        (static_cast<double>(counters.kv_slow_trips - wins) *
             (straggler_.slowdown - 1.0) +
         static_cast<double>(wins)) *
        config_.network.lookup_latency_sec;
    // Client side: round-trip latency (one trip per scalar lookup, one
    // per destination machine of a batch — the Section 5.3 batching
    // pipeline) and per-item CPU, hidden behind `overlap` worker threads
    // (Section 5.3 multithreading), plus the fetched records arriving
    // through this machine's NIC (a hot *reader* gathering from every
    // shard is also a straggler).
    const double client_time =
        (counters.kv_lookup_trips * config_.network.lookup_latency_sec +
         straggler_extra_sec +
         counters.items * config_.map_item_cpu_sec) /
            overlap +
        counters.kv_read_bytes / config_.network.bytes_per_sec;
    // Server side: this machine's NIC ships every byte its shard serves;
    // extra worker threads do not widen a NIC, so no overlap division.
    // Hot shards make their machine the round's straggler.
    const double server_time = served[m] / config_.network.bytes_per_sec;
    slowest_machine = std::max(
        slowest_machine, client_time + server_time + pull_machine_time);
  }
  // The cluster-wide network ceiling (paper Section 5.7) floors the
  // round; a pull round's bitmap broadcasts cross the network too.
  const double network_floor =
      static_cast<double>(total.kv_read_bytes + broadcast_bytes) /
      config_.network.aggregate_bytes_per_sec;
  const double sim =
      std::max(slowest_machine, network_floor) + config_.round_spawn_sec;

  metrics_.Add("kv_reads", total.kv_queries);
  metrics_.Add("kv_lookup_trips", total.kv_lookup_trips);
  metrics_.Add("kv_batches", total.kv_batches);
  metrics_.Add("kv_read_bytes", total.kv_read_bytes);
  metrics_.Add("kv_hot_machine_read_bytes", hottest_served);
  metrics_.Add("map_items", total.items);
  metrics_.Add("cache_hits", total.cache_hits);
  metrics_.Add("cache_misses", total.cache_misses);
  // Guarded like kv_replication_bytes: the straggler metrics only exist
  // in runs where the model fired, keeping zero-rate metric output
  // byte-identical to the historical model.
  if (total.kv_slow_trips != 0) {
    metrics_.Add("kv_slow_trips", total.kv_slow_trips);
  }
  if (total.kv_hedged_trips != 0) {
    metrics_.Add("kv_hedged_trips", total.kv_hedged_trips);
  }
  if (total.kv_hedge_wins != 0) {
    metrics_.Add("kv_hedge_wins", total.kv_hedge_wins);
  }
  // A watermark, not a sum: the metric holds the largest per-worker
  // in-flight key count seen by any phase so far (settles run serially,
  // so the read-then-top-up is race-free).
  const int64_t prior_peak = metrics_.Get("kv_peak_inflight_keys");
  if (total.peak_inflight_keys > prior_peak) {
    metrics_.Add("kv_peak_inflight_keys",
                 total.peak_inflight_keys - prior_peak);
  }
  ChargeRound(phase, sim, wall_seconds, std::move(served));
}

void Cluster::SettleKvWritePhase(const std::string& phase,
                                 const std::vector<int64_t>& writes,
                                 const std::vector<int64_t>& bytes,
                                 double wall_seconds) {
  const int overlap =
      config_.multithreading ? config_.threads_per_machine : 1;
  // Inbound traffic lands on each shard's current *host* (identity
  // until a drain migration remaps it), and shard_primary_bytes_
  // remembers the primary bytes resident per base shard — the bytes a
  // later drain of the host must move. Replication: shard s's records
  // also land on its followers' hosts, whose NICs absorb a full copy.
  std::vector<int64_t> inbound(config_.num_machines, 0);
  std::vector<int64_t> host_writes(config_.num_machines, 0);
  int64_t replication_bytes = 0;
  for (int s = 0; s < config_.num_machines; ++s) {
    inbound[HostOf(s)] += bytes[s];
    host_writes[HostOf(s)] += writes[s];
    shard_primary_bytes_[s] += bytes[s];
    for (size_t i = 1; i < replicas_[s].size(); ++i) {
      inbound[HostOf(replicas_[s][i])] += bytes[s];
      replication_bytes += bytes[s];
    }
  }
  int64_t total_writes = 0, total_bytes = 0, hottest_bytes = 0;
  double slowest_machine = 0;
  for (int m = 0; m < config_.num_machines; ++m) {
    total_writes += writes[m];
    total_bytes += inbound[m];
    hottest_bytes = std::max(hottest_bytes, bytes[m]);
    machine_kv_write_bytes_[m] += inbound[m];
    // Writes stream from all machines concurrently; machine m absorbs
    // the records landing on the shards it hosts (and the follower
    // copies), so a skewed key distribution stalls the round on the
    // hottest shard's machine. Worker threads overlap per-write latency
    // but cannot widen the machine's NIC, so only the latency term
    // divides by `overlap`.
    const double machine_time =
        host_writes[m] * config_.network.write_latency_sec / overlap +
        inbound[m] / config_.network.bytes_per_sec;
    slowest_machine = std::max(slowest_machine, machine_time);
  }
  const double sim =
      std::max(slowest_machine,
               static_cast<double>(total_bytes) /
                   config_.network.aggregate_bytes_per_sec) +
      config_.round_spawn_sec;

  metrics_.Add("kv_writes", total_writes);
  metrics_.Add("kv_write_bytes", total_bytes - replication_bytes);
  metrics_.Add("kv_hot_machine_write_bytes", hottest_bytes);
  if (replication_bytes != 0) {
    metrics_.Add("kv_replication_bytes", replication_bytes);
  }
  ChargeRound(phase, sim, wall_seconds, /*kv_read_bytes=*/{},
              /*kv_write_bytes=*/std::move(inbound));
}

void Cluster::ProcessFaultsAndCheckpoints() {
  const bool checkpointing = config_.faults.checkpoint_period_sec > 0.0;
  if (!fault_injector_.enabled() && !checkpointing) return;
  if (fault_injector_.enabled()) {
    const std::vector<FaultEvent> events =
        fault_injector_.AdvanceTo(sim_clock_);
    // Warnings first (they sort ahead of same-time kills): each drains
    // its machine, migrating the hosted shards away before the
    // announced kill can land.
    for (const FaultEvent& event : events) {
      if (event.warning) DrainMachine(event.machine);
    }
    // Kills, in correlated groups: the members of one domain kill share
    // (time, domain) and are adjacent in the sorted stream, and every
    // member's recovery must see the whole group down at once —
    // that simultaneity is what can wipe an entire ReplicaSet.
    size_t i = 0;
    while (i < events.size()) {
      if (events[i].warning) {
        ++i;
        continue;
      }
      size_t j = i + 1;
      if (events[i].domain >= 0) {
        while (j < events.size() && !events[j].warning &&
               events[j].domain == events[i].domain &&
               events[j].time == events[i].time) {
          ++j;
        }
        metrics_.Add("domains_lost", 1);
      }
      std::vector<uint8_t> dead(config_.num_machines, 0);
      for (size_t k = i; k < j; ++k) dead[events[k].machine] = 1;
      for (size_t k = i; k < j; ++k) RecoverFromKill(events[k], dead);
      i = j;
    }
    // Recovery intervals are failure-free: the recovering machine was
    // just scheduled. Skipping redraws any arrival the recovery time
    // would otherwise have swallowed.
    if (!events.empty()) fault_injector_.SkipTo(sim_clock_);
  }
  if (checkpointing && sim_clock_ - last_checkpoint_time_ >=
                           config_.faults.checkpoint_period_sec) {
    TakeCheckpoint();
  }
}

void Cluster::RecoverFromKill(const FaultEvent& kill,
                              const std::vector<uint8_t>& dead) {
  // ampc-lint: allow(metric-zero-guard): only reached when a kill fires;
  // a fault-free config never calls RecoverFromKill.
  metrics_.Add("machines_lost", 1);
  // The replacement machine's RAM starts cold: moving the machine's
  // cache epoch invalidates every entry it cached, read-through and
  // derived (extra misses, never wrong values).
  ++cache_generation_[kill.machine];
  if (drained_[kill.machine]) {
    // The warned-and-drained kill: the machine's shards migrated away
    // when the warning fired, no work has been scheduled here since,
    // and nothing resident is lost — the kill costs zero and the
    // replacement slot rejoins empty. This is the payoff the
    // drain-vs-reactive bench gate measures.
    drained_[kill.machine] = 0;
    return;
  }
  const size_t round = rounds_.empty() ? 0 : rounds_.size() - 1;
  // How far into the interrupted round the kill landed — the in-flight
  // work the dead machine loses.
  const double elapsed = std::clamp(kill.time - last_round_start_, 0.0,
                                    sim_clock_ - last_round_start_);
  const double partial = elapsed * ReplaySliceShare(round, kill.machine);
  double transfer = 0.0;
  double replay = 0.0;
  // Replicated recovery needs a live copy of every shard the dead
  // machine hosted. A correlated domain kill can take out a whole
  // ReplicaSet at once (domain-oblivious placement permits co-domain
  // copies); each wiped set is counted and recovery falls back to the
  // checkpoint/restart paths below. Replication 1 has no replica to
  // stream from; its primary alone would count as a wiped-out set.
  bool replicas_survive = config_.faults.replication > 1;
  if (replicas_survive) {
    for (int s = 0; s < config_.num_machines; ++s) {
      if (HostOf(s) != kill.machine) continue;
      const bool survivor =
          std::any_of(replicas_[s].begin(), replicas_[s].end(),
                      [&](int copy) { return !dead[HostOf(copy)]; });
      if (!survivor) {
        metrics_.Add("replica_wipeouts", 1);
        replicas_survive = false;
      }
    }
  }
  if (replicas_survive) {
    // Re-replicate: stream the machine's resident shard bytes from the
    // surviving replicas over its NIC, then redo the in-flight slice.
    transfer = static_cast<double>(machine_kv_write_bytes_[kill.machine]) /
               config_.network.bytes_per_sec;
    replay = partial;
  } else if (config_.faults.checkpoint_period_sec > 0.0) {
    // Restore the machine's checkpointed shard from durable storage,
    // then replay its slice of every round since that checkpoint.
    transfer = static_cast<double>(checkpointed_bytes_[kill.machine]) /
               config_.shuffle_bytes_per_sec;
    for (size_t r = last_checkpoint_round_; r < round; ++r) {
      replay += rounds_[r].sim_seconds * ReplaySliceShare(r, kill.machine);
    }
    replay += partial;
  } else {
    // Nothing persisted anywhere: the whole job restarts — the
    // kInMemory discipline of sim/faults.h, and the baseline the
    // recovery paths above must beat (bench/micro_churn).
    for (size_t r = 0; r < round; ++r) replay += rounds_[r].sim_seconds;
    replay += elapsed;
  }
  ExtendLastRound("sim:recovery", transfer + replay);
  metrics_.AddTime("recovery_replay_seconds", replay);
}

void Cluster::TakeCheckpoint() {
  int64_t total = 0, hottest = 0;
  for (int m = 0; m < config_.num_machines; ++m) {
    const int64_t delta =
        machine_kv_write_bytes_[m] - checkpointed_bytes_[m];
    total += delta;
    hottest = std::max(hottest, delta);
  }
  if (total > 0) {
    metrics_.Add("checkpoints", 1);
    metrics_.Add("checkpoint_bytes", total);
    // Charged like a sharded shuffle of each machine's delta: machines
    // checkpoint concurrently, so the round lasts as long as the
    // hottest machine's durable write.
    RecordRound("checkpoint",
                ShuffleSeconds(static_cast<double>(hottest) /
                               config_.shuffle_bytes_per_sec));
  }
  // The snapshot and clock move even when nothing new landed — an idle
  // period must not retry a checkpoint every subsequent round.
  checkpointed_bytes_ = machine_kv_write_bytes_;
  last_checkpoint_time_ = sim_clock_;
  last_checkpoint_round_ = rounds_.size();
  fault_injector_.SkipTo(sim_clock_);
}

double Cluster::ReplaySliceShare(size_t round, int machine) const {
  if (round >= rounds_.size()) return 1.0;
  const RoundFootprint& fp = rounds_[round];
  int64_t hottest = 0;
  for (size_t m = 0; m < fp.kv_read_bytes.size(); ++m) {
    hottest =
        std::max(hottest, fp.kv_read_bytes[m] + fp.kv_write_bytes[m]);
  }
  if (hottest == 0) return 1.0;
  const int64_t mine =
      fp.kv_read_bytes[machine] + fp.kv_write_bytes[machine];
  return static_cast<double>(mine) / static_cast<double>(hottest);
}

void Cluster::InjectMachineFailure(int machine) {
  AMPC_CHECK_GE(machine, 0);
  AMPC_CHECK_LT(machine, config_.num_machines);
  std::vector<uint8_t> dead(config_.num_machines, 0);
  dead[machine] = 1;
  RecoverFromKill(FaultEvent{sim_clock_, machine}, dead);
  fault_injector_.SkipTo(sim_clock_);
}

void Cluster::InjectDomainFailure(int domain) {
  AMPC_CHECK_GE(domain, 0);
  const int per = std::max(1, config_.faults.machines_per_domain);
  const int lo = domain * per;
  const int hi = std::min(config_.num_machines, lo + per);
  AMPC_CHECK_LT(lo, config_.num_machines);
  // ampc-lint: allow(metric-zero-guard): only reached when a correlated
  // domain kill arrives; rate-0 configs never call InjectDomainFailure.
  metrics_.Add("domains_lost", 1);
  // The whole rack goes down at once: every member's recovery must see
  // the full group dead — that simultaneity is what can take out an
  // entire ReplicaSet under domain-oblivious placement.
  std::vector<uint8_t> dead(config_.num_machines, 0);
  for (int m = lo; m < hi; ++m) dead[m] = 1;
  for (int m = lo; m < hi; ++m) {
    RecoverFromKill(FaultEvent{sim_clock_, m, domain}, dead);
  }
  fault_injector_.SkipTo(sim_clock_);
}

void Cluster::DrainMachine(int machine) {
  AMPC_CHECK_GE(machine, 0);
  AMPC_CHECK_LT(machine, config_.num_machines);
  if (drained_[machine]) return;
  drained_[machine] = 1;
  // ampc-lint: allow(metric-zero-guard): only reached on a warned kill;
  // warning_lead_sec 0 never drains a machine.
  metrics_.Add("machines_drained", 1);
  int64_t moved_bytes = 0;
  int64_t shards_moved = 0;
  for (int s = 0; s < config_.num_machines; ++s) {
    if (shard_hosts_[s] != machine) continue;
    // Prefer the least-loaded live replica host — a copy of the shard
    // is already resident there, which is the point of chained
    // declustering. Fall back to the least-loaded live machine when no
    // follower survives (or at replication 1, where migration is a full
    // re-stream either way). Ties break to the lowest machine id so the
    // choice is deterministic.
    int target = -1;
    for (size_t i = 1; i < replicas_[s].size(); ++i) {
      const int host = HostOf(replicas_[s][i]);
      if (host == machine || drained_[host]) continue;
      if (target < 0 ||
          machine_kv_write_bytes_[host] < machine_kv_write_bytes_[target] ||
          (machine_kv_write_bytes_[host] == machine_kv_write_bytes_[target] &&
           host < target)) {
        target = host;
      }
    }
    if (target < 0) {
      for (int m = 0; m < config_.num_machines; ++m) {
        if (m == machine || drained_[m]) continue;
        if (target < 0 ||
            machine_kv_write_bytes_[m] < machine_kv_write_bytes_[target]) {
          target = m;
        }
      }
    }
    // Every other machine already drained: nowhere to move — the kill
    // will be recovered reactively instead.
    if (target < 0) {
      drained_[machine] = 0;
      return;
    }
    const int64_t bytes = shard_primary_bytes_[s];
    shard_hosts_[s] = target;
    ++shards_moved;
    moved_bytes += bytes;
    if (bytes > 0) {
      // The resident bytes follow the shard, and so does their
      // checkpoint credit — leaving it behind would let a later
      // checkpoint delta on the emptied machine go negative.
      machine_kv_write_bytes_[machine] =
          std::max<int64_t>(0, machine_kv_write_bytes_[machine] - bytes);
      machine_kv_write_bytes_[target] += bytes;
      const int64_t credit = std::min(bytes, checkpointed_bytes_[machine]);
      checkpointed_bytes_[machine] -= credit;
      checkpointed_bytes_[target] += credit;
    }
  }
  if (shards_moved > 0) {
    metrics_.Add("shards_migrated", shards_moved);
    if (moved_bytes > 0) metrics_.Add("kv_migration_bytes", moved_bytes);
    // The migration streams the primary's resident bytes to the new
    // host at shuffle bandwidth on the sim clock — the price the
    // drain-vs-reactive bench weighs against replaying lost work.
    const double sim =
        static_cast<double>(moved_bytes) / config_.shuffle_bytes_per_sec;
    if (sim > 0.0) ExtendLastRound("sim:drain", sim);
  }
}

std::shared_ptr<const kv::ShardMap> Cluster::ShardMapFor(
    int64_t capacity) const {
  std::lock_guard<std::mutex> lock(shard_map_mu_);
  auto recent = std::find(shard_map_recency_.begin(),
                          shard_map_recency_.end(), capacity);
  if (recent != shard_map_recency_.end()) {
    shard_map_recency_.erase(recent);
  } else if (shard_maps_.size() >= kMaxCachedShardMaps) {
    shard_maps_.erase(shard_map_recency_.front());
    shard_map_recency_.erase(shard_map_recency_.begin());
  }
  shard_map_recency_.push_back(capacity);
  std::shared_ptr<const kv::ShardMap>& map = shard_maps_[capacity];
  if (map == nullptr) {
    map = kv::ShardMap::Build(PlacementFor(capacity));
  }
  return map;
}

void Cluster::RunMapPhase(
    const std::string& phase, int64_t n,
    const std::function<void(int64_t, MachineContext&)>& fn) {
  RunMapPhaseImpl(phase, n, {}, /*explicit_items=*/false,
                  [&fn](std::span<const int64_t> items, MachineContext& ctx) {
                    for (const int64_t item : items) fn(item, ctx);
                  });
}

void Cluster::RunBatchMapPhase(
    const std::string& phase, int64_t n,
    const std::function<void(std::span<const int64_t>, MachineContext&)>&
        fn) {
  RunMapPhaseImpl(phase, n, {}, /*explicit_items=*/false, fn);
}

void Cluster::RunBatchMapPhase(
    const std::string& phase, int64_t key_space,
    std::span<const int64_t> items,
    const std::function<void(std::span<const int64_t>, MachineContext&)>&
        fn) {
  RunMapPhaseImpl(phase, key_space, items, /*explicit_items=*/true, fn);
}

void Cluster::RunPullPhase(
    const std::string& phase, int64_t key_space,
    const std::function<void(std::span<const int64_t>, MachineContext&)>&
        fn) {
  RunMapPhaseImpl(phase, key_space, {}, /*explicit_items=*/false, fn,
                  /*pull=*/true);
}

void Cluster::RunPullPhase(
    const std::string& phase, int64_t key_space,
    std::span<const int64_t> items,
    const std::function<void(std::span<const int64_t>, MachineContext&)>&
        fn) {
  RunMapPhaseImpl(phase, key_space, items, /*explicit_items=*/true, fn,
                  /*pull=*/true);
}

bool Cluster::UsePullPhase(int64_t frontier_size, int64_t frontier_edges,
                           int64_t num_vertices, int64_t total_edges) {
  FrontierPolicy policy(config_.frontier.mode, config_.frontier.alpha,
                        config_.frontier.beta, num_vertices, total_edges);
  if (policy.UseDense(frontier_size, frontier_edges)) return true;
  NoteSparseFrontierRound();
  return false;
}

void Cluster::RunMapPhaseImpl(
    const std::string& phase, int64_t key_space,
    std::span<const int64_t> items, bool explicit_items,
    const std::function<void(std::span<const int64_t>, MachineContext&)>&
        slice_fn,
    bool pull) {
  WallTimer timer;
  const int num_machines = config_.num_machines;
  // The work list: all of [0, key_space), or the caller's explicit
  // frontier subset.
  const int64_t n =
      explicit_items ? static_cast<int64_t>(items.size()) : key_space;

  // Bucket items by owning machine (the machine holding record i of a
  // capacity-key_space store under the configured placement — what
  // MachineOf(item, key_space) computes, with the placement resolved
  // once for the phase).
  const kv::Placement placement = PlacementFor(key_space);
  const auto machine_of = [&](int64_t item) {
    return HostOf(placement.ShardOf(static_cast<uint64_t>(item)));
  };
  // A counting sort over fixed 4096-item chunks: each chunk histograms
  // its machines, the (chunk, machine) offsets are prefix-summed, and
  // each chunk scatters into its own reserved runs. Every bucket thus
  // holds its items in index order whatever the thread timing, so which
  // worker slice gets which item — and with it every per-worker dedup
  // and window charge — is schedule-independent.
  constexpr int64_t kScatterChunk = 4096;
  const int64_t num_chunks = (n + kScatterChunk - 1) / kScatterChunk;
  // cursor[c * num_machines + m]: chunk c's count of machine-m items,
  // then (after the prefix sum) where chunk c writes its next one.
  std::vector<int64_t> cursor(static_cast<size_t>(num_chunks) * num_machines,
                              0);
  const auto for_each_chunk_item = [&](auto&& visit) {
    ParallelFor(pool_, 0, num_chunks, 1, [&](int64_t c) {
      int64_t* local = cursor.data() + c * num_machines;
      const int64_t hi = std::min(n, (c + 1) * kScatterChunk);
      for (int64_t i = c * kScatterChunk; i < hi; ++i) {
        const int64_t item = explicit_items ? items[i] : i;
        visit(local[machine_of(item)], item);
      }
    });
  };
  for_each_chunk_item([](int64_t& count, int64_t) { ++count; });
  std::vector<int64_t> offsets(num_machines + 1, 0);
  for (int m = 0; m < num_machines; ++m) {
    int64_t next = offsets[m];
    for (int64_t c = 0; c < num_chunks; ++c) {
      const int64_t count = cursor[c * num_machines + m];
      cursor[c * num_machines + m] = next;
      next += count;
    }
    offsets[m + 1] = next;
  }
  std::vector<int64_t> buckets(n);
  for_each_chunk_item(
      [&](int64_t& next, int64_t item) { buckets[next++] = item; });

  // Execute: each machine's slice split over its worker threads. A
  // machine share too small to feed every worker kMinWorkerGrain items
  // is regrouped into grain-sized chunks instead of span/workers
  // slivers: a tiny frontier round then issues a few well-filled
  // per-worker sub-batches (each sub-batch pays its own
  // per-destination trips) rather than `workers` nearly-empty ones.
  constexpr int64_t kMinWorkerGrain = 32;
  const int workers = config_.threads_per_machine;
  struct WorkerSlice {
    int machine;
    int64_t lo;
    int64_t hi;
  };
  std::vector<WorkerSlice> slices;
  slices.reserve(static_cast<size_t>(num_machines) * workers);
  for (int m = 0; m < num_machines; ++m) {
    const int64_t begin = offsets[m];
    const int64_t end = offsets[m + 1];
    const int64_t span = end - begin;
    if (span < workers * kMinWorkerGrain) {
      const std::vector<IndexChunk> chunks =
          SplitIndexChunks(begin, end, kMinWorkerGrain, workers);
      for (const IndexChunk& chunk : chunks) {
        slices.push_back(WorkerSlice{m, chunk.begin, chunk.end});
      }
    } else {
      for (int w = 0; w < workers; ++w) {
        slices.push_back(WorkerSlice{m, begin + span * w / workers,
                                     begin + span * (w + 1) / workers});
      }
    }
  }
  // Host tasks are runs of consecutive slices [task_begin[t],
  // task_begin[t + 1]): in a push round one per machine, its slices in
  // worker order, so the machine's query caches, which take no lock,
  // have one user at a time and see one fixed sequence of reads; in a
  // pull round, which probes no cache (MachineContext::caching_enabled),
  // one per slice.
  std::vector<size_t> task_begin;
  for (size_t s = 0; s < slices.size(); ++s) {
    if (pull || s == 0 ||
        slices[s].machine != slices[s - 1].machine) {
      task_begin.push_back(s);
    }
  }
  const int64_t num_tasks = static_cast<int64_t>(task_begin.size());
  task_begin.push_back(slices.size());
  // One tally per slice, written once, when the slice's context hands
  // over its private tally.
  std::vector<WorkerTally> tallies(slices.size());
  pool_.RunTasks(num_tasks, [&](int64_t t) {
    for (size_t s = task_begin[t]; s < task_begin[t + 1]; ++s) {
      const WorkerSlice& slice = slices[s];
      {
        // Scoped so the context's destructor — which settles any
        // deferred pipeline trips and hands over the tally — runs
        // before the task counts as finished.
        MachineContext ctx(this, &tallies[s], slice.machine,
                           /*pull_round=*/pull);
        slice_fn(std::span<const int64_t>(buckets.data() + slice.lo,
                                          slice.hi - slice.lo),
                 ctx);
      }
      tallies[s].client.items = slice.hi - slice.lo;
    }
  });
  SettleMapPhase(phase, tallies, timer.Seconds(), key_space, pull);
}

}  // namespace ampc::sim
