// Metric accounting shared by the AMPC and MPC runtimes.
//
// The paper's evaluation reports model-level quantities — shuffles
// (Table 3), bytes shuffled (Fig. 3), KV-store communication (Figs 3, 9),
// per-phase times (Figs 5-7) — so every runtime operation credits one of
// these counters. Counters are atomic: logical machines run concurrently.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace ampc {

/// Snapshot of all counters at a point in time.
struct MetricsSnapshot {
  std::map<std::string, int64_t> counters;
  std::map<std::string, double> timers_sec;

  std::string ToString() const;
};

/// A registry of named atomic counters and accumulating phase timers.
///
/// Canonical counter names used across the library:
///   "shuffles"            number of shuffle phases (costly rounds)
///   "shuffle_bytes"       total bytes moved through shuffles
///   "shuffle_hot_machine_bytes"  sum over sharded shuffles of the
///                         busiest machine's bytes
///   "rounds"              total AMPC rounds (shuffles + map-only rounds)
///   "map_items"           work items run by map phases
///   "kv_reads"            KV-store lookup operations
///   "kv_read_bytes"       bytes returned by KV lookups
///   "kv_hot_machine_read_bytes"  sum over map phases of the bytes the
///                         busiest serving machine shipped
///   "kv_writes"           KV-store write operations
///   "kv_write_bytes"      bytes written to the KV store
///   "kv_hot_machine_write_bytes"  sum over write phases of the busiest
///                         shard's bytes
///   "cache_hits"/"cache_misses"  per-machine query-cache behaviour
///   "kv_lookup_trips"     latency-bearing round trips (after batching
///                         and pipeline overlap)
///   "kv_batches"          wire batches sent by batched lookups (a
///                         fully cache-served window sends none)
///   "kv_peak_inflight_keys"  watermark: most keys any worker held in
///                         flight at once (pipelining memory cost)
///   "machines_lost"       injected machine failures absorbed so far
///   "domains_lost"        correlated domain (rack) failures absorbed —
///                         each counts once however many machines it
///                         takes down
///   "machines_drained"    machines proactively drained on a failure
///                         warning before their kill landed
///   "shards_migrated"/"kv_migration_bytes"  shards moved off drained
///                         machines and the primary bytes re-streamed
///   "replica_wipeouts"    shards whose every replica died in one
///                         correlated kill (recovery falls back to
///                         checkpoint/restart)
///   "kv_slow_trips"       lookup trips that landed on a straggling
///                         destination machine
///   "kv_hedged_trips"/"kv_hedge_wins"  straggler trips re-issued to a
///                         replica, and those the replica answered first
///   "kv_replication_bytes"  follower-copy bytes charged by replicated
///                         KV writes (replication > 1)
///   "checkpoints"/"checkpoint_bytes"  periodic shard checkpoints taken
///                         and the byte deltas they persisted
///   "frontier_dense_rounds"/"frontier_sparse_rounds"  frontier-shaped
///                         rounds by representation (pull vs push), in
///                         every ClusterConfig::frontier.mode
///   "frontier_broadcast_bytes"  frontier-bitmap bytes broadcast by
///                         pull rounds (steps x ceil(key_space/8))
///   "frontier_exchange_bytes"  record bytes moved by pull rounds'
///                         aggregate exchanges (the pull-side analogue
///                         of per-lookup read bytes)
/// Timers: "sim:<phase>" and "wall:<phase>" (simulated and host seconds
/// of each phase's rounds), "sim_total" and "wall_total" (their sums).
/// Fault-model timers: "sim:recovery" (total recovery time charged),
/// "recovery_replay_seconds" (its replay component, excluding replica
/// streams and checkpoint restores), "sim:checkpoint" (checkpoint
/// rounds), "sim:drain" (live shard migration off warned machines).
/// A timer holds integer nanoseconds in an int64: one AddTime and every
/// running sum must stay below kMaxTimerSeconds (about 292 years), or
/// the process stops with the timer's name instead of wrapping.
class Metrics {
 public:
  static constexpr double kMaxTimerSeconds = 9.2e9;  // < 2^63 ns

  Metrics() = default;
  Metrics(const Metrics&) = delete;
  Metrics& operator=(const Metrics&) = delete;

  /// Adds `delta` to counter `name` (creating it at 0 if absent).
  void Add(const std::string& name, int64_t delta);

  /// Current value of a counter (0 if never touched).
  int64_t Get(const std::string& name) const;

  /// Accumulates wall/simulated seconds into a named phase timer.
  /// AMPC_CHECKs that `seconds` and the new sum are in range.
  void AddTime(const std::string& phase, double seconds);

  double GetTime(const std::string& phase) const;

  /// Atomically reads every counter and timer.
  MetricsSnapshot Snapshot() const;

  /// Zeroes all counters and timers.
  void Reset();

 private:
  struct Cell {
    std::atomic<int64_t> value{0};
  };
  struct TimeCell {
    std::atomic<int64_t> nanos{0};
  };

  Cell* GetCell(const std::string& name);
  TimeCell* GetTimeCell(const std::string& name);

  mutable std::mutex mu_;
  // Pointers are stable after insertion; hot paths hold a Cell*.
  std::map<std::string, std::unique_ptr<Cell>> counters_;
  std::map<std::string, std::unique_ptr<TimeCell>> timers_;
};

}  // namespace ampc
