// The AMPC cluster simulator.
//
// Executes an AMPC (or MPC) computation's phases on a pool of logical
// machines backed by real threads, while charging a simulated distributed
// cost model. Two clocks are kept per phase:
//
//   wall:<phase>  real seconds spent on this multicore host, and
//   sim:<phase>   modeled seconds in the paper's environment: per-machine
//                 KV latency/throughput (kv::NetworkModel), an aggregate
//                 network ceiling (paper Section 5.7), durable-storage
//                 shuffle throughput, and fixed per-round spawn overhead.
//
// Cost accounting is per machine and skew-aware: the DHT
// (kv::ShardedStore) is hash-partitioned across machines with the same
// placement function the simulator uses for work items, and every KV
// write or lookup is charged to the machine whose shard actually serves
// it. A round's simulated duration is the *slowest machine's* time (plus
// the aggregate network ceiling), so hot keys and byte skew surface as
// stragglers in sim: times instead of vanishing into a total/P average.
//
// Round accounting matches the paper's conventions: a *shuffle* is a
// costly round (Table 3 counts these); KV writes and map rounds are cheap
// rounds.
//
// Reads flow through a four-stage lookup pipeline (Section 5.3), each
// stage an independently togglable Figure-4 optimization axis:
//
//   1. query cache   — each machine's bounded kv::QueryCache answers
//                      repeated keys locally (no trip, no owner bytes);
//                      ClusterConfig::query_cache.
//   2. batch coalesce — a sub-batch (LookupManyAsync) groups its misses
//                      by owning machine; duplicate keys in a batch are
//                      fetched once; ClusterConfig::batch_lookups.
//   3. pipeline      — a worker keeps up to
//                      ClusterConfig::pipeline_depth sub-batches in
//                      flight (LookupManyAsync/Await tickets); the
//                      round-trip latencies of concurrently in-flight
//                      sub-batches overlap, so a destination contacted
//                      by w in-flight windows costs ceil(w / depth)
//                      serialized trips instead of w. depth = 1 is
//                      strict lockstep, the bit-identical baseline.
//   4. per-destination trips — each sub-batch (bounded by
//                      ClusterConfig::max_batch_keys, the adaptive
//                      sub-batching knob) pays one round-trip latency
//                      per distinct destination machine; bytes stay
//                      charged per machine, max-over-machines.
//
// The multithreading toggle (overlapping trips across a machine's worker
// threads) completes the Figure-4 ablation grid. None of the toggles
// ever changes a returned value — only the cost model. multithreading
// is cost-only: the settles read it, and the host runs a job the same
// way either way, on the Cluster's pool (ThreadPool::Global() default).
//
// Pull is a mode of the same client, not a second API. Inside a pull
// round (Cluster::RunPullPhase, the frontier engine's dense mode) the
// batched entry points — LookupManyAsync, and so DriveLookupPipelined
// — resolve keys as a local shard sweep against the round's bitmap
// broadcast + aggregate exchange: bytes once per
// distinct key per worker per pull step, and no trips, wire batches,
// cache probes or in-flight keys.
//
// The cluster is elastic under injected churn (ClusterConfig::faults):
// a seeded sim::FaultInjector kills machines mid-phase at a Poisson
// rate, and the cluster recovers each loss — re-routing the dead
// machine's shards to surviving replicas (kv::ReplicaSet), restoring
// from the last periodic checkpoint, or replaying from scratch — and
// charges the recovery through the same max-over-machines cost model.
// Recovery is a *cost* event, never a correctness event: values are
// resolved eagerly as always, so outputs under churn are bit-identical
// to a fault-free run.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/frontier.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "kv/network_model.h"
#include "kv/placement.h"
#include "kv/query_cache.h"
#include "kv/sharded_store.h"
#include "sim/faults.h"

namespace ampc::sim {

/// Cluster-wide configuration. Defaults model the paper's setting scaled
/// to a single multicore host.
struct ClusterConfig {
  /// Number of logical machines (paper: up to 100). A scale parameter
  /// of the simulated topology, not a feature toggle: outputs are
  /// bit-identical across values (the determinism matrix), only the
  /// cost distribution moves.
  int num_machines = 8;
  /// Worker threads per machine used to overlap synchronous KV lookups
  /// (the multithreading optimization of Section 5.3). A scale
  /// parameter: outputs are bit-identical across thread counts, only
  /// simulated overlap changes.
  int threads_per_machine = 8;
  /// Disables the multithreading optimization when false (Figure 4).
  /// Cost-only: a machine's trips are charged serialized instead of
  /// overlapped across its threads_per_machine workers. The host still
  /// runs the same worker slices on the same pool, so outputs and
  /// counters are unchanged; only sim: seconds move.
  bool multithreading = true;
  /// Per-machine query-result caching (the Section 5.3 caching
  /// optimization, the largest single Figure-4 win). When enabled,
  /// every store minted by MakeStore carries one bounded read-through
  /// kv::QueryCache per machine, consulted by MachineContext::Lookup
  /// and LookupManyAsync before any trip is charged: hits are served
  /// locally (counted via cache_hits; no round trip, no owner bytes)
  /// and duplicate keys within one batch are fetched once. Algorithms park
  /// derived per-key facts in MakeMachineCaches() instances under the
  /// same budget (Cluster::kQueryCacheCapacity). Every entry is valid
  /// only under the epoch MachineContext::CacheEpoch returns, so a
  /// write phase or a kill of the machine invalidates it. Disabling it
  /// reverts to the uncached client without changing any returned
  /// value — the caching axis of the Figure-4 ablation grid.
  struct QueryCacheConfig {
    /// false disables caching entirely — the uncached historical
    /// client, bit-identical outputs, cost-only difference.
    bool enabled = true;
  };
  QueryCacheConfig query_cache;
  /// Batches DHT reads issued through MachineContext::LookupManyAsync
  /// into one round trip per destination machine (the batching/pipelining
  /// optimization of Section 5.3). When false every key in a batch is
  /// charged a full round trip — the unbatched scalar client, kept as an
  /// ablation toggle (outputs are identical either way; only the cost
  /// model differs).
  bool batch_lookups = true;
  /// Adaptive sub-batching: the most keys one in-flight LookupManyAsync
  /// sub-batch may carry, and the frontier window DriveLookupPipelined
  /// gathers per adaptive step. Huge frontiers split into sub-batches
  /// of this size — each sub-batch still pays one trip per distinct
  /// destination machine, preserving the batching amortization, but a
  /// worker never holds every in-flight request and response at once.
  /// <= 0 disables splitting (one sub-batch per call). The default is
  /// tuned so typical per-worker frontiers at this library's benchmark
  /// scale stay whole while hub-degree and giant-frontier outliers are
  /// bounded.
  int64_t max_batch_keys = 4096;
  /// Bounded-depth pipelining of asynchronous lookups — the third
  /// Section 5.3 client optimization, after caching and batching. A
  /// worker keeps up to this many sub-batches in flight at once
  /// (MachineContext::LookupManyAsync issues a ticket, Await settles
  /// it; DriveLookupPipelined drives the pattern), and
  /// the round-trip latencies of concurrently in-flight sub-batches
  /// overlap: per adaptive step (one fully drained pipeline), a
  /// destination machine contacted by w in-flight windows costs
  /// ceil(w / pipeline_depth) serialized trips instead of w, while
  /// bytes stay charged per machine (client NIC receives, owning
  /// shard's NIC serves, max-over-machines) exactly as in lockstep.
  /// 1 = strict lockstep, the bit-identical ablation baseline (the
  /// pre-pipelining cost model). The memory trade-off is depth x
  /// max_batch_keys keys held in flight per worker; the
  /// kv_peak_inflight_keys metric measures the realized peak.
  int pipeline_depth = 4;
  /// Key -> machine placement policy, shared by every store minted with
  /// MakeStore and by the work-item placement of map phases. kHash is
  /// the historical default; every policy returns bit-identical
  /// outputs, only locality (and so cost) differs.
  kv::PlacementPolicy placement_policy = kv::PlacementPolicy::kHash;
  /// KV-store network cost model (RDMA vs TCP/IP, Table 4). Cost-only:
  /// the network model scales charged latencies/bytes, never values.
  kv::NetworkModel network = kv::NetworkModel::Rdma();
  /// Fixed simulated cost of spawning any round (stage scheduling,
  /// worker startup). Dominates when the graph is small or P is large.
  /// Calibrated so that fixed-vs-data cost ratios at this library's
  /// benchmark scale (1e5..1e7 arcs) match the paper's at its scale
  /// (1e8..1e11 arcs). Cost-only.
  double round_spawn_sec = 0.05;
  /// Per-machine throughput of shuffle writes to durable storage.
  /// Cost-only.
  double shuffle_bytes_per_sec = 2.0e7;
  /// Simulated floor per shuffle (fault-tolerant checkpointing).
  /// Cost-only.
  double shuffle_min_sec = 0.02;
  /// Simulated CPU cost per item touched in a map phase. Cost-only.
  double map_item_cpu_sec = 2e-8;
  /// Injected machine failures and the recovery machinery that absorbs
  /// them. Defaults are all-off and reproduce the fault-free cost model
  /// bit-identically: rate 0 means the injector never fires,
  /// replication 1 means no follower copies are charged, period 0 means
  /// no checkpoint rounds are taken.
  struct FaultConfig {
    /// Poisson kill rate per machine-second of *simulated* time. A
    /// killed machine is immediately replaced (the scheduler reruns the
    /// slot), but its shard contents, caches, and in-flight slice are
    /// lost and recovered at a cost. Its caches — read-through and
    /// derived alike — go cold because the kill moves the machine's
    /// MachineContext::CacheEpoch. 0 disables injection.
    double fault_rate_per_machine_sec = 0.0;
    /// Seed of the injected kill schedule — independent of `seed` so
    /// churn can vary while algorithmic randomness stays fixed. Inert
    /// (cost- and value-neutral) while every fault rate is 0.
    uint64_t fault_seed = 42;
    /// Copies of every DHT record (kv::Placement::replication): R > 1
    /// places R - 1 followers on distinct machines via chained
    /// declustering, so a lost machine re-streams its shard from a
    /// surviving replica instead of replaying history. Follower write
    /// traffic and memory are charged through the normal cost model
    /// (kv_replication_bytes). 1 = no followers, the unreplicated
    /// historical model, bit-identical to pre-replication builds.
    int replication = 1;
    /// Simulated seconds between periodic shard checkpoints to durable
    /// storage. A checkpoint is a costly round (charged like a sharded
    /// shuffle of each machine's KV-byte delta since the previous one);
    /// recovery of an unreplicated machine then replays only the rounds
    /// since the last checkpoint instead of the whole job. 0 disables
    /// checkpointing.
    double checkpoint_period_sec = 0.0;
    /// Rack-level fault-domain width: machines [d*k, (d+1)*k) share a
    /// switch and power domain. <= 1 keeps every machine its own domain
    /// (the historical model). Feeds both the injector's correlated
    /// kill streams and — when domain_aware_placement is on — the
    /// replica placement's SpansDomains invariant.
    int machines_per_domain = 0;
    /// Poisson rate per domain-second of correlated domain kills: one
    /// arrival takes out every machine of a fault domain at the same
    /// simulated instant (a rack loss). Counted per group in
    /// "domains_lost". 0 disables the correlated streams.
    double domain_fault_rate_sec = 0.0;
    /// When machines_per_domain > 1, place each shard's replicas across
    /// distinct fault domains (kv::Placement::machines_per_domain), so
    /// a single rack loss never wipes a whole ReplicaSet while a spare
    /// domain exists. Off = the domain-oblivious historical walk — the
    /// naive baseline bench/micro_degrade measures rack kills against.
    bool domain_aware_placement = true;
    /// Seconds of advance notice ahead of every kill. > 0 makes the
    /// injector emit warning events warning_lead_sec before each kill
    /// (machine or domain), and the cluster reacts by *draining* the
    /// marked machine: its hosted shards migrate to their least-loaded
    /// live replica (or a fresh least-loaded owner at replication 1) at
    /// shuffle bandwidth on the sim clock ("sim:drain",
    /// kv_migration_bytes), the shard map is hot-swapped mid-job, and
    /// the kill — when it lands — loses zero in-flight slice and
    /// replays nothing. 0 = unannounced kills, the reactive historical
    /// model.
    double warning_lead_sec = 0.0;
    /// Per-round probability that a destination machine is a straggler:
    /// each round, each machine is independently slow with this
    /// probability (seeded StragglerModel — a pure function of
    /// (fault_seed, round, machine)), and every lookup round trip to a
    /// slow machine takes StragglerModel::slowdown (4) x the normal
    /// latency. Cost-only, like every fault knob. 0 disables the model.
    double slow_machine_rate = 0.0;
    /// Hedged lookups: after a timeout of one normal round-trip latency
    /// (the non-straggler quantile of the trip distribution), re-issue
    /// a slow destination's window to the shard's first replica and
    /// take the first response. A hedge against a non-slow replica
    /// completes in 2 x latency instead of the slowdown x; both
    /// trips are charged honestly (kv_hedged_trips, kv_hedge_wins).
    /// Needs replication > 1 to have a replica to hedge to. false =
    /// wait out stragglers, the historical model, bit-identical costs.
    bool hedge_lookups = false;
  };
  FaultConfig faults;
  /// The frontier engine (common/frontier.h): how frontier-shaped cores
  /// (pagerank's walk phases, connectivity/msf, kcore's h-index
  /// peeling) represent and drive their active sets. Every mode runs
  /// the same engine and returns bit-identical values (same discipline
  /// as batch_lookups/query_cache/pipeline_depth); the mode only picks
  /// each frontier round's kind, and so its cost. kSparse — the
  /// default — always pushes the active items through the batched
  /// lookup client. kDense always pulls (Cluster::RunPullPhase:
  /// broadcast the frontier bitmap, sweep local shards — no per-vertex
  /// round trips); kHybrid lets the Beamer-style FrontierPolicy pick
  /// per round with alpha/beta hysteresis.
  struct FrontierConfig {
    /// kSparse — the default — always pushes: no pull rounds.
    FrontierMode mode = FrontierMode::kSparse;
    /// Switch sparse -> dense when frontier out-edges exceed
    /// total_edges / alpha. Inert unless mode is kHybrid; cost-only
    /// there.
    double alpha = FrontierPolicy::kDefaultAlpha;
    /// Switch dense -> sparse when the frontier shrinks below
    /// num_vertices / beta. Inert unless mode is kHybrid; cost-only
    /// there.
    double beta = FrontierPolicy::kDefaultBeta;
  };
  FrontierConfig frontier;
  /// Seed from which all algorithmic randomness is derived. Outputs are
  /// a pure function of (input, seed, config): rerunning any seed
  /// reproduces its outputs bit-identically on any machine.
  uint64_t seed = 42;
  /// Baselines switch to a single-machine in-memory algorithm below this
  /// many arcs (paper: 5e7; default scaled to our dataset sizes).
  int64_t in_memory_threshold_arcs = 2'000'000;
};

class MachineContext;

/// One charged round, the cluster's only per-round record
/// (Cluster::round_footprints()): its phase, its simulated duration
/// (including in-memory compute, recovery and drain time that extended
/// it), and its per-machine KV traffic — kv_read_bytes[m] is what
/// machine m's shard served, kv_write_bytes[m] what landed on it.
/// Rounds without KV traffic carry zeros. Kill recovery reads both
/// columns to size the lost machine's slice of each replayed round.
struct RoundFootprint {
  std::string phase;
  double sim_seconds = 0.0;
  std::vector<int64_t> kv_read_bytes;
  std::vector<int64_t> kv_write_bytes;
};

/// A simulated AMPC cluster: phase executor + metric accountant.
class Cluster {
 public:
  /// Runs the job's host work on `pool`, which the cluster borrows and
  /// must outlive it. Every output and every charge is the same on a
  /// pool of any size; tests pass pools of chosen sizes to check that.
  explicit Cluster(ClusterConfig config,
                   ThreadPool& pool = ThreadPool::Global());

  const ClusterConfig& config() const { return config_; }
  Metrics& metrics() { return metrics_; }
  ThreadPool& pool() { return pool_; }

  /// The cluster's placement for a key space of `capacity` keys: the
  /// single key -> machine assignment shared by MakeStore's records and
  /// the map phases' work items.
  kv::Placement PlacementFor(int64_t capacity) const {
    kv::Placement placement;
    placement.policy = config_.placement_policy;
    placement.num_shards = config_.num_machines;
    placement.seed = config_.seed;
    placement.capacity = capacity;
    placement.replication = config_.faults.replication;
    if (config_.faults.domain_aware_placement &&
        config_.faults.machines_per_domain > 1) {
      placement.machines_per_domain = config_.faults.machines_per_domain;
    }
    return placement;
  }

  /// The machine currently *hosting* base shard `shard`. Identity until
  /// a proactive drain migrates a marked machine's shards to new owners
  /// (DrainMachine); from then on work items and server-side charges of
  /// a migrated shard follow its new host while the base-shard-indexed
  /// slot tables of every live store keep serving unchanged. Mutated
  /// only between rounds, read concurrently by workers.
  int HostOf(int shard) const { return shard_hosts_[shard]; }

  /// The machine that owns key/item `key` in a key space of `capacity`
  /// keys. The machine running item v is the machine whose shard holds
  /// record v of any store made by MakeStore(capacity) — after a drain
  /// migration, that is the shard's new host.
  int MachineOf(uint64_t key, int64_t capacity) const {
    return HostOf(PlacementFor(capacity).ShardOf(key));
  }

  /// Entries each machine's query cache holds (per store, and per
  /// derived-fact cache set minted by MakeMachineCaches), evicted least
  /// recently used first. Cost-only: it moves the hit rate, never a
  /// returned value.
  static constexpr int64_t kQueryCacheCapacity = 1 << 16;

  /// Creates a DHT store for keys [0, capacity) sharded across this
  /// cluster's machines (shard s = machine s). The key assignment is a
  /// pure function of (capacity, machines, seed), so it is computed once
  /// per capacity and shared across the run's stores (algorithms mint a
  /// fresh same-shaped store every round). When query caching is on the
  /// store carries one bounded read-through cache per machine, whose
  /// entries MachineContext stamps with CacheEpoch.
  template <typename V>
  kv::ShardedStore<V> MakeStore(int64_t capacity) const {
    kv::ShardedStore<V> store(ShardMapFor(capacity));
    if (config_.query_cache.enabled) {
      store.EnableQueryCache(kQueryCacheCapacity);
    }
    return store;
  }

  /// Per-machine bounded caches for *derived* per-key facts (mis's
  /// three-valued vertex states, matching's status words), sized by
  /// kQueryCacheCapacity. Disabled config => an empty set, and
  /// algorithms fall back to uncached resolution. A round's code takes
  /// its machine's cache from MachineContext::DerivedCache, which hands
  /// out none in a pull round, so each cache has one user at a time
  /// (kv::QueryCache takes no lock). Callers stamp entries with
  /// MachineContext::CacheEpoch of the store the facts derive from, so
  /// they die with a write to it and with a kill of the machine.
  /// Hit/miss accounting stays with the caller via
  /// MachineContext::CountCacheHit/Miss.
  template <typename V>
  kv::MachineCaches<V> MakeMachineCaches() const {
    if (!config_.query_cache.enabled) return {};
    return kv::MachineCaches<V>(config_.num_machines, kQueryCacheCapacity);
  }

  /// Per-machine byte attribution for sharded-shuffle accounting:
  /// bytes[m] = sum of bytes_of(i) over i in [0, items) with
  /// machine_of(i) == m, computed with one local histogram per chunk
  /// and a single atomic merge per machine. Replaces the serial
  /// per-key hash loops that were an O(items)-per-round single-thread
  /// hot spot in the cost attribution of connectivity/kkt/clustering
  /// and the simulated-AMPC baseline.
  template <typename MachineFn, typename BytesFn>
  std::vector<int64_t> AttributeShardedBytes(int64_t items,
                                             MachineFn&& machine_of,
                                             BytesFn&& bytes_of) {
    std::vector<std::atomic<int64_t>> totals(config_.num_machines);
    for (auto& t : totals) t.store(0, std::memory_order_relaxed);
    ParallelForChunked(pool_, 0, items, 4096, [&](int64_t lo, int64_t hi) {
      std::vector<int64_t> local(config_.num_machines, 0);
      for (int64_t i = lo; i < hi; ++i) local[machine_of(i)] += bytes_of(i);
      for (int m = 0; m < config_.num_machines; ++m) {
        if (local[m] != 0) {
          totals[m].fetch_add(local[m], std::memory_order_relaxed);
        }
      }
    });
    std::vector<int64_t> bytes(config_.num_machines);
    for (int m = 0; m < config_.num_machines; ++m) bytes[m] = totals[m].load();
    return bytes;
  }

  /// Records a shuffle that moved `bytes` through durable storage,
  /// spread evenly over the machines. Counts one costly round.
  /// `wall_seconds` is the real time the caller spent materializing the
  /// shuffle (already measured by the caller).
  void AccountShuffle(const std::string& phase, int64_t bytes,
                      double wall_seconds = 0.0);

  /// Records a shuffle whose bytes land unevenly: per_machine_bytes[m] is
  /// the traffic machine m writes/receives. The round lasts as long as
  /// the hottest machine needs (skewed key distributions cost more than
  /// uniform ones of the same total). Counts one costly round.
  void AccountShardedShuffle(const std::string& phase,
                             const std::vector<int64_t>& per_machine_bytes,
                             double wall_seconds = 0.0);

  /// Records a cheap (map-only) round that is not a shuffle: one spawn
  /// constant of simulated time. `wall_seconds` is the real time the
  /// caller spent running the round (mpc::ParDo measures it; callers
  /// that measure nothing charge a zero "wall:<phase>").
  void AccountMapRound(const std::string& phase, double wall_seconds = 0.0) {
    ChargeRound(phase, config_.round_spawn_sec, wall_seconds);
  }

  /// Records work done by the single-machine in-memory fallback: one
  /// gather shuffle of `bytes` plus `items` sequential item costs.
  void AccountInMemoryFinish(const std::string& phase, int64_t bytes,
                             int64_t items);

  /// Records a single-machine in-memory computation whose input was
  /// already materialized on one machine by a previous shuffle (no
  /// additional gather is charged).
  void AccountInMemoryCompute(const std::string& phase, int64_t items);

  /// Runs `fn(item, ctx)` for every item in [0, n), with items placement-
  /// partitioned onto machines and each machine's share processed by
  /// `threads_per_machine` workers. Charges KV costs accumulated through
  /// the MachineContext plus per-item CPU cost; lookup traffic is charged
  /// to the machine whose shard serves it. Counts one cheap round.
  void RunMapPhase(const std::string& phase, int64_t n,
                   const std::function<void(int64_t, MachineContext&)>& fn);

  /// Slice-level variant for algorithms that batch DHT reads across the
  /// items of a worker: `fn(items, ctx)` receives each worker's whole
  /// share at once (the concatenation over workers covers [0, n) exactly
  /// once, machine-partitioned like RunMapPhase), so an adaptive step
  /// can gather every active item's key and issue one batched lookup
  /// per step (DriveLookupPipelined) instead of one scalar Lookup per
  /// item. Cost accounting is identical to RunMapPhase.
  void RunBatchMapPhase(
      const std::string& phase, int64_t n,
      const std::function<void(std::span<const int64_t>, MachineContext&)>&
          fn);

  /// Frontier-subset variant of RunBatchMapPhase — the sparse
  /// (sliding-queue) view of the frontier engine. Runs `fn` over
  /// exactly the items of `items` (each appearing once, machine-
  /// partitioned by the same placement a capacity-`key_space` store
  /// uses, so item v still runs on the machine owning record v)
  /// instead of all of [0, key_space). Cost accounting is identical to
  /// RunBatchMapPhase over an equal work list.
  void RunBatchMapPhase(
      const std::string& phase, int64_t key_space,
      std::span<const int64_t> items,
      const std::function<void(std::span<const int64_t>, MachineContext&)>&
          fn);

  /// Dense-frontier pull round — the frontier engine's pull mode.
  /// Instead of per-vertex round trips, the round broadcasts the
  /// frontier bitmap (ceil(key_space/8) bytes, one machines-th to each
  /// machine) and every machine resolves its share by sweeping its
  /// *local* shard against the exchanged records. `fn` receives worker
  /// slices exactly like RunBatchMapPhase and reads through the same
  /// client (LookupManyAsync / DriveLookupPipelined); the
  /// round's contexts are in pull mode, so those reads charge bytes
  /// (client NIC receives, owning shard's NIC serves — one aggregate
  /// exchange) and *no* kv_lookup_trips. The settle charges each
  /// machine, per pull step, one broadcast slice plus two round-trip
  /// latencies (scatter + gather of the exchange), with the swept
  /// share of the key space costed at map-item CPU rate; steps advance
  /// in lockstep across machines (max over workers, at least one).
  /// Counts one cheap round; bumps frontier_dense_rounds /
  /// frontier_broadcast_bytes / frontier_exchange_bytes.
  void RunPullPhase(
      const std::string& phase, int64_t key_space,
      const std::function<void(std::span<const int64_t>, MachineContext&)>&
          fn);

  /// Frontier-subset pull round: like RunPullPhase over [0, key_space)
  /// but running `fn` only over the active items (the dense bitmap's
  /// set bits, in index order).
  void RunPullPhase(
      const std::string& phase, int64_t key_space,
      std::span<const int64_t> items,
      const std::function<void(std::span<const int64_t>, MachineContext&)>&
          fn);

  /// Counts a frontier-shaped round that ran in its sparse (push)
  /// representation, in every frontier mode. Rounds that are not
  /// frontier-shaped never count, so runs without a frontier core keep
  /// the metric absent.
  // ampc-lint: allow(metric-zero-guard): called once per frontier-shaped
  // push round; a run with no frontier-shaped phase never reaches it.
  void NoteSparseFrontierRound() { metrics_.Add("frontier_sparse_rounds", 1); }

  /// The frontier decision of one frontier-shaped phase: whether to run
  /// it as a pull round (RunPullPhase) instead of a sparse batch round
  /// (RunBatchMapPhase). A phase is one decision, not one per adaptive
  /// step: a fresh FrontierPolicy judges its starting frontier —
  /// `frontier_size` items with `frontier_edges` out-edges, in a graph
  /// of `num_vertices` vertices and `total_edges` edges. Notes a sparse
  /// round when the policy says push, which kSparse always does.
  bool UsePullPhase(int64_t frontier_size, int64_t frontier_edges,
                    int64_t num_vertices, int64_t total_edges);

  /// Writes records for keys [0, n) into `store` using value = producer(key)
  /// and charges each machine for the writes landing on its shard (the
  /// round lasts as long as the hottest shard needs). Producers run
  /// concurrently. Counts one cheap round.
  template <typename V, typename Producer>
  void RunKvWritePhase(const std::string& phase, kv::ShardedStore<V>& store,
                       int64_t n, Producer producer);

  /// Total simulated seconds accumulated so far.
  double SimSeconds() const { return metrics_.GetTime("sim_total"); }
  double WallSeconds() const { return metrics_.GetTime("wall_total"); }

  /// The sim_seconds column of round_footprints(): the simulated
  /// duration of every round charged so far, in order, one entry per
  /// "rounds" metric increment.
  std::vector<double> round_log() const {
    std::vector<double> seconds;
    seconds.reserve(rounds_.size());
    for (const RoundFootprint& fp : rounds_) seconds.push_back(fp.sim_seconds);
    return seconds;
  }

  /// Every round charged so far, in order (see RoundFootprint). Where
  /// machine_kv_write_bytes() is the cumulative footprint, this is the
  /// phase-resolved history: until a drain moves shards, the write
  /// columns sum to it.
  const std::vector<RoundFootprint>& round_footprints() const {
    return rounds_;
  }

  /// Cumulative KV wire bytes written to each machine's shards across
  /// every RunKvWritePhase so far (including follower copies when
  /// replication > 1 — the machine's resident footprint). Replicated
  /// recovery re-streams it and checkpoints write its delta; a single
  /// store's footprint is kv::ShardedStore::ShardBytesSnapshot.
  const std::vector<int64_t>& machine_kv_write_bytes() const {
    return machine_kv_write_bytes_;
  }

  /// The cluster's position on its simulated clock: the sum of every
  /// round charged so far, including recovery and checkpoint time.
  /// Mirrors the "sim_total" metric; the fault injector advances along
  /// this clock.
  double sim_clock() const { return sim_clock_; }

  /// Kills machine `machine` at the current simulated time, as if the
  /// injector had fired at the very end of the last charged round (the
  /// whole round is the lost in-flight portion). Deterministic and
  /// independent of the injector's schedule — the hook tests use to pin
  /// exact replay-vs-restart arithmetic against round_log().
  void InjectMachineFailure(int machine);

  /// Kills every machine of fault domain `domain` at the current
  /// simulated time — a correlated rack loss, with all members dead
  /// simultaneously, so recovery sees replica wipeouts exactly as an
  /// injected domain kill would. The deterministic hook the
  /// domain-aware-vs-naive placement tests pin against.
  void InjectDomainFailure(int domain);

  /// Proactively drains machine `machine` as if the injector had warned
  /// it: every shard it hosts migrates to its least-loaded live replica
  /// (fresh least-loaded owner at replication 1) at shuffle bandwidth
  /// on the sim clock ("sim:drain", kv_migration_bytes), and the shard
  /// map is hot-swapped so subsequent rounds route the shard's work and
  /// server charges to the new host. Caches are left alone: a drained
  /// machine hosts no shard, so no work item runs on it until its kill
  /// lands and moves its cache epoch. A later kill of a drained machine
  /// costs nothing — that is the whole point of the warning. Idempotent
  /// until the kill lands.
  void DrainMachine(int machine);

  /// Straggler model (ClusterConfig::faults.slow_machine_rate): whether
  /// any destination can be slow this run, and whether `machine` is
  /// slow during the currently accumulating round.
  bool stragglers_enabled() const { return straggler_.enabled(); }
  bool DestinationSlow(int machine) const {
    return straggler_.Slow(static_cast<int64_t>(rounds_.size()), machine);
  }

  /// Hedged lookups (ClusterConfig::faults.hedge_lookups), and the
  /// machine a hedged re-issue of shard `shard`'s window goes to: the
  /// current host of the shard's first follower, or -1 when the shard
  /// has no replica to hedge to.
  bool hedging_enabled() const { return config_.faults.hedge_lookups; }
  int HedgeHostOf(int shard) const {
    return replicas_[shard].size() > 1 ? HostOf(replicas_[shard][1]) : -1;
  }

 private:
  friend class MachineContext;

  // Client-side counts of one map phase, charged to the machine
  // *running* the items: query latency, received record bytes, per-item
  // CPU. Plain integers: each worker fills its own copy (WorkerTally)
  // and the settle folds the copies per machine.
  struct PhaseCounters {
    int64_t kv_queries = 0;
    // Latency-bearing round trips. A scalar Lookup is one trip; a
    // sub-batch is one trip per distinct destination machine (or one
    // per key when batch_lookups is off). This — not kv_queries — is
    // what the settle math multiplies by lookup latency.
    int64_t kv_lookup_trips = 0;
    int64_t kv_batches = 0;
    int64_t kv_read_bytes = 0;
    int64_t items = 0;
    int64_t cache_hits = 0;
    int64_t cache_misses = 0;
    // Peak keys a worker held in flight at once (outstanding
    // LookupManyAsync tickets; max-merged, not summed) — the measured
    // side of the pipeline_depth x max_batch_keys memory trade-off.
    int64_t peak_inflight_keys = 0;
    // Pull-round (RunPullPhase) traffic: exchange bytes the batched
    // client received, and the most pull steps (frontier-bitmap
    // broadcasts) a worker advanced through (max-merged, not summed — a
    // machine's workers share its view of each global step).
    int64_t pull_bytes = 0;
    int64_t pull_steps = 0;
    // Straggler/hedging accounting (integer trip counts, converted to
    // extra latency once at settle — never accumulated as doubles, so
    // the cost model stays bit-deterministic): trips that hit a slow
    // destination this round, the subset re-issued to a replica after
    // the hedge timeout, and the subset the hedge won (replica answered
    // first).
    int64_t kv_slow_trips = 0;
    int64_t kv_hedged_trips = 0;
    int64_t kv_hedge_wins = 0;

    // Sums the counts, max-merges the two watermarks.
    void Absorb(const PhaseCounters& other) {
      kv_queries += other.kv_queries;
      kv_lookup_trips += other.kv_lookup_trips;
      kv_batches += other.kv_batches;
      kv_read_bytes += other.kv_read_bytes;
      items += other.items;
      cache_hits += other.cache_hits;
      cache_misses += other.cache_misses;
      peak_inflight_keys =
          std::max(peak_inflight_keys, other.peak_inflight_keys);
      pull_bytes += other.pull_bytes;
      pull_steps = std::max(pull_steps, other.pull_steps);
      kv_slow_trips += other.kv_slow_trips;
      kv_hedged_trips += other.kv_hedged_trips;
      kv_hedge_wins += other.kv_hedge_wins;
    }
  };

  // One worker slice's accounting. Its MachineContext is the only writer
  // while the slice runs, so no per-key step touches shared memory.
  struct WorkerTally {
    int machine = 0;
    PhaseCounters client;
    // Server side: bytes this worker's reads made each machine's shard
    // ship (indexed by hosting machine) — a NIC serves a record
    // regardless of who asked.
    std::vector<int64_t> served_bytes;
  };

  // Folds the worker tallies per machine, converts them into simulated
  // round time (the slowest machine's client + server + CPU time,
  // floored by the aggregate network ceiling) and records everything in
  // metrics. A pull round (RunPullPhase) adds the pull model's charges
  // on top: a bitmap broadcast sized by `key_space`, exchange latency
  // and the local shard sweep.
  void SettleMapPhase(const std::string& phase,
                      const std::vector<WorkerTally>& tallies,
                      double wall_seconds, int64_t key_space, bool pull);

  // Same for a KV write phase, from per-machine write/byte deltas.
  void SettleKvWritePhase(const std::string& phase,
                          const std::vector<int64_t>& writes,
                          const std::vector<int64_t>& bytes,
                          double wall_seconds);

  // Shared executor behind RunMapPhase/RunBatchMapPhase/RunPullPhase:
  // partitions the work items (all of [0, key_space), or the explicit
  // `items` subset when `explicit_items` is set) onto machines by
  // MachineOf(item, key_space), runs one slice per (machine, worker),
  // each with its own WorkerTally, and settles. A push round runs one
  // host task per machine, which runs that machine's slices in worker
  // order, so the query caches its workers share see a fixed sequence
  // of reads on any host; a pull round, which touches no cache, runs
  // one host task per slice. `pull` puts every context in pull mode and
  // the settle on the pull cost model.
  void RunMapPhaseImpl(
      const std::string& phase, int64_t key_space,
      std::span<const int64_t> items, bool explicit_items,
      const std::function<void(std::span<const int64_t>, MachineContext&)>&
          slice_fn,
      bool pull = false);

  // The one round ledger. RecordRound counts a round of simulated
  // duration `sim`, charges it to "sim:<phase>" and "sim_total", moves
  // the clock — the round occupies [last_round_start_, sim_clock_), the
  // interval the fault injector is advanced across — and appends its
  // record with the per-machine KV traffic it carried (empty vectors =
  // a KV-free round). ChargeRound is the tail of every round a job
  // runs: RecordRound, plus the host time on "wall:<phase>" and
  // "wall_total", plus the churn hook. TakeCheckpoint, which runs
  // inside that hook, records its round without re-entering it.
  void RecordRound(const std::string& phase, double sim,
                   std::vector<int64_t> kv_read_bytes = {},
                   std::vector<int64_t> kv_write_bytes = {});
  void ChargeRound(const std::string& phase, double sim, double wall_seconds,
                   std::vector<int64_t> kv_read_bytes = {},
                   std::vector<int64_t> kv_write_bytes = {});
  // Extends the most recent round by `sim` seconds charged to `timer`
  // and "sim_total" (in-memory compute riding a gather, recovery
  // extending the round the kill interrupted, a drain's migration).
  // Advances the clock unconditionally to stay an exact mirror of
  // "sim_total".
  void ExtendLastRound(const std::string& timer, double sim);
  // The one shuffle formula: a round through durable storage lasts as
  // long as its busiest machine's write, `busiest` seconds, floored at
  // shuffle_min_sec, plus the spawn constant.
  double ShuffleSeconds(double busiest) const {
    return std::max(config_.shuffle_min_sec, busiest) +
           config_.round_spawn_sec;
  }

  // The churn hook every charged round runs once it is recorded
  // (ChargeRound, AccountInMemoryCompute): harvests the injector's kills
  // over the round's interval, recovers each one (replica stream,
  // checkpoint restore + windowed replay, or whole-job replay —
  // whichever the config provides), and takes a periodic checkpoint
  // when one is due. No-op when injection and checkpointing are both
  // off.
  void ProcessFaultsAndCheckpoints();

  // The one kill path, for injected and hooked kills alike: `group` is
  // one machine's kill, or every member of one domain kill (which
  // counts one "domains_lost"), all down at the same instant. Each
  // member is recovered with the whole group marked dead. The caller
  // advances the injector past the recovery.
  void KillGroup(std::span<const FaultEvent> group);

  // Recovers one machine loss and charges it: the recovery extends the
  // interrupted round (charged under the "sim:recovery" phase) and the
  // injector is advanced past the recovery interval afterwards (a
  // freshly scheduled machine does the recovering). `dead` marks every
  // machine down at the same instant (the kill's whole correlated
  // group, or just the machine for an independent kill): replicated
  // recovery streams from a replica only if each hosted shard still has
  // a copy on a live machine — a rack loss that beat the whole
  // ReplicaSet is a replica_wipeout and falls back to checkpoint
  // restore or whole-job replay. Every kill bumps the machine's cache
  // generation, so the replacement starts with cold caches. A drained
  // machine's kill short-circuits to zero cost.
  void RecoverFromKill(const FaultEvent& kill,
                       const std::vector<uint8_t>& dead);

  // Checkpoints every machine's KV-byte delta since the last checkpoint
  // as one costly round.
  void TakeCheckpoint();

  // Machine `machine`'s share of round `round`'s work for replay
  // purposes: its KV traffic over the round's hottest machine's (the
  // round lasts as long as its hottest machine, so a machine that moved
  // a fraction of the straggler's bytes replays that fraction of the
  // round). 1.0 for KV-free rounds — spawn/compute rounds replay whole.
  double ReplaySliceShare(size_t round, int machine) const;

  // The cached key assignment for stores of `capacity` (see MakeStore).
  std::shared_ptr<const kv::ShardMap> ShardMapFor(int64_t capacity) const;

  const ClusterConfig config_;
  Metrics metrics_;
  ThreadPool& pool_;
  // Every charged round, in order (RecordRound/ExtendLastRound).
  std::vector<RoundFootprint> rounds_;
  std::vector<int64_t> machine_kv_write_bytes_;
  // Elasticity state. sim_clock_/last_round_start_ mirror "sim_total"
  // (maintained by RecordRound/ExtendLastRound) so kills land inside
  // the round that was in flight when they fired.
  FaultInjector fault_injector_;
  double sim_clock_ = 0.0;
  double last_round_start_ = 0.0;
  // Proactive-drain state. shard_hosts_[s] is the machine hosting base
  // shard s (identity until a drain migrates it; see HostOf);
  // drained_[m] marks a warned machine whose shards have been migrated
  // away and whose announced kill is still pending (cleared when it
  // lands — the kill then costs nothing); shard_primary_bytes_[s]
  // tracks the primary wire bytes resident on base shard s (the bytes
  // a drain migration must move). All mutated only between rounds.
  std::vector<int> shard_hosts_;
  std::vector<uint8_t> drained_;
  std::vector<int64_t> shard_primary_bytes_;
  // replicas_[s]: the machines holding base shard s, primary first
  // (the placement's replica set; just {s} at replication 1).
  // Replica sets are pure functions of (seed, machines, replication,
  // domain width), so the table is built once with the cluster.
  std::vector<std::vector<int>> replicas_;
  StragglerModel straggler_;
  // Per-machine KV bytes captured by the last checkpoint and the
  // matching clock/round positions.
  std::vector<int64_t> checkpointed_bytes_;
  double last_checkpoint_time_ = 0.0;
  size_t last_checkpoint_round_ = 0;
  // cache_generation_[m] counts machine m's kills: the high half of its
  // MachineContext::CacheEpoch. Bumped only between rounds
  // (RecoverFromKill), read by every machine's task.
  std::vector<uint64_t> cache_generation_;
  mutable std::mutex shard_map_mu_;
  // Bounded LRU of key assignments: same-shaped stores within (and
  // across adjacent) rounds share one map, while contraction-style
  // algorithms minting ever-smaller capacities cannot accumulate an
  // O(capacity) table per round for the cluster's lifetime.
  static constexpr size_t kMaxCachedShardMaps = 16;
  mutable std::unordered_map<int64_t, std::shared_ptr<const kv::ShardMap>>
      shard_maps_;
  mutable std::vector<int64_t> shard_map_recency_;  // back = most recent
};

/// Per-(machine, worker) handle passed to map-phase functions. KV lookups
/// made through the context charge the requesting machine for query
/// latency and the owning machine for the bytes its shard serves. The
/// charges accumulate in the context's own tally, handed to `out` when
/// the context is destroyed; the phase settle folds the tallies. A
/// context of a pull round (`pull_round`, set by Cluster::RunPullPhase)
/// resolves its batched reads as a local shard sweep instead; see
/// LookupManyAsync.
class MachineContext {
 public:
  MachineContext(Cluster* cluster, Cluster::WorkerTally* out, int machine_id,
                 bool pull_round)
      : cluster_(cluster),
        out_(out),
        machine_id_(machine_id),
        pull_round_(pull_round),
        destination_seen_(cluster->config().num_machines, 0),
        pipeline_window_counts_(cluster->config().num_machines, 0) {
    tally_.machine = machine_id;
    tally_.served_bytes.assign(cluster->config().num_machines, 0);
  }

  MachineContext(const MachineContext&) = delete;
  MachineContext& operator=(const MachineContext&) = delete;

  // Settles any trips still deferred behind un-awaited tickets (callers
  // normally drain their tickets; this is the backstop that keeps the
  // cost model complete either way) and hands the tally to the phase.
  ~MachineContext() {
    FlushPipelineTrips();
    *out_ = std::move(tally_);
  }

  int machine_id() const { return machine_id_; }

  /// True when this context uses the machine's query caches, read-through
  /// and derived: caching is enabled for the run and this is a push
  /// round. A push round runs the machine's worker slices in order on
  /// one host task, so each cache, which takes no lock, has one user at
  /// a time. A pull round resolves every read against its step's
  /// exchange and touches no cache, which is what lets its worker slices
  /// run as separate host tasks (see Cluster::RunMapPhaseImpl).
  bool caching_enabled() const {
    return cluster_->config().query_cache.enabled && !pull_round_;
  }

  /// This machine's cache in a derived-fact set minted by
  /// Cluster::MakeMachineCaches, or nullptr when caching_enabled() is
  /// false (caching off, or a pull round). The one way a round's code
  /// reaches a derived cache.
  template <typename V>
  kv::QueryCache<V>* DerivedCache(kv::MachineCaches<V>& caches) const {
    return caching_enabled() ? caches.ForMachine(machine_id_) : nullptr;
  }

  /// The epoch under which this machine's cache entries derived from
  /// `store` are valid: the machine's kill generation in the high 32
  /// bits, `store.version()` in the low 32 (exact: a version never
  /// exceeds the store's capacity, at most 2^32 - 1). A write to the
  /// store or a kill of the machine moves it, so neither a stale record
  /// nor a dead machine's entry is ever served. Capture it *before* the
  /// lookups it stamps: an entry inserted while a write phase
  /// interleaves is then already stale.
  template <typename V>
  uint64_t CacheEpoch(const kv::ShardedStore<V>& store) const {
    return (cluster_->cache_generation_[machine_id_] << 32) |
           store.version();
  }

  /// Sub-batch bound for batched lookups (ClusterConfig::max_batch_keys;
  /// <= 0 = unbounded). DriveLookupPipelined gathers frontier windows of
  /// at most this many keys per sub-batch.
  int64_t max_batch_keys() const { return cluster_->config().max_batch_keys; }

  /// Pipeline depth for asynchronous lookups
  /// (ClusterConfig::pipeline_depth, clamped to >= 1): how many
  /// sub-batch tickets a worker keeps in flight at once, and the
  /// divisor of the serialized-trip charge at pipeline drain.
  int pipeline_depth() const {
    return std::max(1, cluster_->config().pipeline_depth);
  }

  /// Looks up `key` through the lookup pipeline: the machine's
  /// query cache first (a hit is served locally — cache_hits, no trip,
  /// no owner bytes), then the remote shard, charging one round trip to
  /// this machine and the record's wire size to the shard-owning machine
  /// (the server pays for skew). Returns nullptr when the key is absent
  /// (callers must handle this: the store is a remote service, not
  /// library-internal state).
  /// A scalar lookup pays its trip at once and forms no wire batch, in
  /// pull rounds too; a pull round's scalar lookup skips the cache.
  template <typename V>
  const V* Lookup(const kv::ShardedStore<V>& store, uint64_t key) {
    CheckStoreMatchesCluster(store);
    ++tally_.client.kv_queries;
    kv::QueryCache<const V*>* cache =
        caching_enabled() ? store.QueryCacheFor(machine_id_) : nullptr;
    const uint64_t epoch = cache != nullptr ? CacheEpoch(store) : 0;
    const KeyRead<V> read = ResolveKey(store, cache, epoch, key);
    if (read.cache_hit) {
      CountCacheHit();
      return read.value;
    }
    ++tally_.client.kv_lookup_trips;
    NoteTrips(read.shard, 1);
    // A scalar miss momentarily holds one key in flight on top of any
    // open tickets.
    peak_inflight_keys_ = std::max(peak_inflight_keys_, inflight_keys_ + 1);
    if (cache != nullptr) CountCacheMiss();
    return read.value;
  }

  /// Issues one pipelined sub-batch asynchronously: resolves `keys`
  /// (one window, at most max_batch_keys of them — DriveLookupPipelined
  /// enforces the bound) through the cache and batch
  /// coalescing stages immediately, but leaves the sub-batch's
  /// round-trip latency *in flight* until Await settles the returned
  /// ticket. All sub-batches issued between two full drains of the
  /// worker's pipeline (outstanding tickets returning to zero — one
  /// adaptive step under the drivers) overlap: a destination contacted
  /// by w of them is charged ceil(w / pipeline_depth) serialized trips
  /// at the drain, not w. Everything else is charged at issue time
  /// exactly as the synchronous path charges it — cache hits are free,
  /// bytes go to the client and the owning shard's machine, duplicate
  /// keys within the window are fetched once — and the epoch is
  /// captured per issued window, so a write phase settling between two
  /// in-flight windows can never hand the later window a stale cached
  /// value. With batch_lookups == false the scalar client pays one
  /// full trip per miss at issue time and the pipeline overlaps
  /// nothing (pipelining is an optimization of the batched client).
  ///
  /// In a pull round the window resolves as a local sweep against the
  /// step's exchange instead: each distinct key is charged its bytes
  /// once per worker per pull step (a worker's share of the exchange
  /// carries one copy of each record it needs, so its repeats within a
  /// step are free, while two workers that need the same record each
  /// pay for theirs), with no trips, no wire batch, no cache probe and
  /// nothing in flight — the ticket is born settled. The per-step
  /// exchange latency is charged once by the phase settle.
  template <typename V>
  kv::LookupTicket<V> LookupManyAsync(const kv::ShardedStore<V>& store,
                                      std::span<const uint64_t> keys) {
    CheckStoreMatchesCluster(store);
    kv::LookupTicket<V> ticket;
    if (keys.empty()) return ticket;
    ticket.result.values.reserve(keys.size());
    tally_.client.kv_queries += static_cast<int64_t>(keys.size());
    if (pull_round_) {
      for (const uint64_t key : keys) {
        if (!pull_seen_.Insert(key)) {  // already exchanged this step
          ticket.result.values.push_back(LookupLocal(store, key));
          continue;
        }
        const KeyRead<V> read = ResolveKey<V>(store, nullptr, 0, key);
        ticket.result.bytes += read.bytes;
        ticket.result.values.push_back(read.value);
      }
      tally_.client.pull_bytes += ticket.result.bytes;
      return ticket;
    }
    const bool batching = cluster_->config().batch_lookups;
    kv::QueryCache<const V*>* cache =
        caching_enabled() ? store.QueryCacheFor(machine_id_) : nullptr;
    // Epoch captured per sub-batch window, not per multi-window call: in
    // the async model a write phase can settle while earlier windows are
    // still in flight, and entries this window inserts must be stamped
    // against the store as this window saw it.
    const uint64_t epoch = cache != nullptr ? CacheEpoch(store) : 0;
    int sub_destinations = 0;
    int64_t sub_misses = 0, hits = 0;
    for (const uint64_t key : keys) {
      const KeyRead<V> read = ResolveKey(store, cache, epoch, key);
      ticket.result.values.push_back(read.value);
      if (read.cache_hit) {
        ++hits;
        continue;
      }
      if (!destination_seen_[read.shard]) {
        destination_seen_[read.shard] = 1;
        touched_destinations_.push_back(read.shard);
        ++sub_destinations;
      }
      ++sub_misses;
      ticket.result.bytes += read.bytes;
      // The scalar (unbatched) client pays its per-miss trip to this
      // destination now, so its straggler exposure is noted per miss;
      // the batched client's trips settle at pipeline drain instead.
      if (!batching) NoteTrips(read.shard, 1);
    }
    // Reset only the destinations this window touched (the flags array
    // is O(machines); re-zeroing it wholesale made every forced small
    // window cost O(windows x machines)), and roll the window's
    // destinations into the in-flight overlap group.
    for (const int shard : touched_destinations_) {
      destination_seen_[shard] = 0;
      if (batching && pipeline_window_counts_[shard]++ == 0) {
        touched_pipeline_destinations_.push_back(shard);
      }
    }
    touched_destinations_.clear();
    ticket.result.destinations = sub_destinations;
    tally_.client.cache_hits += hits;
    if (cache != nullptr) tally_.client.cache_misses += sub_misses;
    // With batching disabled the client model is scalar: every miss
    // pays a full trip at issue time, no wire batch is formed, and the
    // pipeline has nothing to overlap. A fully cache-served sub-batch
    // likewise forms no wire batch.
    if (!batching) {
      tally_.client.kv_lookup_trips += sub_misses;
    } else if (cache == nullptr || sub_misses > 0) {
      ++tally_.client.kv_batches;
    }
    ticket.keys_in_flight = static_cast<int64_t>(keys.size());
    ticket.settled = false;
    ++outstanding_tickets_;
    inflight_keys_ += ticket.keys_in_flight;
    peak_inflight_keys_ = std::max(peak_inflight_keys_, inflight_keys_);
    return ticket;
  }

  /// Settles a ticket issued by LookupManyAsync and returns its
  /// response, consuming it (the first Await moves the result out; a
  /// repeat Await on the same — or a moved-from — ticket charges
  /// nothing and returns an empty response). When the settle drains the
  /// worker's pipeline (no ticket left outstanding — the end of an
  /// adaptive step), the deferred round-trip latency of the drained
  /// group is charged: ceil(windows / pipeline_depth) trips per
  /// destination contacted. A pull-round ticket is born settled, so
  /// Await just hands back its result.
  template <typename V>
  kv::LookupBatchResult<V> Await(kv::LookupTicket<V>& ticket) {
    if (!ticket.settled) {
      ticket.settled = true;
      inflight_keys_ -= ticket.keys_in_flight;
      ticket.keys_in_flight = 0;
      if (--outstanding_tickets_ == 0) FlushPipelineTrips();
    }
    return std::move(ticket.result);
  }

  /// Marks the start of an adaptive step (DriveLookupPipelined calls it
  /// once per step). In a pull round it opens the next pull step — one
  /// broadcast of the frontier bitmap to every machine: it bumps this
  /// worker's step count (the settle charges the *maximum* over
  /// workers, at least one: machines advance through the global steps
  /// together, each paying one broadcast slice and one exchange per
  /// step) and resets the per-step exchange dedup. A no-op in any other
  /// round.
  void BeginAdaptiveStep() {
    if (!pull_round_) return;
    ++pull_steps_;
    pull_seen_.NextStep();
  }

  /// Reads the machine-local input record for `key` without charging KV
  /// costs. In the dataflow model the ParDo input element (e.g. the
  /// vertex's own adjacency) arrives with the work item; only lookups of
  /// *other* records are remote.
  template <typename V>
  const V* LookupLocal(const kv::ShardedStore<V>& store, uint64_t key) {
    return store.Lookup(key);
  }

  /// Cache accounting. The read-through paths (Lookup, LookupManyAsync)
  /// count their own hits and misses; algorithms caching *derived* facts
  /// in DerivedCache() caches count theirs through these, so
  /// every cache probe at every layer flows into the same two metrics
  /// (Section 5.3).
  void CountCacheHit() { ++tally_.client.cache_hits; }
  void CountCacheMiss() { ++tally_.client.cache_misses; }

 private:
  template <typename V>
  void CheckStoreMatchesCluster(const kv::ShardedStore<V>& store) const {
    AMPC_CHECK_EQ(store.num_shards(), cluster_->config().num_machines)
        << "store sharding disagrees with the cluster (use MakeStore)";
    AMPC_CHECK(store.placement() == cluster_->PlacementFor(store.capacity()))
        << "store placement disagrees with the cluster (use MakeStore)";
  }

  // One key as ResolveKey found it: the record (nullptr = absent),
  // whether the cache answered, and on a miss the owning shard and the
  // wire bytes charged for it.
  template <typename V>
  struct KeyRead {
    const V* value = nullptr;
    bool cache_hit = false;
    int shard = -1;
    int64_t bytes = 0;
  };

  // The per-key resolve shared by Lookup and LookupManyAsync: probes
  // `cache` (nullptr = no cache stage); on a miss reads the store,
  // charges the record's wire bytes to this client and to the machine
  // currently hosting its shard (the shard's new owner after a drain
  // migration), and fills the cache. Trips are the caller's to charge.
  template <typename V>
  KeyRead<V> ResolveKey(const kv::ShardedStore<V>& store,
                        kv::QueryCache<const V*>* cache, uint64_t epoch,
                        uint64_t key) {
    if (cache != nullptr) {
      if (const std::optional<const V*> hit = cache->Get(key, epoch)) {
        return KeyRead<V>{*hit, /*cache_hit=*/true};
      }
    }
    KeyRead<V> read;
    read.shard = store.ShardOf(key);
    read.value = store.LookupInShard(read.shard, key);
    read.bytes = read.value == nullptr
                     ? kv::kKeyBytes
                     : kv::kKeyBytes + kv::KvByteSize(*read.value);
    tally_.client.kv_read_bytes += read.bytes;
    tally_.served_bytes[cluster_->HostOf(read.shard)] += read.bytes;
    if (cache != nullptr) cache->Put(key, epoch, read.value);
    return read;
  }

  // Straggler/hedging bookkeeping for `trips` round trips bound for
  // shard `shard` (sim/faults.h StragglerModel): if the shard's hosting
  // machine is slow this round the trips are noted as slow; with
  // hedging on, each is re-issued to the shard's replica host after the
  // one-latency timeout and counts as hedged, winning when the replica
  // is not itself slow. Pure counter bumps — the settle converts them
  // to extra latency once, so the charge stays bit-deterministic across
  // thread schedules. No-op (one predictable branch) at rate 0.
  void NoteTrips(int shard, int64_t trips) {
    if (!cluster_->stragglers_enabled() || trips == 0) return;
    const int host = cluster_->HostOf(shard);
    if (!cluster_->DestinationSlow(host)) return;
    tally_.client.kv_slow_trips += trips;
    if (!cluster_->hedging_enabled()) return;
    const int hedge = cluster_->HedgeHostOf(shard);
    if (hedge < 0 || hedge == host) return;
    tally_.client.kv_hedged_trips += trips;
    if (!cluster_->DestinationSlow(hedge)) {
      tally_.client.kv_hedge_wins += trips;
    }
  }

  // Charges the deferred round-trip latency of the drained overlap
  // group — every sub-batch issued since the last drain: a destination
  // contacted by w of those windows costs ceil(w / pipeline_depth)
  // serialized trips (depth = 1 degenerates to one trip per window per
  // destination, the lockstep charge). Also records the worker's
  // in-flight-keys and pull-step watermarks in its tally.
  void FlushPipelineTrips() {
    const int64_t depth = static_cast<int64_t>(pipeline_depth());
    int64_t trips = 0;
    for (const int shard : touched_pipeline_destinations_) {
      const int64_t windows = pipeline_window_counts_[shard];
      pipeline_window_counts_[shard] = 0;
      const int64_t shard_trips = (windows + depth - 1) / depth;
      trips += shard_trips;
      NoteTrips(shard, shard_trips);
    }
    touched_pipeline_destinations_.clear();
    tally_.client.kv_lookup_trips += trips;
    tally_.client.peak_inflight_keys = peak_inflight_keys_;
    tally_.client.pull_steps = pull_steps_;
  }

  // The set of keys one worker has exchanged in the current pull step:
  // one bit per key, grown on demand to the largest key read, plus the
  // list of words set in this step. Opening a step zeroes only those
  // words, so a step costs what it touched, never a sweep of the whole
  // bitmap. Pull callers read record ids below the round's key space, so
  // a worker holds at most key_space / 8 bytes.
  class PullStepKeySet {
   public:
    // Empties the set.
    void NextStep() {
      for (const size_t w : touched_words_) words_[w] = 0;
      touched_words_.clear();
    }

    // Adds `key`; false when it is already in the set.
    bool Insert(uint64_t key) {
      const size_t w = static_cast<size_t>(key >> 6);
      if (w >= words_.size()) words_.resize(w + 1, 0);
      const uint64_t bit = uint64_t{1} << (key & 63);
      if ((words_[w] & bit) != 0) return false;
      if (words_[w] == 0) touched_words_.push_back(w);
      words_[w] |= bit;
      return true;
    }

   private:
    std::vector<uint64_t> words_;
    std::vector<size_t> touched_words_;
  };

  Cluster* cluster_;
  Cluster::WorkerTally* out_;
  Cluster::WorkerTally tally_;
  int machine_id_;
  // Set for every context of a Cluster::RunPullPhase round: the batched
  // entry points then resolve as local sweeps (see LookupManyAsync).
  bool pull_round_;
  // Scratch distinct-destination flags for the sub-batch being issued,
  // with the list of flags actually set — resetting only those keeps a
  // window O(keys + touched), not O(machines). Contexts are per worker,
  // so no synchronization is needed on any of the state below.
  std::vector<uint8_t> destination_seen_;
  std::vector<int> touched_destinations_;
  // The in-flight overlap group: how many outstanding-or-settled
  // windows contacted each destination since the pipeline last drained,
  // plus the list of destinations with a nonzero count.
  std::vector<int64_t> pipeline_window_counts_;
  std::vector<int> touched_pipeline_destinations_;
  int64_t outstanding_tickets_ = 0;
  int64_t inflight_keys_ = 0;
  int64_t peak_inflight_keys_ = 0;
  // Pull-mode state (RunPullPhase): keys this worker already exchanged
  // in the current pull step (its repeats are free within a step) and
  // how many steps it has advanced through.
  PullStepKeySet pull_seen_;
  int64_t pull_steps_ = 0;
};

/// Drives a worker's batched state machines with bounded-depth
/// pipelining — the shared scaffold of every RunBatchMapPhase and
/// RunPullPhase algorithm, and the third Section 5.3 client
/// optimization. Each adaptive step gathers the pending key of every
/// unfinished state into frontier windows of at most
/// ClusterConfig::max_batch_keys keys and keeps up to
/// ClusterConfig::pipeline_depth windows in flight at once
/// (LookupManyAsync tickets, settled FIFO): the in-flight windows'
/// round-trip latencies overlap, so a destination contacted by w of a
/// step's windows costs ceil(w / depth) serialized trips instead of w,
/// while a worker holds at most depth x max_batch_keys keys in flight.
/// depth = 1 is strict lockstep, the bit-identical ablation baseline.
/// Inside a pull round every step also opens one pull step
/// (MachineContext::BeginAdaptiveStep — one frontier-bitmap broadcast)
/// and the windows resolve as local sweeps: bytes, no round trips.
/// Callers initialize their states (running them up to their first
/// pending lookup) and harvest results afterwards; `done(state)` says
/// whether a state needs no more lookups, `pending_key(state)` names
/// the key it is waiting on, and `resume(state, value)` consumes the
/// fetched record and advances the state to its next pending lookup or
/// to completion. Values are identical at every depth and in either
/// round kind: windows are resolved and resumed in the same order
/// regardless of how many are in flight.
template <typename V, typename State, typename DoneFn, typename KeyFn,
          typename ResumeFn>
void DriveLookupPipelined(MachineContext& ctx,
                          const kv::ShardedStore<V>& store,
                          std::vector<State>& states, DoneFn&& done,
                          KeyFn&& pending_key, ResumeFn&& resume) {
  std::vector<size_t> active;
  active.reserve(states.size());
  for (size_t i = 0; i < states.size(); ++i) {
    if (!done(states[i])) active.push_back(i);
  }
  const int64_t max_keys = ctx.max_batch_keys();
  const size_t window = max_keys > 0 ? static_cast<size_t>(max_keys)
                                     : std::max<size_t>(1, active.size());
  const size_t depth = static_cast<size_t>(ctx.pipeline_depth());
  // One in-flight frontier window: the sub-batch ticket plus the slice
  // of `active` it answers. Windows settle in issue (FIFO) order, so
  // the compaction cursor `out` below never overtakes an unsettled
  // window's slice.
  struct InflightWindow {
    kv::LookupTicket<V> ticket;
    size_t begin;
    size_t end;
  };
  std::deque<InflightWindow> inflight;
  std::vector<uint64_t> keys;
  keys.reserve(std::min(window, active.size()));
  while (!active.empty()) {
    ctx.BeginAdaptiveStep();
    size_t out = 0;
    const auto settle_oldest = [&] {
      InflightWindow w = std::move(inflight.front());
      inflight.pop_front();
      const kv::LookupBatchResult<V> batch = ctx.Await(w.ticket);
      for (size_t j = w.begin; j < w.end; ++j) {
        State& state = states[active[j]];
        resume(state, batch.values[j - w.begin]);
        if (!done(state)) active[out++] = active[j];
      }
    };
    for (size_t begin = 0; begin < active.size(); begin += window) {
      const size_t end = std::min(active.size(), begin + window);
      if (inflight.size() == depth) settle_oldest();
      keys.clear();
      for (size_t j = begin; j < end; ++j) {
        keys.push_back(pending_key(states[active[j]]));
      }
      inflight.push_back(InflightWindow{
          ctx.LookupManyAsync(store, std::span<const uint64_t>(keys)),
          begin, end});
    }
    // Drain the step: the pending keys of the next step depend on every
    // resume of this one, and the drain is what closes the overlap
    // group the cost model charges.
    while (!inflight.empty()) settle_oldest();
    active.resize(out);
  }
}

template <typename V, typename Producer>
void Cluster::RunKvWritePhase(const std::string& phase,
                              kv::ShardedStore<V>& store, int64_t n,
                              Producer producer) {
  AMPC_CHECK_EQ(store.num_shards(), config_.num_machines)
      << "store must be sharded per machine (create it with MakeStore)";
  WallTimer timer;
  // Stores are write-once but may take several write phases (one per key
  // range), so charge the per-shard *delta* of this phase.
  std::vector<int64_t> bytes_before = store.ShardBytesSnapshot();
  std::vector<int64_t> writes_before(config_.num_machines);
  for (int m = 0; m < config_.num_machines; ++m) {
    writes_before[m] = store.ShardSize(m);
  }
  // One batch per chunk: the chunk's records are published, then counted
  // once per shard (kv::ShardedStore::PutRange).
  ParallelForChunked(pool_, 0, n, 1024, [&](int64_t lo, int64_t hi) {
    store.PutRange(static_cast<uint64_t>(lo), static_cast<uint64_t>(hi),
                   [&](uint64_t key) {
                     return producer(static_cast<int64_t>(key));
                   });
  });
  const double wall = timer.Seconds();
  std::vector<int64_t> bytes(config_.num_machines);
  std::vector<int64_t> writes(config_.num_machines);
  for (int m = 0; m < config_.num_machines; ++m) {
    bytes[m] = store.ShardBytes(m) - bytes_before[m];
    writes[m] = store.ShardSize(m) - writes_before[m];
  }
  SettleKvWritePhase(phase, writes, bytes, wall);
}

}  // namespace ampc::sim
