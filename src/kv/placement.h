// Placement policies and batched-lookup types for the simulated DHT.
//
// The paper's DHT hides its ~2.5us RDMA round-trip by batching and
// pipelining adaptive queries (Section 5.3): a client gathers the keys an
// adaptive step needs, groups them by owning machine, and ships one
// request per destination instead of one per key. Two pieces of that
// pipeline live here:
//
//   * Placement — the key -> machine assignment, pluggable behind the
//     hash baseline (kv::ShardForKey). Range and affinity variants let
//     the simulator study placement policies (ROADMAP): range keeps the
//     key space contiguous per machine, affinity keeps fixed-size blocks
//     of consecutive keys together so pointer chains over nearby ids hit
//     fewer destinations per batch.
//   * LookupBatchResult / LookupTicket — the response of a batched
//     read and its in-flight handle. The response carries the per-batch
//     accounting the cost model charges (total wire bytes, distinct
//     destinations).
//   * ReplicaSet — the replication side of placement: with a
//     replication factor R, each shard's records also live on R - 1
//     *follower* machines (distinct from the primary), so a machine
//     lost to preemption can be rebuilt by streaming its shard from a
//     surviving follower instead of replaying the job
//     (sim::ClusterConfig::faults).
//
// Both kv::ShardedStore and sim::Cluster::MachineOf place through the
// same Placement, so the machine running work item v is still the
// machine whose shard holds record v under every policy.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/random.h"

namespace ampc::kv {

/// The shard (= logical machine) owning `key` under `seed` for the hash
/// baseline. Kept as a free function: it is the default placement and
/// the one the paper's implementation uses.
inline int ShardForKey(uint64_t key, uint64_t seed, int num_shards) {
  return static_cast<int>(Hash64(key, seed ^ 0x6d61636821ULL) %
                          static_cast<uint64_t>(num_shards));
}

/// How keys map to machines.
enum class PlacementPolicy {
  /// Seeded hash of the key (the paper's DHT; load-balanced, oblivious).
  kHash,
  /// Contiguous key ranges: shard = key * num_shards / capacity. Best
  /// locality for id-ordered scans, worst exposure to id-correlated
  /// hot spots.
  kRange,
  /// Hash of the key's block (key / block_size): consecutive keys stay
  /// together, blocks scatter like the hash baseline.
  kAffinity,
};

inline const char* PlacementPolicyName(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kHash:
      return "hash";
    case PlacementPolicy::kRange:
      return "range";
    case PlacementPolicy::kAffinity:
      return "affinity";
  }
  return "?";
}

/// Rack-level fault domain of a machine: machines [d * per, (d+1) * per)
/// share switch and power, so a correlated failure takes them out
/// together. per <= 1 means every machine is its own domain (the
/// domain-oblivious historical model).
inline int FaultDomainOf(int machine, int machines_per_domain) {
  return machines_per_domain > 1 ? machine / machines_per_domain : machine;
}

/// The machines holding copies of one shard: `machines[0]` is the
/// primary (the Placement's ShardOf), `machines[1..R-1]` the followers,
/// all distinct. A pure value type minted by Placement::ReplicasOfShard.
struct ReplicaSet {
  std::vector<int> machines;

  int primary() const { return machines.empty() ? 0 : machines[0]; }
  int replication() const { return static_cast<int>(machines.size()); }

  /// Whether the copies cover as many distinct fault domains as they
  /// possibly can — min(copies, number of domains) — so no single rack
  /// loss wipes every replica while a spare domain existed. This is the
  /// invariant domain-aware placement guarantees; domain-oblivious
  /// placement can violate it whenever machines_per_domain > 1.
  bool SpansDomains(int machines_per_domain, int num_machines) const {
    const int per = std::max(1, machines_per_domain);
    const int num_domains = (num_machines + per - 1) / per;
    std::vector<uint8_t> seen(num_domains, 0);
    int distinct = 0;
    for (const int m : machines) {
      const int d = FaultDomainOf(m, machines_per_domain);
      if (d >= 0 && d < num_domains && !seen[d]) {
        seen[d] = 1;
        ++distinct;
      }
    }
    return distinct >= std::min(replication(), num_domains);
  }
};

/// A concrete key -> machine assignment: policy plus the parameters it
/// needs. A pure value type shared by kv::ShardedStore (record placement)
/// and sim::Cluster (work placement).
struct Placement {
  PlacementPolicy policy = PlacementPolicy::kHash;
  int num_shards = 1;
  uint64_t seed = 0;
  /// Size of the key space; required by kRange (ignored otherwise).
  int64_t capacity = 0;
  /// Consecutive keys per block under kAffinity.
  int64_t affinity_block = 32;
  /// Copies of every record: 1 = primary only (the historical model),
  /// R > 1 = primary plus R - 1 followers on distinct machines
  /// (clamped to num_shards). Replication never moves the primary —
  /// ShardOf and all cost charging are unchanged — it only adds the
  /// follower copies ReplicasOfShard describes, so R = 1 is
  /// bit-identical to the pre-replication placement.
  int replication = 1;
  /// Rack-level fault-domain width for *replica* placement: > 1 makes
  /// ReplicasOfShard prefer followers in fault domains the shard's
  /// earlier copies do not already occupy (see FaultDomainOf), so a
  /// single rack loss can never take out a whole ReplicaSet while a
  /// spare domain exists. 0 (or 1) is the domain-oblivious historical
  /// walk, bit-identical to the pre-domain placement; ShardOf — and
  /// with it every primary and all cost charging — is unaffected
  /// either way.
  int machines_per_domain = 0;

  int ShardOf(uint64_t key) const {
    switch (policy) {
      case PlacementPolicy::kHash:
        return ShardForKey(key, seed, num_shards);
      case PlacementPolicy::kRange: {
        AMPC_CHECK_GT(capacity, 0)
            << "range placement needs the key-space capacity";
        // Clamp: cost-attribution callers may probe keys past the key
        // space (e.g. missing-key lookups); charge them to the last
        // range owner rather than indexing out of bounds.
        const uint64_t k =
            key < static_cast<uint64_t>(capacity)
                ? key
                : static_cast<uint64_t>(capacity) - 1;
        return static_cast<int>(
            k * static_cast<uint64_t>(num_shards) /
            static_cast<uint64_t>(capacity));
      }
      case PlacementPolicy::kAffinity:
        AMPC_CHECK_GT(affinity_block, 0);
        return ShardForKey(key / static_cast<uint64_t>(affinity_block),
                           seed, num_shards);
    }
    return 0;
  }

  /// Effective copies per record (replication clamped to the machine
  /// count: with P machines there are at most P distinct homes).
  int EffectiveReplication() const {
    return std::max(1, std::min(replication, num_shards));
  }

  /// The machines holding shard `s`: the primary followed by
  /// EffectiveReplication() - 1 followers. Followers are placed by
  /// chained declustering — follower j of shard s is machine
  /// (s + stride * j) mod P with a seeded stride coprime-by-probing —
  /// so each machine's shard scatters its copies across distinct
  /// survivors and a single machine loss never takes out every copy.
  /// With machines_per_domain > 1 the probe additionally skips machines
  /// whose fault domain already holds a copy, for as long as an unused
  /// domain remains — the ReplicaSet::SpansDomains invariant — then
  /// relaxes to machine-distinctness once every domain is covered.
  /// Deterministic in (seed, num_shards, replication,
  /// machines_per_domain) alone: the set is stable across rounds, which
  /// is what lets a follower serve as a recovery source for every store
  /// the cluster ever minted.
  ReplicaSet ReplicasOfShard(int s) const {
    const int copies = EffectiveReplication();
    ReplicaSet set;
    set.machines.reserve(copies);
    set.machines.push_back(s);
    if (copies > 1) {
      // A stride sharing a factor with P would revisit machines before
      // covering `copies` distinct ones; probing forward from the
      // seeded start finds the nearest stride that covers.
      uint64_t stride =
          1 + Hash64(static_cast<uint64_t>(s), seed ^ 0x7265706c69636aULL) %
                  static_cast<uint64_t>(num_shards - 1);
      std::vector<uint8_t> taken(num_shards, 0);
      taken[s] = 1;
      // Domain-aware mode: track which fault domains already hold a
      // copy. While fewer domains are used than exist, a follower in a
      // used domain is rejected the same way a taken machine is — every
      // machine of an unused domain is untaken, so the probe always
      // terminates.
      const int per = std::max(1, machines_per_domain);
      const int num_domains = (num_shards + per - 1) / per;
      std::vector<uint8_t> domain_used;
      int domains_used = 0;
      if (per > 1) {
        domain_used.assign(num_domains, 0);
        domain_used[FaultDomainOf(s, per)] = 1;
        domains_used = 1;
      }
      int follower = s;
      for (int j = 1; j < copies; ++j) {
        follower = static_cast<int>(
            (static_cast<uint64_t>(follower) + stride) %
            static_cast<uint64_t>(num_shards));
        const bool want_new_domain =
            !domain_used.empty() && domains_used < num_domains;
        while (taken[follower] ||
               (want_new_domain && domain_used[FaultDomainOf(follower, per)])) {
          follower = (follower + 1) % num_shards;
        }
        taken[follower] = 1;
        if (!domain_used.empty()) {
          const int d = FaultDomainOf(follower, per);
          if (!domain_used[d]) {
            domain_used[d] = 1;
            ++domains_used;
          }
        }
        set.machines.push_back(follower);
      }
    }
    return set;
  }

  friend bool operator==(const Placement& a, const Placement& b) {
    if (a.policy != b.policy || a.num_shards != b.num_shards ||
        a.seed != b.seed || a.replication != b.replication) {
      return false;
    }
    // machines_per_domain only shapes follower choice, which only
    // exists with real replication.
    if (a.EffectiveReplication() > 1 &&
        a.machines_per_domain != b.machines_per_domain) {
      return false;
    }
    if (a.policy == PlacementPolicy::kRange && a.capacity != b.capacity) {
      return false;
    }
    if (a.policy == PlacementPolicy::kAffinity &&
        a.affinity_block != b.affinity_block) {
      return false;
    }
    return true;
  }
};

/// The response of a batched DHT read, aligned with its keys.
/// `values[i]` is the record for `keys[i]` (nullptr when absent);
/// `bytes` and `destinations` are the accounting the cost model charges
/// (total wire bytes moved, distinct owning machines contacted).
template <typename V>
struct LookupBatchResult {
  std::vector<const V*> values;
  int64_t bytes = 0;
  int destinations = 0;
};

/// One in-flight pipelined sub-batch: the handle returned by
/// sim::MachineContext::LookupManyAsync and settled by Await. The
/// simulator resolves the values eagerly at issue time (the ticket
/// carries them), but the *cost model* treats the sub-batch as in
/// flight until Await: its round-trip latency overlaps with the other
/// tickets the worker holds open (up to ClusterConfig::pipeline_depth
/// are charged concurrently), and its keys count toward the worker's
/// in-flight memory watermark (kv_peak_inflight_keys) until settled.
template <typename V>
struct LookupTicket {
  /// Move-only: Await decrements the issuing context's outstanding
  /// count exactly once per ticket, so a copy that could also be
  /// awaited would corrupt the pipeline accounting. Moving transfers
  /// the in-flight obligation; the moved-from ticket is left settled
  /// and empty.
  LookupTicket() = default;
  LookupTicket(LookupTicket&& other) noexcept { *this = std::move(other); }
  LookupTicket& operator=(LookupTicket&& other) noexcept {
    result = std::move(other.result);
    keys_in_flight = other.keys_in_flight;
    settled = other.settled;
    other.keys_in_flight = 0;
    other.settled = true;
    return *this;
  }
  LookupTicket(const LookupTicket&) = delete;
  LookupTicket& operator=(const LookupTicket&) = delete;

  /// The resolved response, populated at issue time. The first Await
  /// consumes it (moves it out); a repeat Await charges nothing and
  /// returns an empty response.
  LookupBatchResult<V> result;
  /// Keys this ticket holds in flight — request plus response footprint
  /// — until Await settles it.
  int64_t keys_in_flight = 0;
  /// False while the ticket is outstanding. An empty issue starts
  /// settled.
  bool settled = true;
};

}  // namespace ampc::kv
