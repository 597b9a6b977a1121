// Fixture: a machine's query caches taken directly in src/core/,
// unsuppressed: once from a derived-fact set, once from a store.
#include "kv/query_cache.h"
#include "sim/cluster.h"

int64_t CacheBehindTheScheduler(sim::Cluster& cluster,
                                kv::ShardedStore<int64_t>& store,
                                sim::MachineContext& ctx) {
  auto caches = cluster.MakeMachineCaches<uint8_t>();
  kv::QueryCache<uint8_t>* derived = caches.ForMachine(ctx.machine_id());
  auto* read_through = store.QueryCacheFor(ctx.machine_id());
  return derived->size() + read_through->size();
}
