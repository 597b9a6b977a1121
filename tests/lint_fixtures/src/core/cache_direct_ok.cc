// Fixture: the same caches taken through the round's MachineContext.
#include "kv/query_cache.h"
#include "sim/cluster.h"

int64_t CacheFromTheRound(sim::Cluster& cluster,
                          kv::ShardedStore<int64_t>& store,
                          sim::MachineContext& ctx) {
  kv::MachineCaches<uint8_t> caches = cluster.MakeMachineCaches<uint8_t>();
  kv::QueryCache<uint8_t>* derived = ctx.DerivedCache(caches);
  const int64_t* record = ctx.Lookup(store, 1);
  return derived->size() + *record;
}
