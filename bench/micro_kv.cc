// micro_kv — sharded-DHT throughput, shard balance, and skew sensitivity.
//
// The paper's AMPC performance story is per machine (Table 4, Fig. 8,
// §5.7): each logical machine holds one shard of the DHT, and the round
// lasts as long as its hottest machine. This bench measures
//
//   1. concurrent write throughput into kv::ShardedStore across thread
//      counts (each writer owns one contiguous key range, and every
//      range spreads over all shards), two ways: each writer's range as
//      one PutRange, the batch path of Cluster::RunKvWritePhase, and as
//      lone Puts, the per-call reference. A lone Put is a one-record
//      PutRange: it bumps its shard's record and byte counters and the
//      store-wide version, cache lines every writer shares, which a
//      PutRange bumps once per batch. So the Put column does not scale
//      with writers,
//   2. shard balance of the placement hash (max/mean bytes per shard),
//   3. skew sensitivity of the cluster cost model: simulated write and
//      lookup round times for a uniform workload vs a 90/10-style skewed
//      one (hot machine's shard receives ~90% of the bytes; hot key
//      serves every lookup) of the same total volume,
//
// prints a table, and writes the measurements to BENCH_kv.json
// (overwritten per run; CI uploads it as an artifact so skew sensitivity
// is tracked across PRs).
//
//   AMPC_BENCH_SCALE   scales the key count (default 1.0 => 1M keys)
//   AMPC_KV_REPS       repetitions per timing, best-of (default 3)
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "kv/sharded_store.h"
#include "sim/cluster.h"

namespace {

using ampc::ThreadPool;
using ampc::WallTimer;
using ampc::kv::ShardedStore;

constexpr int kMachines = 8;
constexpr uint64_t kSeed = 42;

// Concurrent write of n int64 records with `threads` writers, writer t
// over keys [n*t/threads, n*(t+1)/threads): one PutRange per writer when
// `batched`, else one Put per key. A shard's local slots follow key
// order, so contiguous ranges keep neighbouring slots, which share cache
// lines, with one writer.
double TimePuts(int64_t n, int threads, bool batched) {
  ShardedStore<int64_t> store(n, kMachines, kSeed);
  WallTimer timer;
  std::vector<std::thread> writers;
  writers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    writers.emplace_back([&store, t, n, threads, batched] {
      const int64_t lo = n * t / threads, hi = n * (t + 1) / threads;
      if (batched) {
        store.PutRange(lo, hi,
                       [](uint64_t k) { return static_cast<int64_t>(k); });
      } else {
        for (int64_t k = lo; k < hi; ++k) store.Put(k, k);
      }
    });
  }
  for (auto& t : writers) t.join();
  const double sec = timer.Seconds();
  if (store.size() != n) std::abort();
  return sec;
}

struct SkewResult {
  double uniform_write_sim_sec = 0;
  double skewed_write_sim_sec = 0;
  double uniform_read_sim_sec = 0;
  double skewed_read_sim_sec = 0;
};

// Simulated round times for uniform vs skewed workloads of equal total
// byte volume, through the cluster's skew-aware cost model.
SkewResult MeasureSkewSensitivity(int64_t n) {
  SkewResult result;
  // Write skew and read skew are measured independently: the skewed
  // write run concentrates payload bytes on one shard, while the skewed
  // read run hammers one hot key of a *uniform* store (so the byte skew
  // comes from the access pattern, not the record sizes).
  auto run = [&](bool skewed_write, bool skewed_read, double* write_sim,
                 double* read_sim) {
    ampc::sim::ClusterConfig config;
    config.num_machines = kMachines;
    // Strip the fixed per-round spawn constant: this measurement tracks
    // the data-dependent (skew-sensitive) component of the round time.
    config.round_spawn_sec = 0.0;
    // Caching off: this bench isolates the raw skew penalty of the cost
    // model — a query cache would absorb the hot-key read storm (that
    // rescue is measured by bench/micro_cache instead).
    config.query_cache.enabled = false;
    ampc::sim::Cluster cluster(config);
    // ~90% of the payload bytes land on machine 0's shard in the skewed
    // configuration; totals match the uniform configuration.
    int64_t hot_keys = 0;
    for (int64_t k = 0; k < n; ++k) hot_keys += cluster.MachineOf(k, n) == 0;
    const int64_t uniform_len = 256;
    const int64_t total = uniform_len * n;
    const int64_t hot_len = total * 9 / (10 * std::max<int64_t>(1, hot_keys));
    const int64_t cold_len =
        (total - hot_len * hot_keys) / std::max<int64_t>(1, n - hot_keys);
    auto store = cluster.MakeStore<std::vector<uint8_t>>(n);
    cluster.RunKvWritePhase("write", store, n, [&](int64_t k) {
      int64_t len = uniform_len;
      if (skewed_write) {
        len = cluster.MachineOf(k, n) == 0 ? hot_len : cold_len;
      }
      return std::vector<uint8_t>(static_cast<size_t>(len), 1);
    });
    cluster.RunMapPhase(
        "read", n, [&](int64_t item, ampc::sim::MachineContext& ctx) {
          // Skewed reads hammer one hot key; uniform reads spread out.
          ctx.Lookup(store, skewed_read ? 0 : static_cast<uint64_t>(item));
        });
    *write_sim = cluster.metrics().GetTime("sim:write");
    *read_sim = cluster.metrics().GetTime("sim:read");
  };
  double unused;
  run(false, false, &result.uniform_write_sim_sec,
      &result.uniform_read_sim_sec);
  run(true, false, &result.skewed_write_sim_sec, &unused);
  run(false, true, &unused, &result.skewed_read_sim_sec);
  return result;
}

}  // namespace

int main() {
  const int64_t n =
      static_cast<int64_t>(1'000'000 * ampc::bench::BenchScale());
  const int reps = ampc::bench::Reps("AMPC_KV_REPS");
  const int hw = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));

  std::printf("micro_kv: %lld keys, %d shards, %d hardware threads, "
              "best of %d reps\n",
              static_cast<long long>(n), kMachines, hw, reps);

  // 1. Write throughput.
  std::vector<int> thread_counts = {1, 2, 4, 8};
  if (std::find(thread_counts.begin(), thread_counts.end(), hw) ==
      thread_counts.end()) {
    thread_counts.push_back(hw);
    std::sort(thread_counts.begin(), thread_counts.end());
  }
  struct Row {
    int threads;
    double range_sec;  // one PutRange per writer
    double put_sec;    // one Put per key
  };
  std::vector<Row> rows;
  for (int threads : thread_counts) {
    const auto best_of = [&](bool batched) {
      return ampc::bench::BestOf(
          reps, [&] { return TimePuts(n, threads, batched); });
    };
    rows.push_back({threads, best_of(true), best_of(false)});
  }
  ampc::bench::PrintHeader(
      "micro_kv: concurrent write throughput",
      {"threads", "PutRange sec", "Mkeys/s", "speedup", "Put sec", "Mkeys/s",
       "speedup"});
  for (const Row& row : rows) {
    ampc::bench::PrintRow(
        {ampc::bench::FmtInt(row.threads),
         ampc::bench::FmtDouble(row.range_sec, 4),
         ampc::bench::FmtDouble(n / row.range_sec / 1e6),
         ampc::bench::FmtDouble(rows.front().range_sec / row.range_sec) + "x",
         ampc::bench::FmtDouble(row.put_sec, 4),
         ampc::bench::FmtDouble(n / row.put_sec / 1e6),
         ampc::bench::FmtDouble(rows.front().put_sec / row.put_sec) + "x"});
  }

  // 2. Shard balance of the placement hash.
  ShardedStore<int64_t> balance_store(n, kMachines, kSeed);
  for (int64_t k = 0; k < n; ++k) balance_store.Put(k, k);
  int64_t max_shard_bytes = 0, total_shard_bytes = 0;
  for (int s = 0; s < kMachines; ++s) {
    max_shard_bytes = std::max(max_shard_bytes, balance_store.ShardBytes(s));
    total_shard_bytes += balance_store.ShardBytes(s);
  }
  const double max_over_mean =
      static_cast<double>(max_shard_bytes) * kMachines / total_shard_bytes;
  std::printf("\nshard balance: max/mean bytes = %.4f (1.0 = perfect)\n",
              max_over_mean);

  // 3. Skew sensitivity of the simulated cost model.
  const int64_t skew_n = std::max<int64_t>(1000, n / 16);
  const SkewResult skew = MeasureSkewSensitivity(skew_n);
  ampc::bench::PrintHeader(
      "micro_kv: skew sensitivity (simulated round seconds)",
      {"workload", "write sim", "read sim"});
  ampc::bench::PrintRow({"uniform",
                         ampc::bench::FmtDouble(skew.uniform_write_sim_sec, 6),
                         ampc::bench::FmtDouble(skew.uniform_read_sim_sec, 6)});
  ampc::bench::PrintRow({"90/10 skew",
                         ampc::bench::FmtDouble(skew.skewed_write_sim_sec, 6),
                         ampc::bench::FmtDouble(skew.skewed_read_sim_sec, 6)});
  const double write_ratio =
      skew.skewed_write_sim_sec / skew.uniform_write_sim_sec;
  const double read_ratio =
      skew.skewed_read_sim_sec / skew.uniform_read_sim_sec;
  ampc::bench::PrintPaperNote(
      "per-machine accounting makes hot shards the round's straggler "
      "(§5.7); skewed/uniform sim ratios above must exceed 1");
  if (write_ratio <= 1.0 || read_ratio <= 1.0) {
    std::fprintf(stderr,
                 "FATAL: skewed workload not costlier than uniform "
                 "(write %.3f, read %.3f)\n",
                 write_ratio, read_ratio);
    return 1;
  }

  FILE* out = std::fopen("BENCH_kv.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_kv.json\n");
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"micro_kv\",\n"
               "  \"num_keys\": %lld,\n"
               "  \"shards\": %d,\n"
               "  \"hardware_concurrency\": %d,\n"
               "  \"reps\": %d,\n"
               "  \"shard_balance_max_over_mean\": %.6f,\n"
               "  \"put\": [\n",
               static_cast<long long>(n), kMachines, hw, reps,
               max_over_mean);
  // sec/mkeys_per_sec/speedup time lone Puts; range_* time PutRange.
  for (size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(out,
                 "    {\"threads\": %d, \"sec\": %.6f, "
                 "\"mkeys_per_sec\": %.3f, \"speedup\": %.3f, "
                 "\"range_sec\": %.6f, \"range_mkeys_per_sec\": %.3f, "
                 "\"range_speedup\": %.3f}%s\n",
                 rows[i].threads, rows[i].put_sec, n / rows[i].put_sec / 1e6,
                 rows.front().put_sec / rows[i].put_sec, rows[i].range_sec,
                 n / rows[i].range_sec / 1e6,
                 rows.front().range_sec / rows[i].range_sec,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n"
               "  \"skew\": {\n"
               "    \"num_keys\": %lld,\n"
               "    \"uniform_write_sim_sec\": %.9f,\n"
               "    \"skewed_write_sim_sec\": %.9f,\n"
               "    \"write_skew_ratio\": %.4f,\n"
               "    \"uniform_read_sim_sec\": %.9f,\n"
               "    \"skewed_read_sim_sec\": %.9f,\n"
               "    \"read_skew_ratio\": %.4f\n"
               "  }\n"
               "}\n",
               static_cast<long long>(skew_n), skew.uniform_write_sim_sec,
               skew.skewed_write_sim_sec, write_ratio,
               skew.uniform_read_sim_sec, skew.skewed_read_sim_sec,
               read_ratio);
  std::fclose(out);
  std::printf("wrote BENCH_kv.json\n");
  return 0;
}
