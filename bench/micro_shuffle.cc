// micro_shuffle — serial vs parallel shuffle-engine throughput.
//
// The paper's evaluation revolves around shuffle cost (Table 3, Fig. 3):
// a credible MPC baseline needs a shuffle that scales with cores. This
// bench times the seed's serial GroupByKey (single-threaded std::sort +
// scan) against the sharded engine in mpc/dataflow.h and the ParallelSort
// primitive across thread counts, prints a table, and writes the
// measurements to BENCH_shuffle.json (overwritten per run; CI uploads it
// as an artifact so shuffle throughput is tracked across PRs). Before
// timing each thread count it checks what it times: the engine's groups
// (keys and value order) and ParallelSort's output must equal the
// serial references, or the bench exits 1.
//
//   AMPC_BENCH_SCALE     scales the record count (default 1.0 => 1M)
//   AMPC_SHUFFLE_REPS    repetitions per timing, best-of (default 3)
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/parallel.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "mpc/dataflow.h"

namespace {

using ampc::Rng;
using ampc::ThreadPool;
using ampc::WallTimer;
using ampc::mpc::GroupByKeyEngine;
using ampc::mpc::KV;
using ampc::mpc::PCollection;

using Record = KV<uint64_t, uint64_t>;
using Groups = PCollection<KV<uint64_t, std::vector<uint64_t>>>;

// Groups records already sorted by key: one serial scan.
Groups GroupSorted(const PCollection<Record>& records) {
  Groups out;
  for (size_t i = 0; i < records.size();) {
    size_t j = i;
    std::vector<uint64_t> values;
    while (j < records.size() && records[j].first == records[i].first) {
      values.push_back(records[j].second);
      ++j;
    }
    out.emplace_back(records[i].first, std::move(values));
    i = j;
  }
  return out;
}

// The seed repository's shuffle: one std::sort plus a serial scan. Kept
// as the baseline the sharded engine is measured against.
Groups SerialGroupByKey(PCollection<Record> records) {
  std::sort(records.begin(), records.end(),
            [](const Record& a, const Record& b) {
              return a.first < b.first;
            });
  return GroupSorted(records);
}

}  // namespace

int main() {
  const int64_t n =
      static_cast<int64_t>(1'000'000 * ampc::bench::BenchScale());
  const uint64_t distinct_keys = std::max<int64_t>(1, n / 16);
  const int reps = ampc::bench::Reps("AMPC_SHUFFLE_REPS");
  const int hw = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));

  Rng rng(0x5eed);
  PCollection<Record> records(n);
  for (int64_t i = 0; i < n; ++i) {
    records[i] = {rng.NextBelow(distinct_keys), static_cast<uint64_t>(i)};
  }

  std::printf("micro_shuffle: %lld records, %llu distinct keys, "
              "%d hardware threads, best of %d reps\n",
              static_cast<long long>(n),
              static_cast<unsigned long long>(distinct_keys), hw, reps);

  const double serial_group_sec = ampc::bench::BestOf(reps, [&] {
    auto copy = records;
    WallTimer timer;
    Groups groups = SerialGroupByKey(std::move(copy));
    const double sec = timer.Seconds();
    if (groups.empty()) std::abort();
    return sec;
  });
  const double serial_sort_sec = ampc::bench::BestOf(reps, [&] {
    auto copy = records;
    WallTimer timer;
    std::sort(copy.begin(), copy.end());
    return timer.Seconds();
  });

  // References for the checks. A record's value is its input index, so
  // std::sort over whole records keeps each key's values in input
  // order, the order GroupByKeyEngine promises.
  PCollection<Record> sorted = records;
  std::sort(sorted.begin(), sorted.end());
  const Groups reference = GroupSorted(sorted);

  std::vector<int> thread_counts = {1, 2, 4, 8};
  if (std::find(thread_counts.begin(), thread_counts.end(), hw) ==
      thread_counts.end()) {
    thread_counts.push_back(hw);
    std::sort(thread_counts.begin(), thread_counts.end());
  }

  struct Row {
    int threads;
    double group_sec;
    double sort_sec;
  };
  std::vector<Row> rows;
  for (int threads : thread_counts) {
    ThreadPool pool(threads);
    if (GroupByKeyEngine(pool, records) != reference) {
      std::fprintf(stderr,
                   "FATAL: %d-thread GroupByKeyEngine differs from the "
                   "serial groups\n",
                   threads);
      return 1;
    }
    PCollection<Record> parallel_sorted = records;
    ampc::ParallelSort(pool, parallel_sorted);
    if (parallel_sorted != sorted) {
      std::fprintf(stderr,
                   "FATAL: %d-thread ParallelSort differs from std::sort\n",
                   threads);
      return 1;
    }
    const double group_sec = ampc::bench::BestOf(reps, [&] {
      auto copy = records;
      WallTimer timer;
      Groups groups = GroupByKeyEngine(pool, std::move(copy));
      return timer.Seconds();
    });
    const double sort_sec = ampc::bench::BestOf(reps, [&] {
      auto copy = records;
      WallTimer timer;
      ampc::ParallelSort(pool, copy);
      return timer.Seconds();
    });
    rows.push_back({threads, group_sec, sort_sec});
  }

  ampc::bench::PrintHeader(
      "micro_shuffle (serial GroupByKey = " +
          ampc::bench::FmtDouble(serial_group_sec * 1e3) + " ms)",
      {"threads", "GroupByKey ms", "speedup", "ParallelSort ms", "speedup"});
  for (const Row& row : rows) {
    ampc::bench::PrintRow(
        {ampc::bench::FmtInt(row.threads),
         ampc::bench::FmtDouble(row.group_sec * 1e3),
         ampc::bench::FmtDouble(serial_group_sec / row.group_sec) + "x",
         ampc::bench::FmtDouble(row.sort_sec * 1e3),
         ampc::bench::FmtDouble(serial_sort_sec / row.sort_sec) + "x"});
  }
  ampc::bench::PrintPaperNote(
      "shuffle dominates MPC cost (Table 3 / Fig. 3); the sharded engine "
      "must scale with cores for the MPC baselines to be fair");

  FILE* out = std::fopen("BENCH_shuffle.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_shuffle.json\n");
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"micro_shuffle\",\n"
               "  \"num_records\": %lld,\n"
               "  \"distinct_keys\": %llu,\n"
               "  \"hardware_concurrency\": %d,\n"
               "  \"reps\": %d,\n"
               "  \"serial_group_by_key_sec\": %.6f,\n"
               "  \"serial_sort_sec\": %.6f,\n"
               "  \"parallel\": [\n",
               static_cast<long long>(n),
               static_cast<unsigned long long>(distinct_keys), hw, reps,
               serial_group_sec, serial_sort_sec);
  for (size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(out,
                 "    {\"threads\": %d, \"group_by_key_sec\": %.6f, "
                 "\"group_speedup\": %.3f, \"parallel_sort_sec\": %.6f, "
                 "\"sort_speedup\": %.3f}%s\n",
                 rows[i].threads, rows[i].group_sec,
                 serial_group_sec / rows[i].group_sec, rows[i].sort_sec,
                 serial_sort_sec / rows[i].sort_sec,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote BENCH_shuffle.json\n");
  return 0;
}
