#include "baselines/ampc_simulation.h"

#include <algorithm>
#include <mutex>
#include <span>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/priorities.h"

namespace ampc::baselines {
namespace {

using graph::Graph;
using graph::NodeId;

// Per-(step, machine) byte profile of the lockstep query rounds:
// bytes[step][m] is the traffic machine m's DHT shard serves at that
// sequential lookup depth.
using StepBytes = std::vector<std::vector<int64_t>>;

// The uncached Yoshida-et-al. query process from `root`: v is in the MIS
// iff none of its preceding (lower-rank) neighbors is. Every descent
// fetches the child's directed adjacency — in this MPC simulation that is
// one synchronized lookup round. Appends the record bytes of the fetch at
// each sequential step index into `bytes_at_step`, charged to the machine
// owning the fetched record's shard.
bool QueryProcess(NodeId root, const core::RankedRows& directed,
                  const sim::Cluster& cluster, StepBytes& bytes_at_step,
                  int64_t* steps_out) {
  struct Frame {
    NodeId v;
    size_t idx = 0;
    bool awaiting = false;
  };
  std::vector<Frame> stack;
  stack.push_back(Frame{root});
  int64_t steps = 0;
  bool last = false;

  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.awaiting) {
      f.awaiting = false;
      if (last) {
        // A preceding neighbor joined the MIS: f.v does not.
        stack.pop_back();
        last = false;
        continue;
      }
      ++f.idx;
    }
    const std::span<const NodeId> adj = directed.Row(f.v);
    if (f.idx >= adj.size()) {
      // All preceding neighbors are out: f.v joins the MIS.
      stack.pop_back();
      last = true;
      continue;
    }
    // Descend into the next preceding neighbor. The fetch of its
    // directed adjacency is one sequential lookup round.
    const NodeId u = adj[f.idx];
    if (static_cast<size_t>(steps) >= bytes_at_step.size()) {
      bytes_at_step.resize(
          steps + 1,
          std::vector<int64_t>(cluster.config().num_machines, 0));
    }
    bytes_at_step[steps][cluster.MachineOf(u, directed.num_rows())] +=
        static_cast<int64_t>(sizeof(NodeId) * (1 + directed.Row(u).size()));
    ++steps;
    f.awaiting = true;
    stack.push_back(Frame{u});
  }
  *steps_out = steps;
  return last;
}

}  // namespace

SimulatedAmpcMisResult MpcSimulatedAmpcMis(sim::Cluster& cluster,
                                           const Graph& g, uint64_t seed) {
  const int64_t n = g.num_nodes();

  // DirectGraph shuffle, exactly as in the AMPC implementation (Fig. 1
  // step 1): keep lower-rank neighbors, sorted ascending by rank — the
  // same staged rows AmpcMis writes to its store.
  WallTimer timer;
  const int num_machines = cluster.config().num_machines;
  const core::RankedRows directed =
      core::PrecedingNeighborRows(cluster.pool(), g, seed);
  // Each directed adjacency record lands on its vertex's shard owner.
  const std::vector<int64_t> direct_bytes = cluster.AttributeShardedBytes(
      n, [&](int64_t v) { return cluster.MachineOf(v, n); },
      [&](int64_t v) {
        return static_cast<int64_t>(sizeof(NodeId) *
                                    (1 + directed.Row(v).size()));
      });
  cluster.AccountShardedShuffle("DirectGraph", direct_bytes, timer.Seconds());

  // Run every vertex's query process and profile its sequential lookup
  // chain. The executions are independent, so they run concurrently
  // here; the *accounting* below serializes them into lockstep rounds.
  SimulatedAmpcMisResult result;
  result.in_mis.assign(n, 0);
  StepBytes bytes_at_step;
  std::mutex mu;
  WallTimer run_timer;
  ParallelForChunked(
      cluster.pool(), 0, n, 256, [&](int64_t lo, int64_t hi) {
        StepBytes local_bytes;
        std::vector<std::pair<int64_t, uint8_t>> local_status;
        int64_t local_queries = 0;
        for (int64_t v = lo; v < hi; ++v) {
          int64_t steps = 0;
          const bool in = QueryProcess(static_cast<NodeId>(v), directed,
                                       cluster, local_bytes, &steps);
          local_status.emplace_back(v, in ? 1 : 0);
          local_queries += steps;
        }
        std::lock_guard<std::mutex> lock(mu);
        if (bytes_at_step.size() < local_bytes.size()) {
          bytes_at_step.resize(local_bytes.size(),
                               std::vector<int64_t>(num_machines, 0));
        }
        for (size_t i = 0; i < local_bytes.size(); ++i) {
          for (int m = 0; m < num_machines; ++m) {
            bytes_at_step[i][m] += local_bytes[i][m];
          }
        }
        for (const auto& [v, in] : local_status) result.in_mis[v] = in;
        result.total_queries += local_queries;
      });
  const double run_wall = run_timer.Seconds();

  // Lockstep accounting: round r ships every vertex's r-th lookup as a
  // request/response join — one shuffle carrying the records fetched at
  // that step. Rounds continue until the deepest chain finishes.
  result.rounds = static_cast<int64_t>(bytes_at_step.size());
  for (size_t r = 0; r < bytes_at_step.size(); ++r) {
    cluster.AccountShardedShuffle(
        "QueryRound", bytes_at_step[r],
        run_wall / std::max<size_t>(1, bytes_at_step.size()));
  }
  return result;
}

}  // namespace ampc::baselines
