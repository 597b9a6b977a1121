// The fault model of the shared-data-center setting of Section 5.1:
// "batch jobs are typically run at low priorities (i.e., using resources
// that are currently not used by high priority jobs), which makes them
// susceptible to preemptions. [...] This is why systems like MapReduce,
// Hadoop or Flume-C++ have strong fault tolerance properties and write
// the results of each computation round to durable storage."
//
// Machine loss is an injected event. FaultInjector draws seeded,
// deterministic Poisson streams on the simulated clock: one per machine
// (independent kills) and one per rack-level fault domain (correlated
// kills that take every member machine at once), optionally announced
// by an advance warning. sim::Cluster consumes the events mid-job
// (ClusterConfig::faults): it drains a warned machine before its kill
// lands, and recovers every other kill by re-routing the dead machine's
// shards to surviving replicas (kv::ReplicaSet) or restoring its last
// checkpoint, then replaying only its slice of the lost rounds. With
// neither replicas nor checkpoints the whole job replays, the in-memory
// baseline of Section 5.7 that per-round recovery must beat
// (bench/micro_churn gates this at every non-zero kill rate). Recovery
// is a cost event, never a correctness event: outputs under injected
// churn are bit-identical to a fault-free run
// (tests/sharding_determinism_test.cc). The recomputation-bound framing
// follows Behnezhad et al. (Near-Optimal Massively Parallel Graph
// Connectivity) and Andoni et al. (Log Diameter Rounds): a lost round
// costs a bounded replay, never a full restart.
//
// StragglerModel is the fault model's slow-machine half: a seeded
// per-round draw that makes a destination's lookups slower, charged
// through the cost model only.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/random.h"

namespace ampc::sim {

/// One injected fault-stream event on the cluster's sim clock.
///
///   * A *kill* (warning == false): machine `machine` is preempted at
///     absolute simulated time `time`. `domain >= 0` marks it part of a
///     correlated domain loss — every machine of that rack-level fault
///     domain dies at the same instant, and the events of one domain
///     kill share (time, domain).
///   * A *warning* (warning == true): advance notice, emitted
///     `warning_lead_sec` ahead of the kill it announces (same machine,
///     same domain). The cluster reacts by draining the machine —
///     migrating its shards away — so the kill, when it lands, loses
///     nothing.
struct FaultEvent {
  double time = 0.0;
  int machine = 0;
  int domain = -1;
  bool warning = false;
};

/// A seeded, deterministic source of injected machine failures. Each
/// stream is an independent exponential arrival process: one per machine
/// (rate `rate_per_machine_sec`, killing that machine) and one per fault
/// domain (rate `domain_fault_rate_sec`, killing every member at the
/// same instant). The cluster advances the injector along its simulated
/// clock, harvesting the events that landed inside each round. A killed
/// machine is immediately replaced (the scheduler re-runs the task on a
/// fresh machine, the standard shared-cell behaviour), so the machine
/// count and placement never change — what is lost is the dead
/// machine's shard contents, caches, and in-flight slice, which
/// sim::Cluster recovers and charges for.
///
/// Determinism: each stream's arrivals are a pure function of (seed,
/// stream kind, machine or domain index), independent of round shapes
/// and of each other, so a fixed config yields one fixed kill schedule
/// regardless of thread schedules — the property the churn determinism
/// tests rely on.
class FaultInjector {
 public:
  /// Full injector shape: independent per-machine kills, correlated
  /// rack-level domain kills, and advance warnings.
  struct Config {
    /// Independent Poisson kill rate per machine-second. 0 disables the
    /// per-machine streams.
    double rate_per_machine_sec = 0.0;
    int machines = 1;
    uint64_t seed = 42;
    /// Rack-level fault-domain topology: machine m belongs to domain
    /// m / machines_per_domain. <= 1 makes every machine its own
    /// domain, so each domain stream kills one machine.
    int machines_per_domain = 0;
    /// Poisson rate per domain-second of correlated domain kills: one
    /// arrival takes out *every* machine of the domain at the same
    /// instant (a rack/switch loss). 0 disables the domain streams.
    double domain_fault_rate_sec = 0.0;
    /// Seconds of advance notice before each kill. > 0 makes every
    /// kill (machine or domain) emit a warning event `warning_lead_sec`
    /// earlier; 0 means kills arrive unannounced.
    double warning_lead_sec = 0.0;
  };

  /// Disabled injector (rate 0): AdvanceTo never yields events.
  FaultInjector() = default;

  explicit FaultInjector(const Config& config);

  bool enabled() const { return !streams_.empty(); }
  double now() const { return now_; }

  /// The events in (now(), t], sorted by time (warnings before kills at
  /// a tie, then domain, then machine id), advancing the clock to `t`.
  /// A machine killed twice within the interval appears twice: it
  /// respawned after the first kill and the replacement was preempted
  /// again. With warning_lead_sec > 0, the warning of a kill landing in
  /// (t, t + lead] is emitted *this* call (its warning time is <= t)
  /// even though the kill itself is still pending — that is the whole
  /// point of a warning — and each pending kill is warned exactly once.
  /// A domain kill yields one warning and one kill per member machine,
  /// all sharing (time, domain).
  std::vector<FaultEvent> AdvanceTo(double t);

  /// Advances the clock to `t` treating (now(), t] as failure-free —
  /// used for recovery and checkpoint intervals, which run on freshly
  /// scheduled machines. Arrivals that would have landed inside the
  /// skipped interval are redrawn from `t` (exponentials are
  /// memoryless, so this stays distributionally exact and
  /// deterministic). Exception: an arrival whose *warning* already
  /// fired is committed — it is never redrawn, so every warning is
  /// followed by exactly one kill even when drain or recovery time
  /// pushes the clock past it.
  void SkipTo(double t);

 private:
  // One arrival stream. A kill at `next_arrival` takes machines
  // [lo, hi) at once and reports `domain` (-1 for a machine stream).
  struct Stream {
    Rng rng;
    double rate = 0.0;
    int domain = -1;
    int lo = 0;
    int hi = 0;
    double next_arrival = 0.0;
    // Whether the current next arrival has been announced (reset when
    // it fires or is redrawn).
    bool warned = false;

    double NextGap() { return -std::log(1.0 - rng.NextDouble()) / rate; }
  };

  double now_ = 0.0;
  double warning_lead_ = 0.0;
  // The machine streams, then the domain streams. AdvanceTo sorts what
  // they yield, so the event order does not depend on this order.
  std::vector<Stream> streams_;
};

/// A seeded model of per-round stragglers: in any given round, each
/// destination machine is independently "slow" with probability
/// `slow_rate` — its lookup round trips take `slowdown` times the
/// normal latency (a GC pause, a noisy neighbour, a flaky NIC; the
/// tail that dominates max-over-machines round time in Behnezhad et
/// al.'s connectivity work). Pure function of (seed, round, machine):
/// deterministic across thread schedules, independent of everything
/// the job does, and value-neutral — sim::Cluster charges the slowdown
/// through the cost model only. slow_rate 0 reproduces the historical
/// cost model bit-identically.
struct StragglerModel {
  double slow_rate = 0.0;
  double slowdown = 4.0;
  uint64_t seed = 0;

  bool enabled() const { return slow_rate > 0.0; }

  /// Whether `machine` is slow during round index `round`.
  bool Slow(int64_t round, int machine) const {
    if (slow_rate <= 0.0) return false;
    const uint64_t h =
        Hash64(HashCombine(static_cast<uint64_t>(round),
                           static_cast<uint64_t>(machine)),
               seed ^ 0x736c6f776d63ULL);
    return ToUnitDouble(h) < slow_rate;
  }
};

}  // namespace ampc::sim
