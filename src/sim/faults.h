// Preemption modeling for the shared-data-center setting of Section 5.1:
// "batch jobs are typically run at low priorities (i.e., using resources
// that are currently not used by high priority jobs), which makes them
// susceptible to preemptions. [...] This is why systems like MapReduce,
// Hadoop or Flume-C++ have strong fault tolerance properties and write
// the results of each computation round to durable storage."
//
// Preemptions arrive as a Poisson process with rate `rate_per_machine_sec`
// on each of `machines` machines. Two execution disciplines:
//
//   * kFaultTolerant (Flume-style): round outputs persist, so a
//     preemption only restarts the *current round*. Expected time of a
//     round of length t under full-round restarts is the classic renewal
//     quantity (e^{Λt} − 1) / Λ with Λ = machines × rate.
//   * kInMemory: nothing persists; any preemption restarts the whole
//     job, giving (e^{ΛT} − 1) / Λ for total length T.
//
// This quantifies the Section 5.7 positioning of AMPC as "an interesting
// middle-ground between systems that communicate through persistent
// storage [...] and systems that run fully in memory, which deliver
// better performance at the cost of not tolerating preemptions well".
// An analytic model and a Monte-Carlo simulator are both provided; tests
// verify they agree.
//
// Two complementary views of the same risk live here:
//
//   * The *analytic* model above (ExpectedCompletionSeconds and friends)
//     prices preemption risk in closed form over a measured round trace
//     — nothing fails, the formulas integrate over every possible kill.
//   * The *injected* model (FaultInjector) makes machine loss an actual
//     event: a seeded, deterministic Poisson process per machine whose
//     arrivals sim::Cluster consumes mid-job to kill machines, re-route
//     their shards to surviving replicas (kv::ReplicaSet), restore from
//     the last checkpoint, and replay only the lost machine's slice of
//     the in-flight phase (ClusterConfig::faults). Recovery is a cost
//     event, never a correctness event: outputs under injected churn
//     are bit-identical to a fault-free run, which
//     tests/sharding_determinism_test.cc pins and bench/micro_churn
//     sweeps. The recomputation-bound framing follows Behnezhad et al.
//     (Near-Optimal Massively Parallel Graph Connectivity) and Andoni
//     et al. (Log Diameter Rounds): a lost round costs a bounded
//     replay, never a full restart — unless neither replicas nor
//     checkpoints exist, which is exactly the whole-job-restart
//     baseline the bench must beat.
#pragma once

#include <cstdint>
#include <vector>

#include "common/random.h"

namespace ampc::sim {

enum class RecoveryDiscipline {
  kFaultTolerant,  // per-round restart from durable storage
  kInMemory,       // whole-job restart
};

struct PreemptionModel {
  /// Poisson preemption rate per machine-second (e.g. 1/3600 = each
  /// machine is preempted about once an hour).
  double rate_per_machine_sec = 0.0;
  /// Machines participating in every round.
  int machines = 1;
};

/// Expected completion seconds of a job whose rounds take
/// `round_seconds` (e.g. Cluster::round_log()) under `model`.
double ExpectedCompletionSeconds(const std::vector<double>& round_seconds,
                                 const PreemptionModel& model,
                                 RecoveryDiscipline discipline);

/// Heterogeneous variant: per_machine_rates[m] is machine m's Poisson
/// preemption rate. Superposing independent Poisson processes gives a
/// job-wide rate of sum(rates), so any restart formula below applies
/// unchanged; machines with hot DHT shards raise the whole job's risk.
double ExpectedCompletionSeconds(const std::vector<double>& round_seconds,
                                 const std::vector<double>& per_machine_rates,
                                 RecoveryDiscipline discipline);

/// Derives per-machine preemption rates from per-machine memory
/// footprints — the memory-pressure signal of the sharded DHT. Machine
/// m's KV bytes (e.g. Cluster::machine_kv_write_bytes() or a store's
/// ShardBytesSnapshot()) are compared against `soft_limit_bytes`; a
/// machine within its budget keeps the base rate, and one exceeding it
/// becomes increasingly likely to be OOM-killed or evicted:
///
///   rate_m = base * (1 + overshoot_penalty * max(0, bytes_m/limit - 1))
///
/// With uniform shards nothing changes; a skewed key distribution makes
/// the hot machine dominate the job's preemption risk.
std::vector<double> MemoryPressureRates(
    const PreemptionModel& base, const std::vector<int64_t>& machine_bytes,
    int64_t soft_limit_bytes, double overshoot_penalty = 4.0);

/// Round-by-round memory-pressure replay under the fault-tolerant
/// (per-round restart) discipline. Where ExpectedCompletionSeconds with
/// MemoryPressureRates judges every round by the job's *final* footprint,
/// this replays the footprint as it grows: round r's preemption rates
/// derive from the cumulative per-machine KV bytes after rounds 0..r
/// (each round's own traffic is already resident while it runs), so
/// early rounds run at the base rate and only the rounds after a shard
/// fills up pay the elevated risk. Both inputs are columns of the
/// cluster's one round log, sim::Cluster::round_footprints():
/// `round_seconds` is Cluster::round_log(), and
/// `round_machine_kv_bytes[r][m]`, the KV bytes machine m's shard
/// absorbed in round r, is Cluster::RoundKvWriteBytes().
double ReplayMemoryPressureSeconds(
    const std::vector<double>& round_seconds,
    const std::vector<std::vector<int64_t>>& round_machine_kv_bytes,
    const PreemptionModel& base, int64_t soft_limit_bytes,
    double overshoot_penalty = 4.0);

struct PreemptionTrialStats {
  double mean_seconds = 0;
  double max_seconds = 0;
  /// Mean preemptions (= restarts) per trial.
  double mean_preemptions = 0;
};

/// Monte-Carlo validation of the analytic model: runs `trials`
/// executions with exponential preemption inter-arrivals.
PreemptionTrialStats SimulatePreemptions(
    const std::vector<double>& round_seconds, const PreemptionModel& model,
    RecoveryDiscipline discipline, int trials, uint64_t seed);

/// Heterogeneous Monte-Carlo variant: per_machine_rates[m] is machine
/// m's Poisson rate. Superposing independent Poisson processes yields a
/// Poisson process with the summed rate, so this validates the
/// per-machine-rate ExpectedCompletionSeconds overload the same way the
/// homogeneous simulator validates the uniform one.
PreemptionTrialStats SimulatePreemptions(
    const std::vector<double>& round_seconds,
    const std::vector<double>& per_machine_rates,
    RecoveryDiscipline discipline, int trials, uint64_t seed);

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

/// A seeded, deterministic source of injected machine failures: each
/// machine carries an independent exponential arrival stream (rate
/// `rate_per_machine_sec`), and the cluster advances the injector along
/// its simulated clock, harvesting the kills that landed inside each
/// round. A killed machine is immediately replaced (the scheduler
/// re-runs the task on a fresh machine, the standard shared-cell
/// behaviour), so the machine count and placement never change — what
/// is lost is the dead machine's shard contents, caches, and in-flight
/// slice, which sim::Cluster recovers and charges for.
///
/// Determinism: the arrival streams are pure functions of
/// (seed, machine), independent of round shapes and of each other, so a
/// fixed (rate, seed, machines) triple yields one fixed kill schedule
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
    /// m / machines_per_domain. <= 1 means every machine is its own
    /// domain and the correlated streams are off.
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

  bool enabled() const {
    return (rate_ > 0.0 && !next_arrival_.empty()) ||
           (domain_rate_ > 0.0 && !domain_next_arrival_.empty());
  }
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
  double NextGap(int machine);
  double NextDomainGap(int domain);

  double rate_ = 0.0;
  double now_ = 0.0;
  std::vector<double> next_arrival_;
  std::vector<Rng> rng_;
  // Correlated domain-kill streams: one exponential arrival stream per
  // fault domain, seeded by (domain, seed) alone — like the machine
  // streams, a pure function of the seed, independent of round shapes.
  double domain_rate_ = 0.0;
  int machines_per_domain_ = 0;
  int machines_ = 0;
  std::vector<double> domain_next_arrival_;
  std::vector<Rng> domain_rng_;
  // Advance-warning state: whether the *current* next arrival of each
  // stream has already been announced (reset when the arrival fires or
  // is redrawn).
  double warning_lead_ = 0.0;
  std::vector<uint8_t> machine_warned_;
  std::vector<uint8_t> domain_warned_;
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
