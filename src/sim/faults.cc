#include "sim/faults.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/random.h"

namespace ampc::sim {
namespace {

// Expected time to complete a unit of work of length `t` when any
// preemption during the attempt restarts it: (e^{lambda t} - 1) / lambda.
// The lambda -> 0 limit is t; expm1 keeps the small-rate case accurate.
double RestartRenewalTime(double t, double lambda) {
  if (lambda <= 0.0) return t;
  return std::expm1(lambda * t) / lambda;
}

double CompletionWithLambda(const std::vector<double>& round_seconds,
                            double lambda, RecoveryDiscipline discipline) {
  switch (discipline) {
    case RecoveryDiscipline::kFaultTolerant: {
      double total = 0.0;
      for (const double t : round_seconds) {
        total += RestartRenewalTime(t, lambda);
      }
      return total;
    }
    case RecoveryDiscipline::kInMemory: {
      double job = 0.0;
      for (const double t : round_seconds) job += t;
      return RestartRenewalTime(job, lambda);
    }
  }
  return 0.0;
}

}  // namespace

double ExpectedCompletionSeconds(const std::vector<double>& round_seconds,
                                 const std::vector<double>& per_machine_rates,
                                 RecoveryDiscipline discipline) {
  AMPC_CHECK_GE(per_machine_rates.size(), 1u);
  double lambda = 0.0;
  for (const double rate : per_machine_rates) {
    AMPC_CHECK_GE(rate, 0.0);
    lambda += rate;
  }
  return CompletionWithLambda(round_seconds, lambda, discipline);
}

double ExpectedCompletionSeconds(const std::vector<double>& round_seconds,
                                 const PreemptionModel& model,
                                 RecoveryDiscipline discipline) {
  AMPC_CHECK_GE(model.rate_per_machine_sec, 0.0);
  AMPC_CHECK_GE(model.machines, 1);
  // A homogeneous cluster is the per-machine-rate model with every rate
  // equal; delegating keeps one restart-formula code path for both
  // overloads.
  return ExpectedCompletionSeconds(
      round_seconds,
      std::vector<double>(model.machines, model.rate_per_machine_sec),
      discipline);
}

std::vector<double> MemoryPressureRates(
    const PreemptionModel& base, const std::vector<int64_t>& machine_bytes,
    int64_t soft_limit_bytes, double overshoot_penalty) {
  AMPC_CHECK_GE(base.rate_per_machine_sec, 0.0);
  AMPC_CHECK_GT(soft_limit_bytes, 0);
  AMPC_CHECK_GE(overshoot_penalty, 0.0);
  std::vector<double> rates(machine_bytes.size());
  for (size_t m = 0; m < machine_bytes.size(); ++m) {
    const double utilization = static_cast<double>(machine_bytes[m]) /
                               static_cast<double>(soft_limit_bytes);
    const double overshoot = std::max(0.0, utilization - 1.0);
    rates[m] =
        base.rate_per_machine_sec * (1.0 + overshoot_penalty * overshoot);
  }
  return rates;
}

double ReplayMemoryPressureSeconds(
    const std::vector<double>& round_seconds,
    const std::vector<std::vector<int64_t>>& round_machine_kv_bytes,
    const PreemptionModel& base, int64_t soft_limit_bytes,
    double overshoot_penalty) {
  AMPC_CHECK_EQ(round_seconds.size(), round_machine_kv_bytes.size())
      << "footprint history must align with the round log";
  std::vector<int64_t> cumulative;
  double total = 0.0;
  for (size_t r = 0; r < round_seconds.size(); ++r) {
    const std::vector<int64_t>& delta = round_machine_kv_bytes[r];
    if (cumulative.empty()) cumulative.assign(delta.size(), 0);
    AMPC_CHECK_EQ(cumulative.size(), delta.size());
    for (size_t m = 0; m < delta.size(); ++m) cumulative[m] += delta[m];
    const std::vector<double> rates = MemoryPressureRates(
        base, cumulative, soft_limit_bytes, overshoot_penalty);
    double lambda = 0.0;
    for (const double rate : rates) lambda += rate;
    total += RestartRenewalTime(round_seconds[r], lambda);
  }
  return total;
}

namespace {

// Shared Monte-Carlo core: both SimulatePreemptions overloads reduce to
// a single job-wide Poisson rate (superposition of the per-machine
// processes), so the trial loop is written once against that rate.
PreemptionTrialStats SimulateWithLambda(
    const std::vector<double>& round_seconds, double lambda,
    RecoveryDiscipline discipline, int trials, uint64_t seed) {
  AMPC_CHECK_GT(trials, 0);
  PreemptionTrialStats stats;

  for (int trial = 0; trial < trials; ++trial) {
    Rng rng(Hash64(trial, seed ^ 0x707265656d7074ULL));
    auto next_gap = [&]() {
      // Exponential inter-arrival; infinite when preemptions are off.
      if (lambda <= 0.0) return std::numeric_limits<double>::infinity();
      return -std::log(1.0 - rng.NextDouble()) / lambda;
    };

    double elapsed = 0.0;
    int64_t preemptions = 0;
    if (discipline == RecoveryDiscipline::kFaultTolerant) {
      for (const double t : round_seconds) {
        for (;;) {
          const double gap = next_gap();
          if (gap >= t) {
            elapsed += t;
            break;
          }
          elapsed += gap;  // work lost, round restarts
          ++preemptions;
        }
      }
    } else {
      double job = 0.0;
      for (const double t : round_seconds) job += t;
      for (;;) {
        const double gap = next_gap();
        if (gap >= job) {
          elapsed += job;
          break;
        }
        elapsed += gap;
        ++preemptions;
      }
    }
    stats.mean_seconds += elapsed;
    stats.max_seconds = std::max(stats.max_seconds, elapsed);
    stats.mean_preemptions += static_cast<double>(preemptions);
  }
  stats.mean_seconds /= trials;
  stats.mean_preemptions /= trials;
  return stats;
}

}  // namespace

PreemptionTrialStats SimulatePreemptions(
    const std::vector<double>& round_seconds, const PreemptionModel& model,
    RecoveryDiscipline discipline, int trials, uint64_t seed) {
  AMPC_CHECK_GE(model.rate_per_machine_sec, 0.0);
  AMPC_CHECK_GE(model.machines, 1);
  return SimulateWithLambda(
      round_seconds,
      model.rate_per_machine_sec * static_cast<double>(model.machines),
      discipline, trials, seed);
}

PreemptionTrialStats SimulatePreemptions(
    const std::vector<double>& round_seconds,
    const std::vector<double>& per_machine_rates,
    RecoveryDiscipline discipline, int trials, uint64_t seed) {
  AMPC_CHECK_GE(per_machine_rates.size(), 1u);
  double lambda = 0.0;
  for (const double rate : per_machine_rates) {
    AMPC_CHECK_GE(rate, 0.0);
    lambda += rate;
  }
  return SimulateWithLambda(round_seconds, lambda, discipline, trials, seed);
}

FaultInjector::FaultInjector(const Config& config) {
  AMPC_CHECK_GE(config.rate_per_machine_sec, 0.0);
  AMPC_CHECK_GE(config.domain_fault_rate_sec, 0.0);
  AMPC_CHECK_GE(config.warning_lead_sec, 0.0);
  AMPC_CHECK_GE(config.machines, 1);
  rate_ = config.rate_per_machine_sec;
  domain_rate_ = config.domain_fault_rate_sec;
  machines_per_domain_ = config.machines_per_domain;
  machines_ = config.machines;
  warning_lead_ = config.warning_lead_sec;
  if (rate_ > 0.0) {
    rng_.reserve(machines_);
    next_arrival_.reserve(machines_);
    for (int m = 0; m < machines_; ++m) {
      // One stream per machine, seeded by (machine, seed) alone: the
      // schedule is independent of everything else the job does.
      rng_.emplace_back(Hash64(static_cast<uint64_t>(m),
                               config.seed ^ 0x696e6a656374ULL));
      next_arrival_.push_back(NextGap(m));
    }
    machine_warned_.assign(machines_, 0);
  }
  if (domain_rate_ > 0.0) {
    const int per = std::max(1, machines_per_domain_);
    const int domains = (machines_ + per - 1) / per;
    domain_rng_.reserve(domains);
    domain_next_arrival_.reserve(domains);
    for (int d = 0; d < domains; ++d) {
      // One stream per rack-level domain, seeded by (domain, seed)
      // alone — same purity contract as the machine streams.
      domain_rng_.emplace_back(Hash64(static_cast<uint64_t>(d),
                                      config.seed ^ 0x646f6d61696eULL));
      domain_next_arrival_.push_back(NextDomainGap(d));
    }
    domain_warned_.assign(domains, 0);
  }
}

double FaultInjector::NextGap(int machine) {
  return -std::log(1.0 - rng_[machine].NextDouble()) / rate_;
}

double FaultInjector::NextDomainGap(int domain) {
  return -std::log(1.0 - domain_rng_[domain].NextDouble()) / domain_rate_;
}

std::vector<FaultEvent> FaultInjector::AdvanceTo(double t) {
  std::vector<FaultEvent> events;
  if (!enabled()) {
    now_ = std::max(now_, t);
    return events;
  }
  AMPC_CHECK_GE(t, now_);
  // Warnings look ahead of the kill horizon: an arrival at time A is
  // announced once its warning instant A - lead has been reached, i.e.
  // once A <= t + lead. A warning drawn with its instant already in the
  // past (lead longer than the gap since the last harvest) is clamped
  // into [now, t] — late notice beats none.
  const double warn_horizon = t + warning_lead_;
  for (int m = 0; m < static_cast<int>(next_arrival_.size()); ++m) {
    // The replacement machine inherits the same arrival stream, so one
    // interval can kill the same slot repeatedly.
    for (;;) {
      if (warning_lead_ > 0.0 && !machine_warned_[m] &&
          next_arrival_[m] <= warn_horizon) {
        const double when =
            std::clamp(next_arrival_[m] - warning_lead_, now_, t);
        events.push_back(FaultEvent{when, m, -1, true});
        machine_warned_[m] = 1;
      }
      if (next_arrival_[m] > t) break;
      events.push_back(FaultEvent{next_arrival_[m], m, -1, false});
      next_arrival_[m] += NextGap(m);
      machine_warned_[m] = 0;
    }
  }
  const int per = std::max(1, machines_per_domain_);
  for (int d = 0; d < static_cast<int>(domain_next_arrival_.size()); ++d) {
    const int lo = d * per;
    const int hi = std::min(machines_, lo + per);
    for (;;) {
      if (warning_lead_ > 0.0 && !domain_warned_[d] &&
          domain_next_arrival_[d] <= warn_horizon) {
        const double when =
            std::clamp(domain_next_arrival_[d] - warning_lead_, now_, t);
        for (int m = lo; m < hi; ++m) {
          events.push_back(FaultEvent{when, m, d, true});
        }
        domain_warned_[d] = 1;
      }
      if (domain_next_arrival_[d] > t) break;
      for (int m = lo; m < hi; ++m) {
        events.push_back(FaultEvent{domain_next_arrival_[d], m, d, false});
      }
      domain_next_arrival_[d] += NextDomainGap(d);
      domain_warned_[d] = 0;
    }
  }
  std::sort(events.begin(), events.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              if (a.time != b.time) return a.time < b.time;
              if (a.warning != b.warning) return a.warning;  // warnings first
              if (a.domain != b.domain) return a.domain < b.domain;
              return a.machine < b.machine;
            });
  now_ = t;
  return events;
}

void FaultInjector::SkipTo(double t) {
  if (!enabled()) {
    now_ = std::max(now_, t);
    return;
  }
  AMPC_CHECK_GE(t, now_);
  for (int m = 0; m < static_cast<int>(next_arrival_.size()); ++m) {
    // Memoryless: restarting the exponential clock at t is the same
    // distribution as conditioning on no arrival in (now, t]. A
    // *warned* arrival is exempt: the preemption was announced, so it
    // is committed — it rides through the skipped interval and lands on
    // the next AdvanceTo, keeping every warning paired with exactly one
    // kill.
    if (!machine_warned_.empty() && machine_warned_[m]) continue;
    while (next_arrival_[m] <= t) next_arrival_[m] = t + NextGap(m);
  }
  for (int d = 0; d < static_cast<int>(domain_next_arrival_.size()); ++d) {
    if (!domain_warned_.empty() && domain_warned_[d]) continue;
    while (domain_next_arrival_[d] <= t) {
      domain_next_arrival_[d] = t + NextDomainGap(d);
    }
  }
  now_ = t;
}

}  // namespace ampc::sim
