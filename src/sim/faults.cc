#include "sim/faults.h"

#include <algorithm>

#include "common/logging.h"

namespace ampc::sim {

FaultInjector::FaultInjector(const Config& config) {
  AMPC_CHECK_GE(config.rate_per_machine_sec, 0.0);
  AMPC_CHECK_GE(config.domain_fault_rate_sec, 0.0);
  AMPC_CHECK_GE(config.warning_lead_sec, 0.0);
  AMPC_CHECK_GE(config.machines, 1);
  warning_lead_ = config.warning_lead_sec;
  // Each stream is seeded by (index, seed) alone, with one salt per
  // stream kind: the schedule is independent of everything else the
  // job does.
  const auto add = [&](uint64_t salt, double rate, int index, int domain,
                       int lo, int hi) {
    Stream& s = streams_.emplace_back(Stream{
        Rng(Hash64(static_cast<uint64_t>(index), config.seed ^ salt)), rate,
        domain, lo, hi});
    s.next_arrival = s.NextGap();
  };
  if (config.rate_per_machine_sec > 0.0) {
    for (int m = 0; m < config.machines; ++m) {
      add(0x696e6a656374ULL, config.rate_per_machine_sec, m, -1, m, m + 1);
    }
  }
  if (config.domain_fault_rate_sec > 0.0) {
    const int per = std::max(1, config.machines_per_domain);
    for (int d = 0, lo = 0; lo < config.machines; ++d, lo += per) {
      add(0x646f6d61696eULL, config.domain_fault_rate_sec, d, d, lo,
          std::min(config.machines, lo + per));
    }
  }
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
  // into [now, t] — late notice beats none. A domain stream's event
  // covers every member machine, all sharing (time, domain).
  const double warn_horizon = t + warning_lead_;
  for (Stream& s : streams_) {
    // The replacement machine inherits the same arrival stream, so one
    // interval can kill the same slot repeatedly.
    for (;;) {
      if (warning_lead_ > 0.0 && !s.warned &&
          s.next_arrival <= warn_horizon) {
        const double when =
            std::clamp(s.next_arrival - warning_lead_, now_, t);
        for (int m = s.lo; m < s.hi; ++m) {
          events.push_back(FaultEvent{when, m, s.domain, true});
        }
        s.warned = true;
      }
      if (s.next_arrival > t) break;
      for (int m = s.lo; m < s.hi; ++m) {
        events.push_back(FaultEvent{s.next_arrival, m, s.domain, false});
      }
      s.next_arrival += s.NextGap();
      s.warned = false;
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
  for (Stream& s : streams_) {
    // Memoryless: restarting the exponential clock at t is the same
    // distribution as conditioning on no arrival in (now, t]. A
    // *warned* arrival is exempt: the preemption was announced, so it
    // is committed — it rides through the skipped interval and lands on
    // the next AdvanceTo, keeping every warning paired with exactly one
    // kill.
    if (s.warned) continue;
    while (s.next_arrival <= t) s.next_arrival = t + s.NextGap();
  }
  now_ = t;
}

}  // namespace ampc::sim
