#include "common/metrics.h"

#include <cmath>
#include <sstream>

#include "common/logging.h"

namespace ampc {

std::string MetricsSnapshot::ToString() const {
  std::ostringstream os;
  for (const auto& [name, value] : counters) {
    os << name << "=" << value << " ";
  }
  for (const auto& [name, value] : timers_sec) {
    os << name << "=" << value << "s ";
  }
  return os.str();
}

Metrics::Cell* Metrics::GetCell(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& cell = counters_[name];
  if (!cell) cell = std::make_unique<Cell>();
  return cell.get();
}

Metrics::TimeCell* Metrics::GetTimeCell(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& cell = timers_[name];
  if (!cell) cell = std::make_unique<TimeCell>();
  return cell.get();
}

void Metrics::Add(const std::string& name, int64_t delta) {
  GetCell(name)->value.fetch_add(delta, std::memory_order_relaxed);
}

int64_t Metrics::Get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) return 0;
  return it->second->value.load(std::memory_order_relaxed);
}

void Metrics::AddTime(const std::string& phase, double seconds) {
  AMPC_CHECK(std::abs(seconds) < kMaxTimerSeconds)
      << "timer \"" << phase << "\" given " << seconds
      << " s, beyond the int64 nanosecond range";
  const int64_t nanos = std::llround(seconds * 1e9);
  const int64_t prior =
      GetTimeCell(phase)->nanos.fetch_add(nanos, std::memory_order_relaxed);
  int64_t sum;
  AMPC_CHECK(!__builtin_add_overflow(prior, nanos, &sum))
      << "timer \"" << phase << "\" overflows the int64 nanosecond range ("
      << prior * 1e-9 << " s + " << seconds << " s)";
}

double Metrics::GetTime(const std::string& phase) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = timers_.find(phase);
  if (it == timers_.end()) return 0.0;
  return static_cast<double>(it->second->nanos.load(std::memory_order_relaxed)) *
         1e-9;
}

MetricsSnapshot Metrics::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, cell] : counters_) {
    snap.counters[name] = cell->value.load(std::memory_order_relaxed);
  }
  for (const auto& [name, cell] : timers_) {
    snap.timers_sec[name] =
        static_cast<double>(cell->nanos.load(std::memory_order_relaxed)) * 1e-9;
  }
  return snap;
}

void Metrics::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, cell] : counters_) {
    cell->value.store(0, std::memory_order_relaxed);
  }
  for (auto& [name, cell] : timers_) {
    cell->nanos.store(0, std::memory_order_relaxed);
  }
}

}  // namespace ampc
