// An atomic word-packed bitmap — the dense frontier representation of
// the frontier engine (common/frontier.h).
//
// A dense frontier is a bit per vertex, packed into 64-bit words that
// many workers set concurrently while building the next frontier; the
// whole bitmap is then broadcast to every machine of the simulated
// cluster (sim::Cluster::RunPullPhase charges ceil(bits/8) wire bytes
// for it), and each machine tests membership locally while sweeping its
// own shard. Bit -> word assignment is fixed, so the bitmap's contents
// are a pure function of which bits were set — never of the order the
// setters ran in — matching the library-wide determinism contract.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <vector>

namespace ampc {

/// Fixed-size bitmap over [0, num_bits) with lock-free concurrent
/// setters (relaxed atomic fetch-or). Readers racing setters see each
/// bit either set or not yet set — fine for frontier construction,
/// where every Set happens-before the round that consumes the bitmap
/// (the map phase's ThreadPool::RunTasks join is the barrier).
class AtomicBitmap {
 public:
  AtomicBitmap() = default;
  explicit AtomicBitmap(int64_t num_bits)
      : num_bits_(num_bits),
        words_((num_bits + kWordBits - 1) / kWordBits) {}

  int64_t num_bits() const { return num_bits_; }
  int64_t num_words() const { return static_cast<int64_t>(words_.size()); }

  /// Wire size of the bitmap when broadcast: one bit per entry, byte
  /// padded (the n/8 of the pull-mode broadcast charge).
  int64_t SizeBytes() const { return (num_bits_ + 7) / 8; }

  /// Sets bit `i`. Safe to call concurrently with other setters.
  void Set(int64_t i) {
    words_[i >> kWordShift].fetch_or(uint64_t{1} << (i & kWordMask),
                                     std::memory_order_relaxed);
  }

  /// Sets bit `i` and reports whether this call flipped it (false when
  /// some earlier Set/TestAndSet already had it). The claim a sliding
  /// queue uses to push each newly-discovered vertex exactly once.
  bool TestAndSet(int64_t i) {
    const uint64_t mask = uint64_t{1} << (i & kWordMask);
    return (words_[i >> kWordShift].fetch_or(
                mask, std::memory_order_relaxed) &
            mask) == 0;
  }

  bool Test(int64_t i) const {
    return (words_[i >> kWordShift].load(std::memory_order_relaxed) &
            (uint64_t{1} << (i & kWordMask))) != 0;
  }

  /// Raw word `w` — the unit a dense sweep scans (skip zero words).
  uint64_t Word(int64_t w) const {
    return words_[w].load(std::memory_order_relaxed);
  }

  /// Number of set bits. Not atomic with respect to concurrent setters;
  /// call after the building phase's barrier.
  int64_t Count() const {
    int64_t count = 0;
    for (const auto& word : words_) {
      count += std::popcount(word.load(std::memory_order_relaxed));
    }
    return count;
  }

  /// Zeroes every bit. Not safe against concurrent setters.
  void Clear() {
    for (auto& word : words_) word.store(0, std::memory_order_relaxed);
  }

 private:
  static constexpr int kWordBits = 64;
  static constexpr int kWordShift = 6;
  static constexpr int kWordMask = 63;

  int64_t num_bits_ = 0;
  std::vector<std::atomic<uint64_t>> words_;
};

}  // namespace ampc
