#include "common/random.h"

namespace ampc {

Rng::Rng(uint64_t seed) {
  // Seed the four lanes via SplitMix64, per the xoshiro authors' guidance.
  uint64_t x = seed;
  for (auto& lane : s_) {
    lane = Mix64(x);
    x += 0x9e3779b97f4a7c15ULL;
  }
}

}  // namespace ampc
