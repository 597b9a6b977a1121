// Deterministic hashing and pseudo-random generation.
//
// All randomness in the library flows through these primitives so that (a)
// AMPC and MPC implementations given the same seed observe the *same*
// random priorities — the paper relies on this to compare outputs — and
// (b) results are reproducible across runs and thread schedules.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <limits>

namespace ampc {

/// SplitMix64 finalizer: a fast, high-quality 64-bit mixing function.
/// Stateless; suitable for deriving per-id priorities (paper Fig. 1:
/// "Uses hashing to determine a priority for each node").
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Hashes `value` under a seed; distinct seeds give independent streams.
inline uint64_t Hash64(uint64_t value, uint64_t seed) {
  return Mix64(value ^ Mix64(seed));
}

/// Combines two hashes (order-sensitive).
inline uint64_t HashCombine(uint64_t a, uint64_t b) {
  return Mix64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

/// Hash of an undirected edge that is symmetric in its endpoints, so both
/// copies (u,v) and (v,u) derive the same edge priority.
inline uint64_t HashEdge(uint64_t u, uint64_t v, uint64_t seed) {
  uint64_t lo = u < v ? u : v;
  uint64_t hi = u < v ? v : u;
  return Hash64(HashCombine(lo, hi), seed);
}

/// Maps a 64-bit hash to a double in [0, 1).
inline double ToUnitDouble(uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// A small, fast xoshiro256** PRNG. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = uint64_t;

  explicit Rng(uint64_t seed);

  // Inline: generators draw tens of millions of values per graph.
  uint64_t Next() {
    const uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }
  uint64_t operator()() { return Next(); }

  /// A polynomial over GF(2) of degree < 256, low word first: bit j of
  /// word w is the coefficient of x^(64w + j).
  using JumpPolynomial = std::array<uint64_t, 4>;

  /// x^draws mod P(x), where P is the characteristic polynomial of the
  /// state update. x^(2^128) mod P is the xoshiro authors' jump() constant.
  static JumpPolynomial JumpPolynomialFor(uint64_t draws);

  /// The state update is linear over GF(2), so the state after d draws is
  /// J(T)·s with J = x^d mod P. Applies J as the authors' jump() does, in
  /// 256 steps: the stream then continues as after d Next() calls.
  void Jump(const JumpPolynomial& jump);

  static constexpr uint64_t min() { return 0; }
  static constexpr uint64_t max() {
    return std::numeric_limits<uint64_t>::max();
  }

  /// Uniform in [0, bound) without modulo bias (Lemire's nearly-divisionless
  /// reduction).
  uint64_t NextBelow(uint64_t bound) {
    if (bound == 0) return 0;
    uint64_t x = Next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    uint64_t l = static_cast<uint64_t>(m);
    if (l < bound) {
      const uint64_t t = -bound % bound;
      while (l < t) {
        x = Next();
        m = static_cast<__uint128_t>(x) * bound;
        l = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /// Uniform double in [0, 1).
  double NextDouble() { return ToUnitDouble(Next()); }

  /// Bernoulli trial with success probability p.
  bool NextBernoulli(double p) { return NextDouble() < p; }

 private:
  uint64_t s_[4];
};

}  // namespace ampc
