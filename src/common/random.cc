#include "common/random.h"

namespace ampc {
namespace {

// x^256 mod P(x): P's coefficients below x^256, found by Berlekamp–Massey
// on bit 0 of s[1] (each draw is a bijection of s[1]).
constexpr Rng::JumpPolynomial kCharLow = {
    0x9d116f2bb0f0f001ULL, 0x0280002bcefd1a5eULL, 0x04b4edcf26259f85ULL,
    0x0003c03c3f3ecb19ULL};

// a·x mod P.
Rng::JumpPolynomial TimesX(Rng::JumpPolynomial a) {
  const uint64_t carry = a[3] >> 63;
  for (int w = 3; w > 0; --w) a[w] = (a[w] << 1) | (a[w - 1] >> 63);
  a[0] <<= 1;
  if (carry != 0) {
    for (int w = 0; w < 4; ++w) a[w] ^= kCharLow[w];
  }
  return a;
}

// a·b mod P, by Horner's rule over b's coefficients, highest first.
Rng::JumpPolynomial Times(const Rng::JumpPolynomial& a,
                          const Rng::JumpPolynomial& b) {
  Rng::JumpPolynomial product{};
  for (int i = 255; i >= 0; --i) {
    product = TimesX(product);
    if ((b[i / 64] >> (i % 64)) & 1) {
      for (int w = 0; w < 4; ++w) product[w] ^= a[w];
    }
  }
  return product;
}

}  // namespace

Rng::Rng(uint64_t seed) {
  // Seed the four lanes via SplitMix64, per the xoshiro authors' guidance.
  uint64_t x = seed;
  for (auto& lane : s_) {
    lane = Mix64(x);
    x += 0x9e3779b97f4a7c15ULL;
  }
}

Rng::JumpPolynomial Rng::JumpPolynomialFor(uint64_t draws) {
  // Square and multiply, over draws' bits from the highest.
  JumpPolynomial power = {1, 0, 0, 0};
  for (int bit = std::bit_width(draws) - 1; bit >= 0; --bit) {
    power = Times(power, power);
    if ((draws >> bit) & 1) power = TimesX(power);
  }
  return power;
}

void Rng::Jump(const JumpPolynomial& jump) {
  uint64_t sum[4] = {0, 0, 0, 0};
  for (int i = 0; i < 256; ++i) {
    if ((jump[i / 64] >> (i % 64)) & 1) {
      for (int w = 0; w < 4; ++w) sum[w] ^= s_[w];
    }
    Next();
  }
  for (int w = 0; w < 4; ++w) s_[w] = sum[w];
}

}  // namespace ampc
