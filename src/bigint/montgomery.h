// Montgomery modular arithmetic (CIOS word-by-word reduction).
//
// A MontgomeryContext fixes an ODD modulus n and provides multiplication
// in the Montgomery domain: numbers are represented as a*R mod n with
// R = 2^(64*L), and MontMul(x, y) computes x*y*R^{-1} mod n in a single
// interleaved multiply-reduce pass — no division.
//
// Domain values are plain arrays of exactly limbs() little-endian 64-bit
// words, always fully reduced (< n), owned by the caller. The kernels
// write into caller-owned limbs, may be handed an output that aliases an
// input, and never touch the heap: a product's scratch lives on the
// stack. Create picks the kernels once, by limb count. The lengths the
// Paillier moduli land on get a loop specialized for that length:
// product scanning (a register-held column accumulator) at 4/6/8/12/16
// limbs, CIOS at 24/32/48/64. Every other length runs the generic CIOS
// loop. MontSqr is a dedicated squaring from 24 limbs up (the
// off-diagonal limb products computed once and doubled, then one
// Montgomery reduction: about 25% fewer limb products than MontMul(a, a));
// below that it is the product-scanning multiply, which measured faster.

// ModExp (modular.h) routes odd moduli through this automatically; the
// plain ladder remains for even moduli and as a differential-testing
// reference.

#ifndef PPGNN_BIGINT_MONTGOMERY_H_
#define PPGNN_BIGINT_MONTGOMERY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bigint/bigint.h"
#include "common/status.h"

namespace ppgnn {

class MontgomeryContext {
 public:
  /// Widest modulus a context accepts, in limbs (16384 bits: N^4 for a
  /// 4096-bit key). The kernels keep their scratch on the stack up to
  /// this size; ModExp sends wider odd moduli down the plain ladder.
  static constexpr size_t kMaxLimbs = 256;

  /// Requires an odd modulus >= 3 of at most kMaxLimbs limbs.
  static Result<MontgomeryContext> Create(const BigInt& modulus);

  /// out = a*R mod n (limbs() words). Requires 0 <= a < n.
  void ToMont(const BigInt& a, uint64_t* out) const;

  /// Inverse of ToMont.
  BigInt FromMont(const uint64_t* a) const;

  /// Montgomery product out = a*b*R^{-1} mod n. All three are limbs()
  /// words; out may alias a and/or b. Allocation-free.
  void MontMul(uint64_t* out, const uint64_t* a, const uint64_t* b) const {
    mul_(out, a, b, n_.data(), n_prime_, limbs_);
  }

  /// Montgomery square out = a*a*R^{-1} mod n; out may alias a.
  /// Allocation-free; bit-identical to MontMul(out, a, a).
  void MontSqr(uint64_t* out, const uint64_t* a) const {
    sqr_(out, a, n_.data(), n_prime_, limbs_);
  }

  /// The Montgomery representation of 1 (R mod n), limbs() words.
  const uint64_t* one() const { return one_.data(); }

  /// base^exponent mod n via a sliding-window Montgomery ladder.
  /// exponent >= 0.
  Result<BigInt> ModExp(const BigInt& base, const BigInt& exponent) const;

  /// Domain-resident exponentiation: `base` is already in the Montgomery
  /// domain and the result `out` stays in the domain (both limbs() words;
  /// out may alias base). Lets callers convert a value into the domain
  /// once, exponentiate/accumulate repeatedly, and convert out once.
  /// exponent >= 0.
  void ExpDomain(uint64_t* out, const uint64_t* base,
                 const BigInt& exponent) const;

  /// Total number of contexts ever constructed in this process. Creation
  /// re-derives n' and R^2 mod n (an expensive division), so hot paths
  /// must reuse prebuilt contexts; tests and benches assert on this
  /// counter to keep it that way.
  static uint64_t created_count();

  const BigInt& modulus() const { return modulus_; }
  size_t limbs() const { return limbs_; }

 private:
  using MulFn = void (*)(uint64_t* out, const uint64_t* a, const uint64_t* b,
                         const uint64_t* n, uint64_t n_prime, size_t limbs);
  using SqrFn = void (*)(uint64_t* out, const uint64_t* a, const uint64_t* n,
                         uint64_t n_prime, size_t limbs);

  MontgomeryContext() = default;

  BigInt modulus_;
  std::vector<uint64_t> n_;    // modulus limbs, padded to limbs_
  uint64_t n_prime_ = 0;       // -n^{-1} mod 2^64
  size_t limbs_ = 0;
  std::vector<uint64_t> r2_;   // R^2 mod n (for ToMont)
  std::vector<uint64_t> one_;  // R mod n
  MulFn mul_ = nullptr;        // kernels chosen by limb count in Create
  SqrFn sqr_ = nullptr;
};

}  // namespace ppgnn

#endif  // PPGNN_BIGINT_MONTGOMERY_H_
