// Fixed-base modular exponentiation (windowed Lim-Lee-style
// precomputation): base^e mod n for ONE long-lived base and many
// exponents, with every squaring moved into a one-time table build.
//
// The exponent is split into w-bit digits e = sum_j c_j * 2^{j*w} and the
// table stores every nonzero digit value at every digit position:
//
//   entry(j, c) = base^{c * 2^{j*w}} mod n   (c in [1, 2^w - 1])
//
// so an evaluation is just ceil(bits/w) Montgomery multiplies and ZERO
// squarings — against ~bits squarings plus bits/w multiplies for the
// generic ladder. At the Paillier blinding shape (1024-bit key, ~1088-bit
// exponent over a 2048-bit modulus, w = 5) that is ~218 multiplies in
// place of ~1300, a 5-6x cut, growing to ~9x at level 2 where the seed
// path squared across a 3072-bit modulus. The table build itself is also
// squaring-free: entry(j+1, 1) = entry(j, 2^w - 1) * entry(j, 1).
//
// Layout: the whole table is ONE flat array of Montgomery-domain limbs.
// Entry (j, c) starts at word ((j * (2^w - 1)) + (c - 1)) * L for a
// modulus of L limbs: the 2^w - 1 entries of a digit position are
// contiguous, positions follow each other in increasing j, and there is
// no slot for the zero digit (it contributes nothing).
//
// Memory per engine: ceil(max_exponent_bits/w) * (2^w - 1) entries of
// modulus width — ~1.7 MB for the level-1 blinding base of a 1024-bit
// key at w = 5 (see DESIGN.md section 12 for the width/latency trade-off).
// That only pays off for a base that is fixed across many calls (the key
// regime: blinding bases live as long as the key), so tables are shared
// process-wide through SharedFixedBase below rather than rebuilt per
// Encryptor.
//
// FixedBase sits on top: a key-lived base h = g^x mod M with everything
// derived from it — h itself, and the comb over M; or, for a caller that
// knows a coprime split M = m1 * m2 (the secret-key holder's p^{s+1} and
// q^{s+1}), the contexts and combs over m1 and m2 and the Garner
// constant m1^{-1} mod m2, evaluated at half width and recombined. The
// registry hands out one FixedBase per (g, x, M, m1) per process, so a
// new Encryptor over a known key derives nothing.
//
// Results are bit-identical to the generic ladder: exact residue
// arithmetic over the same modulus, every evaluation order yields the
// same canonical representative. Table construction consumes no
// randomness — it is a pure function of (base, modulus, width) — so
// chaos/replay schedules stay deterministic (ppgnn-lint enforces this
// for service-side users of this header).

#ifndef PPGNN_BIGINT_FIXEDBASE_H_
#define PPGNN_BIGINT_FIXEDBASE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "bigint/bigint.h"
#include "bigint/montgomery.h"
#include "common/status.h"

namespace ppgnn {

class FixedBaseEngine {
 public:
  /// Builds the digit tables for `base` modulo `modulus` (odd, >= 3),
  /// sized for exponents up to `max_exponent_bits` bits. `window` is the
  /// digit width in bits; 0 picks a width tuned to the exponent size
  /// (5 for key-sized exponents, 4 below that). The engine owns its
  /// MontgomeryContext — it is the long-lived object here.
  static Result<FixedBaseEngine> Create(const BigInt& base,
                                        const BigInt& modulus,
                                        int max_exponent_bits, int window = 0);

  /// base^exponent mod modulus. exponent >= 0. Exponents wider than
  /// max_exponent_bits() fall back to the generic ladder on the same
  /// context (identical result, no table support). Thread-safe: const,
  /// no shared mutable state.
  Result<BigInt> Pow(const BigInt& exponent) const;

  /// Domain-resident variant: writes the result, still in the Montgomery
  /// domain, into `out` (context().limbs() words) for callers that keep
  /// accumulating (mirrors MontgomeryContext::ExpDomain).
  Status PowDomain(const BigInt& exponent, uint64_t* out) const;

  /// Digit width in bits the tables were built with.
  int window() const { return window_; }
  /// Largest exponent bit-length the tables cover (>= the requested
  /// max_exponent_bits, rounded up to a whole digit).
  int max_exponent_bits() const { return capacity_bits_; }
  /// Precomputed table entries / resident bytes (the memory side of the
  /// width trade-off; surfaced through ServiceStats).
  size_t table_entries() const;
  size_t table_bytes() const;

  const MontgomeryContext& context() const { return *ctx_; }

  /// Total engines ever constructed in this process. A build costs
  /// ~ceil(bits/w) * 2^w modular multiplies, so hot paths must share
  /// engines (SharedFixedBase); tests assert on this counter to keep it
  /// that way.
  static uint64_t created_count();

 private:
  FixedBaseEngine() = default;

  std::unique_ptr<MontgomeryContext> ctx_;
  int window_ = 0;
  int capacity_bits_ = 0;
  std::vector<uint64_t> base_mont_;  // for the over-capacity fallback
  std::vector<uint64_t> table_;      // flat; see the layout note above
};

/// What SharedFixedBase looks up: the base h = generator^exponent mod
/// modulus, optionally split by CRT.
struct FixedBaseSpec {
  BigInt generator;
  BigInt exponent;
  BigInt modulus;
  /// m1 of a coprime split modulus = m1 * m2 (both odd, > 1); zero for no
  /// split. The split is the caller's secret (a key holder's p^{s+1}).
  BigInt split;
  /// Comb capacity in exponent bits; 0 builds no comb (the FixedBase then
  /// evaluates on the generic ladder only).
  int min_exponent_bits = 0;
  /// Comb digit width; 0 accepts any cached width.
  int window = 0;
};

/// A key-lived fixed base and everything derived from it (see the file
/// comment). Immutable after construction; every method is const and
/// thread-safe.
class FixedBase {
 public:
  /// h^e mod modulus, on the combs when they were built, else on the
  /// ladder. e >= 0.
  Result<BigInt> Pow(const BigInt& e) const;
  /// The same residue on the generic Montgomery ladder over the same
  /// contexts (the differential reference path).
  Result<BigInt> PowLadder(const BigInt& e) const;

  bool has_combs() const { return has_combs_; }
  size_t comb_count() const;
  size_t table_bytes() const;
  /// Comb capacity in exponent bits (0 without combs).
  int max_exponent_bits() const;
  int window() const;

  /// Total FixedBase objects ever built in this process: each build
  /// derives h, the split contexts and the Garner constant once.
  static uint64_t created_count();

 private:
  friend std::shared_ptr<const FixedBase> SharedFixedBase(
      const FixedBaseSpec& spec);

  /// One modulus of the evaluation: M itself, or one CRT factor.
  struct Part {
    BigInt modulus;
    BigInt base;  // h mod modulus
    std::unique_ptr<MontgomeryContext> ctx;       // null for even moduli
    std::unique_ptr<const FixedBaseEngine> comb;  // null without combs
    Result<BigInt> Pow(const BigInt& e, bool use_comb) const;
  };

  FixedBase() = default;
  static Result<std::unique_ptr<FixedBase>> Build(const FixedBaseSpec& spec);
  Result<BigInt> Eval(const BigInt& e, bool use_comb) const;

  bool split_ = false;
  bool has_combs_ = false;
  // ppgnn: secret(parts_, garner_)
  // One part unsplit; with a split, the parts over m1 and m2 (derived
  // from the caller's secret factors) and the Garner constant.
  std::vector<Part> parts_;
  BigInt garner_;  // m1^{-1} mod m2
};

/// Process-wide FixedBase cache keyed by (generator, exponent, modulus,
/// split): the first caller pays for h, the split contexts, the Garner
/// constant and the combs; every later Encryptor over the same key
/// reuses them — the DotEngine context-caching idea lifted to process
/// scope, because keys are long-lived and request-scoped objects are
/// not. An entry without combs (or with narrower ones, or another fixed
/// width) is rebuilt when a request needs more. Null when the spec is
/// invalid (modulus < 2, a split that is not a coprime factorization,
/// combs asked of an even modulus).
std::shared_ptr<const FixedBase> SharedFixedBase(const FixedBaseSpec& spec);

/// Registry observability, surfaced through ServiceStats.
struct FixedBaseRegistryStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  size_t engines = 0;      ///< combs held by the cached entries
  size_t table_bytes = 0;  ///< summed over those combs
};
FixedBaseRegistryStats SharedFixedBaseRegistryStats();

}  // namespace ppgnn

#endif  // PPGNN_BIGINT_FIXEDBASE_H_
