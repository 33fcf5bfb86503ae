// Simultaneous multi-exponentiation (Straus's interleaved windowed
// method): prod_i bases[i]^{exps[i]} mod n computed with ONE shared
// square chain instead of one per base.
//
// A plain term-by-term evaluation of a t-term product with b-bit
// exponents costs ~t*b squarings plus ~t*b/w multiplies. Straus
// interleaves all t window tables over a single accumulator, paying b
// squarings total: ~b + t*b/w + t*(2^w - 2) modular multiplies. For the
// PPGNN selection hot path (t = delta' encrypted indicator entries,
// b = key-sized packed scalars) this is a 3-5x reduction in modular
// multiplies, on top of sharing the Montgomery domain conversions.
//
// MultiExpEngine additionally separates the per-base table build (done
// once) from evaluation (done per exponent row), so an answer matrix
// with m rows amortizes the table build m ways — exactly the A (x) [v]
// access pattern of Theorem 3.1.
//
// Results are bit-identical to the naive ladder: the arithmetic is exact
// residue arithmetic over the same modulus, so every evaluation order
// yields the same canonical representative.

#ifndef PPGNN_BIGINT_MULTIEXP_H_
#define PPGNN_BIGINT_MULTIEXP_H_

#include <cstdint>
#include <vector>

#include "bigint/bigint.h"
#include "bigint/montgomery.h"
#include "common/status.h"

namespace ppgnn {

class MultiExpEngine {
 public:
  /// Builds the per-base window tables in the Montgomery domain. Bases
  /// are reduced modulo ctx->modulus(). `ctx` is borrowed and must
  /// outlive the engine.
  static Result<MultiExpEngine> Create(const MontgomeryContext* ctx,
                                       const std::vector<BigInt>& bases);

  /// prod_i bases[i]^{exponents[i]} mod n. exponents.size() must equal
  /// size(); every exponent must be >= 0. Zero exponents contribute the
  /// multiplicative identity and cost nothing beyond the shared squares.
  /// Thread-safe: const, no shared mutable state.
  Result<BigInt> Eval(const std::vector<BigInt>& exponents) const;

  /// Number of bases the engine was built over.
  size_t size() const { return size_; }

  const MontgomeryContext& context() const { return *ctx_; }

 private:
  // 4-bit windows: optimal within ~5% across the exponent sizes the
  // selection path sees (60-bit packed scalars up to 3072-bit layered
  // ciphertext scalars); see DESIGN.md "Exponentiation engine".
  static constexpr int kWindow = 4;
  static constexpr int kTableSize = 1 << kWindow;

  MultiExpEngine() = default;

  const MontgomeryContext* ctx_ = nullptr;
  size_t size_ = 0;
  // One flat array of Montgomery-domain limbs: bases[i]^c (c in [1, 15])
  // starts at word (i * 15 + c - 1) * L for a modulus of L limbs.
  std::vector<uint64_t> table_;
};

/// One-shot convenience wrapper: prod_i bases[i]^{exponents[i]} mod
/// ctx.modulus().
Result<BigInt> MultiExp(const std::vector<BigInt>& bases,
                        const std::vector<BigInt>& exponents,
                        const MontgomeryContext& ctx);

}  // namespace ppgnn

#endif  // PPGNN_BIGINT_MULTIEXP_H_
