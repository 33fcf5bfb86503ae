#include "bigint/multiexp.h"

#include <algorithm>

namespace ppgnn {

Result<MultiExpEngine> MultiExpEngine::Create(const MontgomeryContext* ctx,
                                              const std::vector<BigInt>& bases) {
  if (ctx == nullptr)
    return Status::InvalidArgument("MultiExpEngine needs a Montgomery context");
  if (bases.empty())
    return Status::InvalidArgument("MultiExpEngine over an empty base set");
  MultiExpEngine engine;
  engine.ctx_ = ctx;
  engine.size_ = bases.size();
  const size_t L = ctx->limbs();
  const size_t per_base = kTableSize - 1;
  engine.table_.resize(bases.size() * per_base * L);
  for (size_t i = 0; i < bases.size(); ++i) {
    uint64_t* row = engine.table_.data() + i * per_base * L;
    ctx->ToMont(bases[i].Mod(ctx->modulus()), row);
    for (size_t c = 1; c < per_base; ++c) {
      ctx->MontMul(row + c * L, row + (c - 1) * L, row);
    }
  }
  return engine;
}

Result<BigInt> MultiExpEngine::Eval(const std::vector<BigInt>& exponents) const {
  if (exponents.size() != size_)
    return Status::InvalidArgument("MultiExp exponent count != base count");
  int bits = 0;
  for (const BigInt& e : exponents) {
    if (e.IsNegative())
      return Status::InvalidArgument("negative exponent in MultiExp");
    bits = std::max(bits, e.BitLength());
  }
  if (bits == 0) return BigInt(1).Mod(ctx_->modulus());

  // Straus: one shared square chain; each base folds its 4-bit window
  // digit into the accumulator from its precomputed table.
  const size_t L = ctx_->limbs();
  const size_t per_base = kTableSize - 1;
  std::vector<uint64_t> acc(ctx_->one(), ctx_->one() + L);
  const int top_window = (bits - 1) / kWindow;
  for (int w = top_window; w >= 0; --w) {
    if (w != top_window) {
      for (int s = 0; s < kWindow; ++s) ctx_->MontSqr(acc.data(), acc.data());
    }
    for (size_t i = 0; i < size_; ++i) {
      const uint32_t chunk = exponents[i].GetBits(w * kWindow, kWindow);
      if (chunk != 0) {
        ctx_->MontMul(acc.data(), acc.data(),
                      table_.data() + (i * per_base + chunk - 1) * L);
      }
    }
  }
  return ctx_->FromMont(acc.data());
}

Result<BigInt> MultiExp(const std::vector<BigInt>& bases,
                        const std::vector<BigInt>& exponents,
                        const MontgomeryContext& ctx) {
  PPGNN_ASSIGN_OR_RETURN(MultiExpEngine engine,
                         MultiExpEngine::Create(&ctx, bases));
  return engine.Eval(exponents);
}

}  // namespace ppgnn
