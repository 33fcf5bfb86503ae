#include "bigint/montgomery.h"

#include <algorithm>
#include <atomic>

namespace ppgnn {
namespace {

using u128 = unsigned __int128;

// ppgnn: stat_counter(g_contexts_created)
std::atomic<uint64_t> g_contexts_created{0};

// Every kernel below is a template over the limb count: kL > 0 fixes the
// length at compile time (loops the compiler can unroll and keep in
// registers), kL == 0 is the generic loop over a runtime length `len`.
// Scratch is a stack array sized for the longest length the
// instantiation can see.
template <size_t kL>
constexpr size_t Capacity() {
  return kL != 0 ? kL : MontgomeryContext::kMaxLimbs;
}

// out = t - n when the (L+1)-word value (top, t) is >= n, else t. The
// value is < 2n by the Montgomery bound, so one subtraction reduces it.
inline void ReduceOnce(uint64_t* out, const uint64_t* t, uint64_t top,
                       const uint64_t* n, size_t L) {
  bool ge = top != 0;
  if (!ge) {
    ge = true;  // equal counts as >=
    for (size_t i = L; i-- > 0;) {
      if (t[i] != n[i]) {
        ge = t[i] > n[i];
        break;
      }
    }
  }
  if (!ge) {
    std::copy(t, t + L, out);
    return;
  }
  uint64_t borrow = 0;
#pragma GCC unroll 8
  for (size_t i = 0; i < L; ++i) {
    const u128 diff = static_cast<u128>(t[i]) - n[i] - borrow;
    out[i] = static_cast<uint64_t>(diff);
    borrow = static_cast<uint64_t>(diff >> 64) & 1;
  }
}

// CIOS: per word a[i], t += a[i]*b, then t = (t + m*n) / 2^64 with
// m = t[0] * n' mod 2^64 — multiply and reduce interleaved word by word,
// so t never grows past L+2 words. (Fusing both passes into one inner
// loop measured slower from 16 limbs up: two carry chains in flight
// spill registers.)
template <size_t kL>
void MulKernel(uint64_t* out, const uint64_t* a, const uint64_t* b,
               const uint64_t* n, uint64_t n_prime, size_t len) {
  const size_t L = kL != 0 ? kL : len;
  uint64_t t[Capacity<kL>() + 2];
  std::fill(t, t + L + 2, 0);
  for (size_t i = 0; i < L; ++i) {
    const uint64_t ai = a[i];
    uint64_t carry = 0;
#pragma GCC unroll 8
    for (size_t j = 0; j < L; ++j) {
      const u128 cur = static_cast<u128>(ai) * b[j] + t[j] + carry;
      t[j] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    u128 cur = static_cast<u128>(t[L]) + carry;
    t[L] = static_cast<uint64_t>(cur);
    t[L + 1] = static_cast<uint64_t>(cur >> 64);

    const uint64_t m = t[0] * n_prime;
    cur = static_cast<u128>(m) * n[0] + t[0];
    carry = static_cast<uint64_t>(cur >> 64);  // low word is zero
#pragma GCC unroll 8
    for (size_t j = 1; j < L; ++j) {
      cur = static_cast<u128>(m) * n[j] + t[j] + carry;
      t[j - 1] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    cur = static_cast<u128>(t[L]) + carry;
    t[L - 1] = static_cast<uint64_t>(cur);
    cur = static_cast<u128>(t[L + 1]) + static_cast<uint64_t>(cur >> 64);
    t[L] = static_cast<uint64_t>(cur);
    t[L + 1] = static_cast<uint64_t>(cur >> 64);
  }
  ReduceOnce(out, t, t[L], n, L);
}

// Product scanning (FIPS: finely integrated product scanning) for the
// short specialized lengths: column k of the product sums
// a[i]*b[k-i] and m[i]*n[k-i] into a three-word accumulator held in
// registers, with m[k] = (column low word) * n' chosen as the column
// closes so its low word cancels. No t array is read or written per
// product, which is what wins up to 16 limbs; past that the CIOS loop
// above measured faster. m[] doubles as the output buffer: column k >= L
// retires word k-L, which no later column reads.
inline void MulAcc(uint64_t& t0, uint64_t& t1, uint64_t& t2, uint64_t x,
                   uint64_t y) {
  const u128 p = static_cast<u128>(x) * y;
  const u128 s = ((static_cast<u128>(t1) << 64) | t0) + p;
  t2 += s < p;
  t0 = static_cast<uint64_t>(s);
  t1 = static_cast<uint64_t>(s >> 64);
}

template <size_t kL>
void ScanMulKernel(uint64_t* out, const uint64_t* a, const uint64_t* b,
                   const uint64_t* n, uint64_t n_prime, size_t) {
  static_assert(kL != 0, "product scanning is only instantiated per length");
  uint64_t m[kL];
  uint64_t t0 = 0, t1 = 0, t2 = 0;
  for (size_t k = 0; k < kL; ++k) {
#pragma GCC unroll 16
    for (size_t i = 0; i < k; ++i) {
      MulAcc(t0, t1, t2, a[i], b[k - i]);
      MulAcc(t0, t1, t2, m[i], n[k - i]);
    }
    MulAcc(t0, t1, t2, a[k], b[0]);
    m[k] = t0 * n_prime;
    MulAcc(t0, t1, t2, m[k], n[0]);  // t0 becomes zero
    t0 = t1;
    t1 = t2;
    t2 = 0;
  }
  for (size_t k = kL; k < 2 * kL - 1; ++k) {
#pragma GCC unroll 16
    for (size_t i = k - kL + 1; i < kL; ++i) {
      MulAcc(t0, t1, t2, a[i], b[k - i]);
      MulAcc(t0, t1, t2, m[i], n[k - i]);
    }
    m[k - kL] = t0;
    t0 = t1;
    t1 = t2;
    t2 = 0;
  }
  m[kL - 1] = t0;
  ReduceOnce(out, m, t1, n, kL);
}

// Squaring on the product-scanning kernel: at these lengths it beats
// the dedicated SOS squaring below, whose separate doubling and
// reduction passes cost more than the products they save.
template <size_t kL>
void ScanSqrKernel(uint64_t* out, const uint64_t* a, const uint64_t* n,
                   uint64_t n_prime, size_t len) {
  ScanMulKernel<kL>(out, a, a, n, n_prime, len);
}

// Square, then reduce: the L(L-1)/2 off-diagonal products a[i]*a[j]
// (i < j) are summed once and doubled, the L diagonal squares added, and
// the 2L-word square reduced by L word-steps of Montgomery reduction.
// L^2 + L(L+1)/2 limb products against MontMul's 2L^2.
template <size_t kL>
void SqrKernel(uint64_t* out, const uint64_t* a, const uint64_t* n,
               uint64_t n_prime, size_t len) {
  const size_t L = kL != 0 ? kL : len;
  uint64_t t[2 * Capacity<kL>()];
  std::fill(t, t + 2 * L, 0);
  // Off-diagonal sum: < a^2 / 2, so doubling it below cannot overflow.
  for (size_t i = 0; i + 1 < L; ++i) {
    const uint64_t ai = a[i];
    uint64_t c = 0;
#pragma GCC unroll 8
    for (size_t j = i + 1; j < L; ++j) {
      const u128 p = static_cast<u128>(ai) * a[j] + t[i + j] + c;
      t[i + j] = static_cast<uint64_t>(p);
      c = static_cast<uint64_t>(p >> 64);
    }
    t[i + L] = c;
  }
  for (size_t k = 2 * L - 1; k > 0; --k) {
    t[k] = (t[k] << 1) | (t[k - 1] >> 63);
  }
  t[0] <<= 1;
  uint64_t c = 0;
#pragma GCC unroll 8
  for (size_t i = 0; i < L; ++i) {
    const u128 sq = static_cast<u128>(a[i]) * a[i];
    u128 s = static_cast<u128>(t[2 * i]) + static_cast<uint64_t>(sq) + c;
    t[2 * i] = static_cast<uint64_t>(s);
    s = static_cast<u128>(t[2 * i + 1]) + static_cast<uint64_t>(sq >> 64) +
        static_cast<uint64_t>(s >> 64);
    t[2 * i + 1] = static_cast<uint64_t>(s);
    c = static_cast<uint64_t>(s >> 64);
  }
  // Reduction. Step i adds m*n*2^{64i}; its carry lands in word i+L, and
  // the overflow of that word (`top`) belongs to word i+L+1, which is the
  // next step's carry target — so it is folded in there.
  uint64_t top = 0;
  for (size_t i = 0; i < L; ++i) {
    const uint64_t m = t[i] * n_prime;
    uint64_t carry = 0;
#pragma GCC unroll 8
    for (size_t j = 0; j < L; ++j) {
      const u128 p = static_cast<u128>(m) * n[j] + t[i + j] + carry;
      t[i + j] = static_cast<uint64_t>(p);
      carry = static_cast<uint64_t>(p >> 64);
    }
    const u128 s = static_cast<u128>(t[i + L]) + carry + top;
    t[i + L] = static_cast<uint64_t>(s);
    top = static_cast<uint64_t>(s >> 64);
  }
  ReduceOnce(out, t + L, top, n, L);
}

}  // namespace

Result<MontgomeryContext> MontgomeryContext::Create(const BigInt& modulus) {
  if (modulus < BigInt(3) || !modulus.IsOdd()) {
    return Status::InvalidArgument(
        "Montgomery arithmetic needs an odd modulus >= 3");
  }
  if (modulus.LimbCount() > kMaxLimbs) {
    return Status::InvalidArgument("Montgomery modulus wider than kMaxLimbs");
  }
  MontgomeryContext ctx;
  ctx.modulus_ = modulus;
  ctx.limbs_ = modulus.LimbCount();
  ctx.n_ = modulus.Limbs();
  ctx.n_.resize(ctx.limbs_, 0);

  // n' = -n[0]^{-1} mod 2^64 via Newton iteration (x <- x(2 - n0 x)).
  uint64_t n0 = ctx.n_[0];
  uint64_t inv = 1;
  for (int i = 0; i < 6; ++i) {
    inv *= 2 - n0 * inv;
  }
  ctx.n_prime_ = ~inv + 1;

  // Kernels by limb count: product scanning for the short specialized
  // lengths, CIOS / SOS for the long ones, the generic CIOS / SOS loop
  // for every other length.
  switch (ctx.limbs_) {
#define PPGNN_MONT_KERNEL(L, MUL, SQR) \
  case L:                              \
    ctx.mul_ = &MUL<L>;                \
    ctx.sqr_ = &SQR<L>;                \
    break;
    PPGNN_MONT_KERNEL(4, ScanMulKernel, ScanSqrKernel)
    PPGNN_MONT_KERNEL(6, ScanMulKernel, ScanSqrKernel)
    PPGNN_MONT_KERNEL(8, ScanMulKernel, ScanSqrKernel)
    PPGNN_MONT_KERNEL(12, ScanMulKernel, ScanSqrKernel)
    PPGNN_MONT_KERNEL(16, ScanMulKernel, ScanSqrKernel)
    PPGNN_MONT_KERNEL(24, MulKernel, SqrKernel)
    PPGNN_MONT_KERNEL(32, MulKernel, SqrKernel)
    PPGNN_MONT_KERNEL(48, MulKernel, SqrKernel)
    PPGNN_MONT_KERNEL(64, MulKernel, SqrKernel)
#undef PPGNN_MONT_KERNEL
    default:
      ctx.mul_ = &MulKernel<0>;
      ctx.sqr_ = &SqrKernel<0>;
  }

  // R^2 mod n with R = 2^(64 L).
  ctx.r2_ = BigInt::Pow2(static_cast<int>(128 * ctx.limbs_)).Mod(modulus)
                .Limbs();
  ctx.r2_.resize(ctx.limbs_, 0);
  // R mod n = REDC(R^2 mod n): one reduction instead of a division.
  ctx.one_.assign(ctx.limbs_, 0);
  std::vector<uint64_t> unit(ctx.limbs_, 0);
  unit[0] = 1;
  ctx.MontMul(ctx.one_.data(), ctx.r2_.data(), unit.data());
  g_contexts_created.fetch_add(1, std::memory_order_relaxed);
  return ctx;
}

uint64_t MontgomeryContext::created_count() {
  return g_contexts_created.load(std::memory_order_relaxed);
}

void MontgomeryContext::ToMont(const BigInt& a, uint64_t* out) const {
  const std::vector<uint64_t>& limbs = a.Limbs();
  std::fill(out, out + limbs_, 0);
  std::copy(limbs.begin(),
            limbs.begin() + static_cast<long>(std::min(limbs.size(), limbs_)),
            out);
  MontMul(out, out, r2_.data());
}

BigInt MontgomeryContext::FromMont(const uint64_t* a) const {
  std::vector<uint64_t> unit(limbs_, 0);
  unit[0] = 1;
  std::vector<uint64_t> out(limbs_);
  MontMul(out.data(), a, unit.data());
  return BigInt::FromLimbs(std::move(out));
}

void MontgomeryContext::ExpDomain(uint64_t* out, const uint64_t* base,
                                  const BigInt& exponent) const {
  const int bits = exponent.BitLength();
  if (bits == 0) {
    std::copy(one_.begin(), one_.end(), out);
    return;
  }
  // Sliding window over the exponent bits, width by exponent size (the
  // usual thresholds: each wider window halves the multiplies per bit
  // but doubles the odd-power table).
  const int window = bits > 671 ? 6 : bits > 239 ? 5 : bits > 79 ? 4
                     : bits > 23 ? 3 : 1;
  const size_t L = limbs_;
  // table[k] = base^(2k+1), k < 2^(window-1); then one scratch slot.
  const size_t entries = size_t{1} << (window - 1);
  std::vector<uint64_t> table((entries + 1) * L);
  uint64_t* sq = table.data() + entries * L;
  std::copy(base, base + L, table.data());
  if (entries > 1) {
    MontSqr(sq, base);
    for (size_t k = 1; k < entries; ++k) {
      MontMul(table.data() + k * L, table.data() + (k - 1) * L, sq);
    }
  }

  bool started = false;
  int i = bits - 1;
  while (i >= 0) {
    if (!exponent.GetBit(i)) {
      MontSqr(out, out);  // started: the top bit is set
      --i;
      continue;
    }
    // Longest window [j, i] of at most `window` bits ending in a 1.
    int j = std::max(i - window + 1, 0);
    while (!exponent.GetBit(j)) ++j;
    const uint32_t digit = exponent.GetBits(j, i - j + 1);
    const uint64_t* entry = table.data() + (digit >> 1) * L;
    if (started) {
      for (int s = 0; s < i - j + 1; ++s) MontSqr(out, out);
      MontMul(out, out, entry);
    } else {
      std::copy(entry, entry + L, out);
      started = true;
    }
    i = j - 1;
  }
}

Result<BigInt> MontgomeryContext::ModExp(const BigInt& base,
                                         const BigInt& exponent) const {
  if (exponent.IsNegative())
    return Status::InvalidArgument("negative exponent in ModExp");
  if (exponent.IsZero()) return BigInt(1).Mod(modulus_);
  std::vector<uint64_t> acc(limbs_);
  ToMont(base.Mod(modulus_), acc.data());
  ExpDomain(acc.data(), acc.data(), exponent);
  return FromMont(acc.data());
}

}  // namespace ppgnn
