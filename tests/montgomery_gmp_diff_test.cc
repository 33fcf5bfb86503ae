// Differential tests of the Montgomery kernels against GMP: MontMul and
// MontSqr on raw limbs, checked against a*b*R^{-1} mod n computed with
// mpz arithmetic, at every limb count from 1 to 66 — the sizes with a
// specialized loop (4/6/8/12/16/24/32/48/64) and the generic loop on
// either side of them. GMP is a test-only dependency; the library never
// links it.

#include <gmp.h>
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bigint/bigint.h"
#include "bigint/montgomery.h"
#include "common/random.h"

namespace ppgnn {
namespace {

using Limbs = std::vector<uint64_t>;

class Mpz {
 public:
  Mpz() { mpz_init(v_); }
  Mpz(const Mpz&) = delete;
  Mpz& operator=(const Mpz&) = delete;
  ~Mpz() { mpz_clear(v_); }
  mpz_t v_;
};

void Import(mpz_t out, const Limbs& limbs) {
  mpz_import(out, limbs.size(), -1, sizeof(uint64_t), 0, 0, limbs.data());
}

Limbs Export(const mpz_t value, size_t limbs) {
  Limbs out(limbs, 0);
  size_t count = 0;
  mpz_export(out.data(), &count, -1, sizeof(uint64_t), 0, 0, value);
  EXPECT_LE(count, limbs);
  return out;
}

// The GMP side of one kernel instance: n, and R^{-1} mod n with
// R = 2^(64 L).
class Reference {
 public:
  explicit Reference(const Limbs& n) : limbs_(n.size()) {
    Import(n_.v_, n);
    mpz_set_ui(r_inv_.v_, 1);
    mpz_mul_2exp(r_inv_.v_, r_inv_.v_, 64 * limbs_);
    EXPECT_NE(mpz_invert(r_inv_.v_, r_inv_.v_, n_.v_), 0);
  }

  // a * b * R^{-1} mod n.
  Limbs Mul(const Limbs& a, const Limbs& b) const {
    Mpz x, y;
    Import(x.v_, a);
    Import(y.v_, b);
    mpz_mul(x.v_, x.v_, y.v_);
    mpz_mul(x.v_, x.v_, r_inv_.v_);
    mpz_mod(x.v_, x.v_, n_.v_);
    return Export(x.v_, limbs_);
  }

 private:
  size_t limbs_;
  Mpz n_;
  Mpz r_inv_;
};

Limbs RandomLimbs(size_t limbs, Rng& rng) {
  Limbs out(limbs);
  for (uint64_t& w : out) w = rng.NextUint64();
  return out;
}

// A uniform value below n.
Limbs RandomBelow(const Limbs& n, Rng& rng) {
  const BigInt bound = BigInt::FromLimbs(n);
  Limbs out = BigInt::RandomBelow(bound, rng).Limbs();
  out.resize(n.size(), 0);
  return out;
}

// An odd modulus of exactly `limbs` limbs; `top_bit` sets bit 64L-1.
Limbs RandomModulus(size_t limbs, bool top_bit, Rng& rng) {
  Limbs n = RandomLimbs(limbs, rng);
  n[0] |= 1;
  if (top_bit) {
    n.back() |= uint64_t{1} << 63;
  } else {
    n.back() &= ~(uint64_t{1} << 63);
    n.back() |= uint64_t{1} << 40;  // still exactly `limbs` limbs
  }
  if (limbs == 1 && n[0] < 3) n[0] = 3;
  return n;
}

MontgomeryContext ContextFor(const Limbs& n) {
  return MontgomeryContext::Create(BigInt::FromLimbs(n)).value();
}

// The operands every kernel must get right: 0, 1, n-1, n with its low
// limb cleared (top bit set whenever n's is), and random values.
std::vector<Limbs> EdgeOperands(const Limbs& n, Rng& rng) {
  const size_t L = n.size();
  std::vector<Limbs> ops;
  ops.push_back(Limbs(L, 0));
  Limbs one(L, 0);
  one[0] = 1;
  ops.push_back(one);
  Limbs n_minus_1 = n;
  n_minus_1[0] -= 1;  // n is odd: no borrow
  ops.push_back(n_minus_1);
  Limbs top = n;
  top[0] = 0;  // < n, same top limb
  ops.push_back(top);
  for (int i = 0; i < 4; ++i) ops.push_back(RandomBelow(n, rng));
  return ops;
}

TEST(MontgomeryGmpDiffTest, MulAndSqrAtEveryLimbCount) {
  Rng rng(1301);
  for (size_t L = 1; L <= 66; ++L) {
    for (bool top_bit : {true, false}) {
      const Limbs n = RandomModulus(L, top_bit, rng);
      const MontgomeryContext ctx = ContextFor(n);
      ASSERT_EQ(ctx.limbs(), L);
      const Reference ref(n);
      const std::vector<Limbs> ops = EdgeOperands(n, rng);
      for (const Limbs& a : ops) {
        Limbs sq(L);
        ctx.MontSqr(sq.data(), a.data());
        EXPECT_EQ(sq, ref.Mul(a, a)) << "sqr L=" << L << " top=" << top_bit;
        for (const Limbs& b : ops) {
          Limbs out(L);
          ctx.MontMul(out.data(), a.data(), b.data());
          EXPECT_EQ(out, ref.Mul(a, b)) << "mul L=" << L << " top=" << top_bit;
        }
      }
    }
  }
}

TEST(MontgomeryGmpDiffTest, AliasedOutputs) {
  Rng rng(1302);
  for (size_t L : {1, 4, 5, 16, 31, 32, 48, 64, 66}) {
    const Limbs n = RandomModulus(L, true, rng);
    const MontgomeryContext ctx = ContextFor(n);
    const Reference ref(n);
    const Limbs a = RandomBelow(n, rng);
    const Limbs b = RandomBelow(n, rng);

    Limbs x = a;  // out aliases the left operand
    ctx.MontMul(x.data(), x.data(), b.data());
    EXPECT_EQ(x, ref.Mul(a, b)) << "out == a, L=" << L;
    Limbs y = b;  // out aliases the right operand
    ctx.MontMul(y.data(), a.data(), y.data());
    EXPECT_EQ(y, ref.Mul(a, b)) << "out == b, L=" << L;
    Limbs z = a;  // out aliases both
    ctx.MontMul(z.data(), z.data(), z.data());
    EXPECT_EQ(z, ref.Mul(a, a)) << "out == a == b, L=" << L;
    Limbs s = a;
    ctx.MontSqr(s.data(), s.data());
    EXPECT_EQ(s, ref.Mul(a, a)) << "sqr in place, L=" << L;
  }
}

TEST(MontgomeryGmpDiffTest, LongRandomChainMatchesMpz) {
  // 10^4 steps of a random multiply/square chain per size, each step
  // checked against the mpz value of the same chain.
  Rng rng(1303);
  for (size_t L : {4, 16, 33}) {
    const Limbs n = RandomModulus(L, true, rng);
    const MontgomeryContext ctx = ContextFor(n);
    Mpz gn, r_inv, acc, y;
    Import(gn.v_, n);
    mpz_set_ui(r_inv.v_, 1);
    mpz_mul_2exp(r_inv.v_, r_inv.v_, 64 * L);
    ASSERT_NE(mpz_invert(r_inv.v_, r_inv.v_, gn.v_), 0);
    Limbs x = RandomBelow(n, rng);
    Import(acc.v_, x);
    for (int step = 0; step < 10000; ++step) {
      if (rng.NextBernoulli(0.5)) {
        ctx.MontSqr(x.data(), x.data());
        mpz_mul(acc.v_, acc.v_, acc.v_);
      } else {
        const Limbs b = RandomBelow(n, rng);
        ctx.MontMul(x.data(), x.data(), b.data());
        Import(y.v_, b);
        mpz_mul(acc.v_, acc.v_, y.v_);
      }
      mpz_mul(acc.v_, acc.v_, r_inv.v_);
      mpz_mod(acc.v_, acc.v_, gn.v_);
      ASSERT_EQ(x, Export(acc.v_, L)) << "L=" << L << " step " << step;
    }
  }
}

TEST(MontgomeryGmpDiffTest, ExpDomainMatchesPowm) {
  // The sliding-window ladder on top of the kernels, at every window
  // width it picks (exponents from 1 to 2100 bits) and at specialized
  // and generic limb counts.
  Rng rng(1304);
  for (size_t L : {1, 5, 16, 32, 33}) {
    const Limbs n = RandomModulus(L, true, rng);
    const MontgomeryContext ctx = ContextFor(n);
    for (int bits : {1, 2, 23, 24, 80, 240, 672, 2100}) {
      const BigInt base = BigInt::FromLimbs(RandomBelow(n, rng));
      // Exactly `bits` bits long.
      const BigInt exponent =
          (BigInt(1) << (bits - 1)) +
          (bits > 1 ? BigInt::Random(bits - 1, rng) : BigInt(0));
      Mpz gb, ge, gm, out;
      Import(gb.v_, base.Limbs());
      Import(ge.v_, exponent.Limbs());
      Import(gm.v_, n);
      mpz_powm(out.v_, gb.v_, ge.v_, gm.v_);
      EXPECT_EQ(ctx.ModExp(base, exponent).value().Limbs(),
                BigInt::FromLimbs(Export(out.v_, L)).Limbs())
          << "L=" << L << " bits=" << bits;
    }
  }
}

}  // namespace
}  // namespace ppgnn
