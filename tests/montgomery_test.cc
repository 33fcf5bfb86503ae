#include "bigint/montgomery.h"

#include <gtest/gtest.h>

#include "bigint/modular.h"
#include "bigint/prime.h"
#include "common/random.h"

namespace ppgnn {
namespace {

// The plain multiply-and-divide ladder, kept as the differential
// reference (ModExp itself now routes odd moduli through Montgomery).
BigInt LadderModExp(const BigInt& base, const BigInt& exponent,
                    const BigInt& m) {
  BigInt acc(1);
  BigInt b = base.Mod(m);
  for (int i = exponent.BitLength() - 1; i >= 0; --i) {
    acc = ModMul(acc, acc, m);
    if (exponent.GetBit(i)) acc = ModMul(acc, b, m);
  }
  return acc;
}

// Domain conversions on caller-owned limbs.
std::vector<uint64_t> ToMont(const MontgomeryContext& ctx, const BigInt& a) {
  std::vector<uint64_t> out(ctx.limbs());
  ctx.ToMont(a, out.data());
  return out;
}

BigInt MulVia(const MontgomeryContext& ctx, const BigInt& a, const BigInt& b) {
  std::vector<uint64_t> x = ToMont(ctx, a);
  std::vector<uint64_t> y = ToMont(ctx, b);
  ctx.MontMul(x.data(), x.data(), y.data());
  return ctx.FromMont(x.data());
}

TEST(MontgomeryTest, CreateRejectsBadModuli) {
  EXPECT_FALSE(MontgomeryContext::Create(BigInt(0)).ok());
  EXPECT_FALSE(MontgomeryContext::Create(BigInt(1)).ok());
  EXPECT_FALSE(MontgomeryContext::Create(BigInt(2)).ok());
  EXPECT_FALSE(MontgomeryContext::Create(BigInt(100)).ok());  // even
  EXPECT_TRUE(MontgomeryContext::Create(BigInt(3)).ok());
}

TEST(MontgomeryTest, RoundTripThroughDomain) {
  Rng rng(1);
  for (int bits : {64, 192, 512, 1024}) {
    BigInt m = BigInt::Random(bits, rng);
    if (!m.IsOdd()) m = m + BigInt(1);
    if (m < BigInt(3)) m = BigInt(3);
    auto ctx = MontgomeryContext::Create(m).value();
    for (int i = 0; i < 10; ++i) {
      BigInt a = BigInt::RandomBelow(m, rng);
      EXPECT_EQ(ctx.FromMont(ToMont(ctx, a).data()), a) << bits;
    }
  }
}

TEST(MontgomeryTest, MontMulMatchesPlainModMul) {
  Rng rng(2);
  for (int bits : {64, 128, 320, 1024, 2048}) {
    BigInt m = BigInt::Random(bits, rng);
    if (!m.IsOdd()) m = m + BigInt(1);
    if (m < BigInt(3)) m = BigInt(3);
    auto ctx = MontgomeryContext::Create(m).value();
    for (int i = 0; i < 15; ++i) {
      BigInt a = BigInt::RandomBelow(m, rng);
      BigInt b = BigInt::RandomBelow(m, rng);
      BigInt got = MulVia(ctx, a, b);
      EXPECT_EQ(got, ModMul(a, b, m)) << bits << " iter " << i;
    }
  }
}

TEST(MontgomeryTest, EdgeOperands) {
  Rng rng(3);
  BigInt m = GeneratePrime(256, rng).value();
  auto ctx = MontgomeryContext::Create(m).value();
  BigInt zero(0), one(1), top = m - BigInt(1);
  EXPECT_EQ(MulVia(ctx, zero, top), BigInt(0));
  EXPECT_EQ(MulVia(ctx, one, top), top);
  // (m-1)^2 mod m = 1.
  EXPECT_EQ(MulVia(ctx, top, top), BigInt(1));
}

TEST(MontgomeryTest, ModExpMatchesLadderRandomized) {
  Rng rng(4);
  for (int iter = 0; iter < 25; ++iter) {
    int bits = 128 + static_cast<int>(rng.NextBelow(900));
    BigInt m = BigInt::Random(bits, rng);
    if (!m.IsOdd()) m = m + BigInt(1);
    BigInt base = BigInt::Random(bits + 20, rng);
    BigInt exp = BigInt::Random(160, rng);
    auto ctx = MontgomeryContext::Create(m).value();
    EXPECT_EQ(ctx.ModExp(base, exp).value(), LadderModExp(base, exp, m))
        << "iter " << iter;
  }
}

TEST(MontgomeryTest, ModExpEdgeCases) {
  Rng rng(5);
  BigInt m = GeneratePrime(192, rng).value();
  auto ctx = MontgomeryContext::Create(m).value();
  EXPECT_EQ(ctx.ModExp(BigInt(5), BigInt(0)).value(), BigInt(1));
  EXPECT_EQ(ctx.ModExp(BigInt(0), BigInt(17)).value(), BigInt(0));
  EXPECT_EQ(ctx.ModExp(BigInt(5), BigInt(1)).value(), BigInt(5));
  EXPECT_FALSE(ctx.ModExp(BigInt(2), BigInt(-3)).ok());
  // Fermat: a^(p-1) = 1 mod p.
  EXPECT_EQ(ctx.ModExp(BigInt(123456789), m - BigInt(1)).value(), BigInt(1));
}

TEST(MontgomeryTest, PublicModExpUsesItTransparently) {
  // ModExp routes odd moduli >= 128 bits through Montgomery; results must
  // be identical to the ladder.
  Rng rng(6);
  for (int iter = 0; iter < 10; ++iter) {
    BigInt m = BigInt::Random(512, rng);
    if (!m.IsOdd()) m = m + BigInt(1);
    BigInt base = BigInt::Random(512, rng);
    BigInt exp = BigInt::Random(256, rng);
    EXPECT_EQ(ModExp(base, exp, m).value(), LadderModExp(base, exp, m));
  }
  // Even moduli still work via the ladder path.
  BigInt even = BigInt::Random(256, rng);
  if (even.IsOdd()) even = even + BigInt(1);
  BigInt base = BigInt::Random(200, rng);
  BigInt exp = BigInt::Random(100, rng);
  EXPECT_EQ(ModExp(base, exp, even).value(), LadderModExp(base, exp, even));
}

TEST(MontgomeryTest, WorksForPaillierShapedModuli) {
  // N^2 and N^3 for an RSA-style N: the exact moduli PPGNN exercises.
  Rng rng(7);
  BigInt p = GeneratePrime(128, rng).value();
  BigInt q = GeneratePrime(128, rng).value();
  BigInt n = p * q;
  for (const BigInt& m : {n * n, n * n * n}) {
    auto ctx = MontgomeryContext::Create(m).value();
    BigInt base = BigInt::RandomBelow(m, rng);
    BigInt exp = BigInt::Random(200, rng);
    EXPECT_EQ(ctx.ModExp(base, exp).value(), LadderModExp(base, exp, m));
  }
}

}  // namespace
}  // namespace ppgnn
