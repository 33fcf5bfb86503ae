#include "bigint/modular.h"

#include <gtest/gtest.h>

#include "common/random.h"

namespace ppgnn {
namespace {

BigInt Dec(const std::string& s) { return BigInt::FromDecimal(s).value(); }

TEST(GcdTest, SmallCases) {
  EXPECT_EQ(Gcd(BigInt(12), BigInt(18)), BigInt(6));
  EXPECT_EQ(Gcd(BigInt(17), BigInt(31)), BigInt(1));
  EXPECT_EQ(Gcd(BigInt(0), BigInt(5)), BigInt(5));
  EXPECT_EQ(Gcd(BigInt(5), BigInt(0)), BigInt(5));
  EXPECT_EQ(Gcd(BigInt(0), BigInt(0)), BigInt(0));
}

TEST(GcdTest, IgnoresSigns) {
  EXPECT_EQ(Gcd(BigInt(-12), BigInt(18)), BigInt(6));
  EXPECT_EQ(Gcd(BigInt(12), BigInt(-18)), BigInt(6));
  EXPECT_EQ(Gcd(BigInt(-12), BigInt(-18)), BigInt(6));
}

TEST(GcdTest, LargeKnownValue) {
  // gcd(2^200 - 1, 2^120 - 1) = 2^gcd(200,120) - 1 = 2^40 - 1.
  BigInt a = BigInt::Pow2(200) - BigInt(1);
  BigInt b = BigInt::Pow2(120) - BigInt(1);
  EXPECT_EQ(Gcd(a, b), BigInt::Pow2(40) - BigInt(1));
}

TEST(LcmTest, Basics) {
  EXPECT_EQ(Lcm(BigInt(4), BigInt(6)), BigInt(12));
  EXPECT_EQ(Lcm(BigInt(0), BigInt(6)), BigInt(0));
  EXPECT_EQ(Lcm(BigInt(7), BigInt(13)), BigInt(91));
}

TEST(ModInverseTest, SmallKnownInverses) {
  EXPECT_EQ(ModInverse(BigInt(3), BigInt(7)).value(), BigInt(5));  // 3*5=15=1
  EXPECT_EQ(ModInverse(BigInt(1), BigInt(2)).value(), BigInt(1));
  EXPECT_EQ(ModInverse(BigInt(10), BigInt(17)).value(), BigInt(12));
}

TEST(ModInverseTest, FailsWhenNotCoprime) {
  EXPECT_FALSE(ModInverse(BigInt(6), BigInt(9)).ok());
  EXPECT_FALSE(ModInverse(BigInt(0), BigInt(9)).ok());
}

TEST(ModInverseTest, RejectsTinyModulus) {
  EXPECT_FALSE(ModInverse(BigInt(1), BigInt(1)).ok());
  EXPECT_FALSE(ModInverse(BigInt(1), BigInt(0)).ok());
}

TEST(ModInverseTest, HandlesNegativeAndLargeInputs) {
  BigInt m = Dec("1000000007");
  BigInt a = Dec("-123456789123456789");
  BigInt inv = ModInverse(a, m).value();
  EXPECT_EQ((a * inv).Mod(m), BigInt(1));
}

TEST(ModInverseTest, RandomizedInverseProperty) {
  Rng rng(555);
  BigInt m = (BigInt::Pow2(255) - BigInt(19));  // prime (Curve25519 prime)
  for (int i = 0; i < 20; ++i) {
    BigInt a = BigInt::RandomBelow(m - BigInt(1), rng) + BigInt(1);
    BigInt inv = ModInverse(a, m).value();
    EXPECT_EQ(ModMul(a, inv, m), BigInt(1));
    EXPECT_TRUE(inv < m);
    EXPECT_FALSE(inv.IsNegative());
  }
}

TEST(ModExpTest, SmallKnownValues) {
  EXPECT_EQ(ModExp(BigInt(2), BigInt(10), BigInt(1000)).value(), BigInt(24));
  EXPECT_EQ(ModExp(BigInt(3), BigInt(0), BigInt(7)).value(), BigInt(1));
  EXPECT_EQ(ModExp(BigInt(0), BigInt(5), BigInt(7)).value(), BigInt(0));
  EXPECT_EQ(ModExp(BigInt(5), BigInt(1), BigInt(7)).value(), BigInt(5));
}

TEST(ModExpTest, ModulusOneGivesZero) {
  EXPECT_EQ(ModExp(BigInt(5), BigInt(100), BigInt(1)).value(), BigInt(0));
}

TEST(ModExpTest, RejectsBadArguments) {
  EXPECT_FALSE(ModExp(BigInt(2), BigInt(-1), BigInt(7)).ok());
  EXPECT_FALSE(ModExp(BigInt(2), BigInt(3), BigInt(0)).ok());
  EXPECT_FALSE(ModExp(BigInt(2), BigInt(3), BigInt(-7)).ok());
}

TEST(ModExpTest, FermatLittleTheorem) {
  // a^(p-1) = 1 mod p for prime p and a not divisible by p.
  BigInt p = Dec("1000000007");
  Rng rng(777);
  for (int i = 0; i < 10; ++i) {
    BigInt a = BigInt::RandomBelow(p - BigInt(1), rng) + BigInt(1);
    EXPECT_EQ(ModExp(a, p - BigInt(1), p).value(), BigInt(1));
  }
}

TEST(ModExpTest, ExponentLawsRandomized) {
  Rng rng(888);
  BigInt m = BigInt::Random(384, rng) + BigInt(2);
  BigInt base = BigInt::Random(380, rng);
  BigInt e1 = BigInt::Random(128, rng);
  BigInt e2 = BigInt::Random(128, rng);
  // a^(e1+e2) = a^e1 * a^e2 (mod m)
  BigInt lhs = ModExp(base, e1 + e2, m).value();
  BigInt rhs =
      ModMul(ModExp(base, e1, m).value(), ModExp(base, e2, m).value(), m);
  EXPECT_EQ(lhs, rhs);
  // (a^e1)^e2 = a^(e1*e2) (mod m)
  BigInt lhs2 = ModExp(ModExp(base, e1, m).value(), e2, m).value();
  BigInt rhs2 = ModExp(base, e1 * e2, m).value();
  EXPECT_EQ(lhs2, rhs2);
}

TEST(ModExpTest, NegativeBaseIsReduced) {
  // (-2)^3 mod 7 = -8 mod 7 = 6.
  EXPECT_EQ(ModExp(BigInt(-2), BigInt(3), BigInt(7)).value(), BigInt(6));
}

TEST(ModMulTest, MatchesDirectComputation) {
  BigInt a = Dec("987654321987654321");
  BigInt b = Dec("123456789123456789");
  BigInt m = Dec("1000000000000000003");
  EXPECT_EQ(ModMul(a, b, m), (a * b) % m);
}

TEST(CrtTest, RecombinesResidues) {
  // x = 2 mod 3, x = 3 mod 5 -> x = 8 mod 15.
  const BigInt garner = ModInverse(BigInt(3), BigInt(5)).value();
  EXPECT_EQ(CrtCombine(BigInt(2), BigInt(3), BigInt(3), BigInt(5), garner),
            BigInt(8));
}

TEST(CrtTest, RandomizedAgainstDefinition) {
  Rng rng(999);
  BigInt m1 = Dec("1000003");        // prime
  BigInt m2 = Dec("1000033");        // prime
  const BigInt garner = ModInverse(m1, m2).value();
  for (int i = 0; i < 20; ++i) {
    BigInt x = BigInt::RandomBelow(m1 * m2, rng);
    BigInt rebuilt = CrtCombine(x.Mod(m1), m1, x.Mod(m2), m2, garner);
    EXPECT_EQ(rebuilt, x);
  }
}

TEST(CrtTest, FailsForNonCoprimeModuli) {
  // Non-coprime moduli have no Garner constant to combine with.
  EXPECT_FALSE(ModInverse(BigInt(6), BigInt(9)).ok());
}

}  // namespace
}  // namespace ppgnn
