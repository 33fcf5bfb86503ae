// Arbitrary-precision signed integers.
//
// The paper's implementation used GMP; this reproduction implements the
// bignum substrate from scratch. Representation is sign-magnitude with
// little-endian 64-bit limbs. Multiplication switches from schoolbook to
// Karatsuba above a threshold; division is Knuth's Algorithm D.
//
// BigInt is a regular value type: copyable, movable, equality-comparable,
// and totally ordered. All arithmetic is exact.

#ifndef PPGNN_BIGINT_BIGINT_H_
#define PPGNN_BIGINT_BIGINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"

namespace ppgnn {

class BigInt {
 public:
  /// Zero.
  BigInt() = default;
  /// Conversion from native integers is implicit by design: BigInt is a
  /// drop-in numeric type and mixed expressions like `x + 1` abound.
  BigInt(int64_t value);   // NOLINT(runtime/explicit)
  BigInt(uint64_t value);  // NOLINT(runtime/explicit)
  BigInt(int value) : BigInt(static_cast<int64_t>(value)) {}  // NOLINT

  /// Parses a base-10 string with optional leading '-'.
  static Result<BigInt> FromDecimal(const std::string& text);
  /// Parses a base-16 string (no 0x prefix) with optional leading '-'.
  static Result<BigInt> FromHex(const std::string& text);
  /// Builds a non-negative integer from big-endian magnitude bytes.
  static BigInt FromBytes(const std::vector<uint8_t>& bytes);
  /// Uniformly random integer in [0, 2^bits).
  static BigInt Random(int bits, Rng& rng);
  /// Uniformly random integer in [0, bound); bound must be positive.
  static BigInt RandomBelow(const BigInt& bound, Rng& rng);
  /// 2^exponent.
  static BigInt Pow2(int exponent);

  bool IsZero() const { return sign_ == 0; }
  bool IsNegative() const { return sign_ < 0; }
  bool IsOdd() const { return sign_ != 0 && (limbs_[0] & 1) != 0; }
  bool IsOne() const { return sign_ == 1 && limbs_.size() == 1 && limbs_[0] == 1; }

  /// Number of significant bits of |this| (0 for zero).
  int BitLength() const;
  /// Bit i (LSB = 0) of the magnitude.
  bool GetBit(int i) const;
  /// Bits [pos, pos + width) of the magnitude as an integer whose LSB is
  /// bit pos (bits past the top read as zero). 1 <= width <= 32.
  uint32_t GetBits(int pos, int width) const;

  /// Sign: -1, 0, or +1.
  int sign() const { return sign_; }
  BigInt Abs() const;
  BigInt Negated() const;

  /// Value as uint64_t. Requires 0 <= *this < 2^64.
  Result<uint64_t> ToUint64() const;
  /// Low 64 bits of the magnitude (0 for zero); sign ignored.
  uint64_t Low64() const { return limbs_.empty() ? 0 : limbs_[0]; }

  std::string ToDecimal() const;
  std::string ToHex() const;
  /// Big-endian magnitude bytes, no sign, minimal length ("" for zero).
  std::vector<uint8_t> ToBytes() const;
  /// Big-endian magnitude padded with leading zeros to exactly `width`
  /// bytes. Requires the value to fit.
  Result<std::vector<uint8_t>> ToBytesPadded(size_t width) const;

  // Comparison. Total order over the integers.
  friend bool operator==(const BigInt& a, const BigInt& b);
  friend std::strong_ordering operator<=>(const BigInt& a, const BigInt& b);

  // Arithmetic.
  friend BigInt operator+(const BigInt& a, const BigInt& b);
  friend BigInt operator-(const BigInt& a, const BigInt& b);
  friend BigInt operator*(const BigInt& a, const BigInt& b);
  /// Truncated division (C++ semantics: quotient rounds toward zero).
  friend BigInt operator/(const BigInt& a, const BigInt& b);
  /// Remainder with the sign of the dividend (C++ semantics).
  friend BigInt operator%(const BigInt& a, const BigInt& b);
  friend BigInt operator<<(const BigInt& a, int shift);
  friend BigInt operator>>(const BigInt& a, int shift);

  BigInt& operator+=(const BigInt& b) { return *this = *this + b; }
  BigInt& operator-=(const BigInt& b) { return *this = *this - b; }
  BigInt& operator*=(const BigInt& b) { return *this = *this * b; }
  BigInt& operator/=(const BigInt& b) { return *this = *this / b; }
  BigInt& operator%=(const BigInt& b) { return *this = *this % b; }
  BigInt& operator<<=(int s) { return *this = *this << s; }
  BigInt& operator>>=(int s) { return *this = *this >> s; }

  /// Quotient and remainder in one pass (truncated semantics). Division by
  /// zero returns an error.
  static Result<std::pair<BigInt, BigInt>> DivMod(const BigInt& a,
                                                  const BigInt& b);

  /// Non-negative remainder in [0, |m|). Requires m != 0.
  BigInt Mod(const BigInt& m) const;

  /// Number of limbs (testing / instrumentation).
  size_t LimbCount() const { return limbs_.size(); }

  /// Little-endian 64-bit limbs of the magnitude (no trailing zeros).
  /// Exposed for limb-level algorithms (Montgomery arithmetic).
  const std::vector<uint64_t>& Limbs() const { return limbs_; }

  /// Builds a non-negative value from little-endian limbs.
  static BigInt FromLimbs(std::vector<uint64_t> limbs);

 private:
  friend class BigIntTestPeer;

  // --- magnitude helpers (ignore sign) ---
  static std::vector<uint64_t> MagAdd(const std::vector<uint64_t>& a,
                                      const std::vector<uint64_t>& b);
  // Requires |a| >= |b|.
  static std::vector<uint64_t> MagSub(const std::vector<uint64_t>& a,
                                      const std::vector<uint64_t>& b);
  static int MagCompare(const std::vector<uint64_t>& a,
                        const std::vector<uint64_t>& b);
  static std::vector<uint64_t> MagMul(const std::vector<uint64_t>& a,
                                      const std::vector<uint64_t>& b);
  static std::vector<uint64_t> MagMulSchoolbook(const std::vector<uint64_t>& a,
                                                const std::vector<uint64_t>& b);
  static std::vector<uint64_t> MagMulKaratsuba(const std::vector<uint64_t>& a,
                                               const std::vector<uint64_t>& b);
  // Knuth Algorithm D on magnitudes; b non-zero.
  static void MagDivMod(const std::vector<uint64_t>& a,
                        const std::vector<uint64_t>& b,
                        std::vector<uint64_t>* quotient,
                        std::vector<uint64_t>* remainder);
  static void Trim(std::vector<uint64_t>& limbs);

  void Normalize();

  int sign_ = 0;                 // -1, 0, +1; zero iff limbs_ empty.
  std::vector<uint64_t> limbs_;  // little-endian, no trailing zero limbs.
};

inline bool operator!=(const BigInt& a, const BigInt& b) { return !(a == b); }

std::ostream& operator<<(std::ostream& os, const BigInt& v);

}  // namespace ppgnn

#endif  // PPGNN_BIGINT_BIGINT_H_
