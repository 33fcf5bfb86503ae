#include "bigint/bigint.h"

#include <algorithm>
#include <cstring>
#include <ostream>

namespace ppgnn {
namespace {

using u128 = unsigned __int128;

constexpr size_t kKaratsubaThreshold = 24;  // limbs

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

// out += a, magnitudes, in place; out sized to fit.
void MagAddInPlace(std::vector<uint64_t>& out, const std::vector<uint64_t>& a,
                   size_t shift_limbs) {
  if (out.size() < a.size() + shift_limbs) out.resize(a.size() + shift_limbs, 0);
  uint64_t carry = 0;
  size_t i = 0;
  for (; i < a.size(); ++i) {
    u128 sum = static_cast<u128>(out[i + shift_limbs]) + a[i] + carry;
    out[i + shift_limbs] = static_cast<uint64_t>(sum);
    carry = static_cast<uint64_t>(sum >> 64);
  }
  for (; carry != 0; ++i) {
    if (i + shift_limbs >= out.size()) {
      out.push_back(carry);
      carry = 0;
    } else {
      u128 sum = static_cast<u128>(out[i + shift_limbs]) + carry;
      out[i + shift_limbs] = static_cast<uint64_t>(sum);
      carry = static_cast<uint64_t>(sum >> 64);
    }
  }
}

}  // namespace

BigInt::BigInt(int64_t value) {
  if (value == 0) return;
  sign_ = value < 0 ? -1 : 1;
  // Careful with INT64_MIN: negate in unsigned domain.
  uint64_t mag = value < 0 ? ~static_cast<uint64_t>(value) + 1
                           : static_cast<uint64_t>(value);
  limbs_.push_back(mag);
}

BigInt::BigInt(uint64_t value) {
  if (value == 0) return;
  sign_ = 1;
  limbs_.push_back(value);
}

void BigInt::Trim(std::vector<uint64_t>& limbs) {
  while (!limbs.empty() && limbs.back() == 0) limbs.pop_back();
}

void BigInt::Normalize() {
  Trim(limbs_);
  if (limbs_.empty()) sign_ = 0;
}

Result<BigInt> BigInt::FromDecimal(const std::string& text) {
  if (text.empty()) return Status::InvalidArgument("empty decimal string");
  size_t pos = 0;
  bool negative = false;
  if (text[0] == '-' || text[0] == '+') {
    negative = text[0] == '-';
    pos = 1;
  }
  if (pos == text.size())
    return Status::InvalidArgument("decimal string has no digits");
  BigInt out;
  // Process 19 digits (max power of 10 < 2^64) at a time.
  constexpr uint64_t kChunkBase = 10000000000000000000ULL;
  constexpr int kChunkDigits = 19;
  size_t n = text.size();
  size_t i = pos;
  while (i < n) {
    size_t take = std::min<size_t>(kChunkDigits, n - i);
    uint64_t chunk = 0;
    uint64_t scale = 1;
    for (size_t j = 0; j < take; ++j) {
      char c = text[i + j];
      if (c < '0' || c > '9')
        return Status::InvalidArgument("invalid decimal digit");
      chunk = chunk * 10 + static_cast<uint64_t>(c - '0');
      scale *= 10;
    }
    if (take == kChunkDigits) scale = kChunkBase;
    out = out * BigInt(scale) + BigInt(chunk);
    i += take;
  }
  if (negative && !out.IsZero()) out.sign_ = -1;
  return out;
}

Result<BigInt> BigInt::FromHex(const std::string& text) {
  if (text.empty()) return Status::InvalidArgument("empty hex string");
  size_t pos = 0;
  bool negative = false;
  if (text[0] == '-' || text[0] == '+') {
    negative = text[0] == '-';
    pos = 1;
  }
  if (pos == text.size())
    return Status::InvalidArgument("hex string has no digits");
  BigInt out;
  size_t digits = text.size() - pos;
  out.limbs_.assign((digits + 15) / 16, 0);
  for (size_t i = pos; i < text.size(); ++i) {
    int d = HexDigit(text[i]);
    if (d < 0) return Status::InvalidArgument("invalid hex digit");
    size_t bit = (text.size() - 1 - i) * 4;
    out.limbs_[bit / 64] |= static_cast<uint64_t>(d) << (bit % 64);
  }
  out.sign_ = 1;
  out.Normalize();
  if (negative && !out.IsZero()) out.sign_ = -1;
  return out;
}

BigInt BigInt::FromBytes(const std::vector<uint8_t>& bytes) {
  BigInt out;
  out.limbs_.assign((bytes.size() + 7) / 8, 0);
  for (size_t i = 0; i < bytes.size(); ++i) {
    size_t bit = (bytes.size() - 1 - i) * 8;
    out.limbs_[bit / 64] |= static_cast<uint64_t>(bytes[i]) << (bit % 64);
  }
  out.sign_ = 1;
  out.Normalize();
  return out;
}

BigInt BigInt::Random(int bits, Rng& rng) {
  BigInt out;
  if (bits <= 0) return out;
  int limbs = (bits + 63) / 64;
  out.limbs_.resize(limbs);
  for (auto& l : out.limbs_) l = rng.NextUint64();
  int top_bits = bits % 64;
  if (top_bits != 0) out.limbs_.back() &= (~0ULL >> (64 - top_bits));
  out.sign_ = 1;
  out.Normalize();
  return out;
}

BigInt BigInt::RandomBelow(const BigInt& bound, Rng& rng) {
  // Rejection sampling over [0, 2^bits).
  int bits = bound.BitLength();
  while (true) {
    BigInt candidate = Random(bits, rng);
    if (candidate < bound) return candidate;
  }
}

BigInt BigInt::FromLimbs(std::vector<uint64_t> limbs) {
  BigInt out;
  out.limbs_ = std::move(limbs);
  out.sign_ = 1;
  out.Normalize();
  return out;
}

BigInt BigInt::Pow2(int exponent) {
  BigInt out;
  out.limbs_.assign(exponent / 64 + 1, 0);
  out.limbs_.back() = 1ULL << (exponent % 64);
  out.sign_ = 1;
  return out;
}

int BigInt::BitLength() const {
  if (limbs_.empty()) return 0;
  int top = 64 - __builtin_clzll(limbs_.back());
  return static_cast<int>((limbs_.size() - 1) * 64) + top;
}

bool BigInt::GetBit(int i) const {
  size_t limb = static_cast<size_t>(i) / 64;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 64)) & 1;
}

uint32_t BigInt::GetBits(int pos, int width) const {
  const size_t limb = static_cast<size_t>(pos) / 64;
  const int shift = pos % 64;
  if (limb >= limbs_.size()) return 0;
  uint64_t word = limbs_[limb] >> shift;
  if (shift + width > 64 && limb + 1 < limbs_.size()) {
    word |= limbs_[limb + 1] << (64 - shift);
  }
  return static_cast<uint32_t>(word & ((uint64_t{1} << width) - 1));
}

BigInt BigInt::Abs() const {
  BigInt out = *this;
  if (out.sign_ < 0) out.sign_ = 1;
  return out;
}

BigInt BigInt::Negated() const {
  BigInt out = *this;
  out.sign_ = -out.sign_;
  return out;
}

Result<uint64_t> BigInt::ToUint64() const {
  if (sign_ < 0) return Status::OutOfRange("negative value in ToUint64");
  if (limbs_.size() > 1) return Status::OutOfRange("value exceeds 64 bits");
  return limbs_.empty() ? 0ULL : limbs_[0];
}

std::string BigInt::ToDecimal() const {
  if (IsZero()) return "0";
  // Repeated division by 10^19.
  constexpr uint64_t kChunkBase = 10000000000000000000ULL;
  std::vector<uint64_t> mag = limbs_;
  std::vector<uint64_t> chunks;
  while (!mag.empty()) {
    u128 rem = 0;
    for (size_t i = mag.size(); i-- > 0;) {
      u128 cur = (rem << 64) | mag[i];
      mag[i] = static_cast<uint64_t>(cur / kChunkBase);
      rem = cur % kChunkBase;
    }
    Trim(mag);
    chunks.push_back(static_cast<uint64_t>(rem));
  }
  std::string out;
  if (sign_ < 0) out.push_back('-');
  out += std::to_string(chunks.back());
  for (size_t i = chunks.size() - 1; i-- > 0;) {
    std::string part = std::to_string(chunks[i]);
    out.append(19 - part.size(), '0');
    out += part;
  }
  return out;
}

std::string BigInt::ToHex() const {
  if (IsZero()) return "0";
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  if (sign_ < 0) out.push_back('-');
  bool leading = true;
  for (size_t i = limbs_.size(); i-- > 0;) {
    for (int nib = 15; nib >= 0; --nib) {
      int d = static_cast<int>((limbs_[i] >> (nib * 4)) & 0xf);
      if (leading && d == 0) continue;
      leading = false;
      out.push_back(kDigits[d]);
    }
  }
  return out;
}

std::vector<uint8_t> BigInt::ToBytes() const {
  if (IsZero()) return {};
  size_t nbytes = static_cast<size_t>((BitLength() + 7) / 8);
  std::vector<uint8_t> out(nbytes);
  for (size_t i = 0; i < nbytes; ++i) {
    size_t bit = (nbytes - 1 - i) * 8;
    out[i] = static_cast<uint8_t>(limbs_[bit / 64] >> (bit % 64));
  }
  return out;
}

Result<std::vector<uint8_t>> BigInt::ToBytesPadded(size_t width) const {
  std::vector<uint8_t> raw = ToBytes();
  if (raw.size() > width)
    return Status::OutOfRange("value does not fit in padded width");
  std::vector<uint8_t> out(width - raw.size(), 0);
  out.insert(out.end(), raw.begin(), raw.end());
  return out;
}

// --- comparison ---

int BigInt::MagCompare(const std::vector<uint64_t>& a,
                       const std::vector<uint64_t>& b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

bool operator==(const BigInt& a, const BigInt& b) {
  return a.sign_ == b.sign_ && a.limbs_ == b.limbs_;
}

std::strong_ordering operator<=>(const BigInt& a, const BigInt& b) {
  if (a.sign_ != b.sign_)
    return a.sign_ < b.sign_ ? std::strong_ordering::less
                             : std::strong_ordering::greater;
  int mag = BigInt::MagCompare(a.limbs_, b.limbs_);
  int cmp = a.sign_ >= 0 ? mag : -mag;
  if (cmp < 0) return std::strong_ordering::less;
  if (cmp > 0) return std::strong_ordering::greater;
  return std::strong_ordering::equal;
}

// --- magnitude arithmetic ---

std::vector<uint64_t> BigInt::MagAdd(const std::vector<uint64_t>& a,
                                     const std::vector<uint64_t>& b) {
  const auto& longer = a.size() >= b.size() ? a : b;
  const auto& shorter = a.size() >= b.size() ? b : a;
  std::vector<uint64_t> out(longer.size());
  uint64_t carry = 0;
  for (size_t i = 0; i < longer.size(); ++i) {
    u128 sum = static_cast<u128>(longer[i]) + carry;
    if (i < shorter.size()) sum += shorter[i];
    out[i] = static_cast<uint64_t>(sum);
    carry = static_cast<uint64_t>(sum >> 64);
  }
  if (carry) out.push_back(carry);
  return out;
}

std::vector<uint64_t> BigInt::MagSub(const std::vector<uint64_t>& a,
                                     const std::vector<uint64_t>& b) {
  std::vector<uint64_t> out(a.size());
  uint64_t borrow = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    uint64_t bi = i < b.size() ? b[i] : 0;
    u128 diff = static_cast<u128>(a[i]) - bi - borrow;
    out[i] = static_cast<uint64_t>(diff);
    borrow = static_cast<uint64_t>((diff >> 64) & 1);
  }
  Trim(out);
  return out;
}

std::vector<uint64_t> BigInt::MagMulSchoolbook(const std::vector<uint64_t>& a,
                                               const std::vector<uint64_t>& b) {
  if (a.empty() || b.empty()) return {};
  std::vector<uint64_t> out(a.size() + b.size(), 0);
  for (size_t i = 0; i < a.size(); ++i) {
    uint64_t carry = 0;
    uint64_t ai = a[i];
    if (ai == 0) continue;
    for (size_t j = 0; j < b.size(); ++j) {
      u128 cur = static_cast<u128>(ai) * b[j] + out[i + j] + carry;
      out[i + j] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    out[i + b.size()] += carry;
  }
  Trim(out);
  return out;
}

std::vector<uint64_t> BigInt::MagMulKaratsuba(const std::vector<uint64_t>& a,
                                              const std::vector<uint64_t>& b) {
  if (a.size() < kKaratsubaThreshold || b.size() < kKaratsubaThreshold) {
    return MagMulSchoolbook(a, b);
  }
  size_t half = std::max(a.size(), b.size()) / 2;
  auto lo = [&](const std::vector<uint64_t>& v) {
    std::vector<uint64_t> out(v.begin(), v.begin() + std::min(half, v.size()));
    Trim(out);
    return out;
  };
  auto hi = [&](const std::vector<uint64_t>& v) {
    if (v.size() <= half) return std::vector<uint64_t>{};
    std::vector<uint64_t> out(v.begin() + half, v.end());
    return out;
  };
  std::vector<uint64_t> a0 = lo(a), a1 = hi(a);
  std::vector<uint64_t> b0 = lo(b), b1 = hi(b);

  std::vector<uint64_t> z0 = MagMulKaratsuba(a0, b0);
  std::vector<uint64_t> z2 = MagMulKaratsuba(a1, b1);
  std::vector<uint64_t> sa = MagAdd(a0, a1);
  std::vector<uint64_t> sb = MagAdd(b0, b1);
  std::vector<uint64_t> z1 = MagMulKaratsuba(sa, sb);
  z1 = MagSub(z1, z0);
  z1 = MagSub(z1, z2);

  std::vector<uint64_t> out = z0;
  MagAddInPlace(out, z1, half);
  MagAddInPlace(out, z2, 2 * half);
  Trim(out);
  return out;
}

std::vector<uint64_t> BigInt::MagMul(const std::vector<uint64_t>& a,
                                     const std::vector<uint64_t>& b) {
  return MagMulKaratsuba(a, b);
}

void BigInt::MagDivMod(const std::vector<uint64_t>& a,
                       const std::vector<uint64_t>& b,
                       std::vector<uint64_t>* quotient,
                       std::vector<uint64_t>* remainder) {
  // Fast paths.
  if (MagCompare(a, b) < 0) {
    quotient->clear();
    *remainder = a;
    Trim(*remainder);
    return;
  }
  if (b.size() == 1) {
    uint64_t divisor = b[0];
    quotient->assign(a.size(), 0);
    u128 rem = 0;
    for (size_t i = a.size(); i-- > 0;) {
      u128 cur = (rem << 64) | a[i];
      (*quotient)[i] = static_cast<uint64_t>(cur / divisor);
      rem = cur % divisor;
    }
    Trim(*quotient);
    remainder->clear();
    if (rem != 0) remainder->push_back(static_cast<uint64_t>(rem));
    return;
  }

  // Knuth TAOCP vol. 2, Algorithm D.
  const size_t n = b.size();
  const size_t m = a.size() - n;
  const int shift = __builtin_clzll(b.back());

  // Normalized divisor v and dividend u (u has an extra high limb).
  std::vector<uint64_t> v(n);
  for (size_t i = n; i-- > 0;) {
    v[i] = b[i] << shift;
    if (shift && i > 0) v[i] |= b[i - 1] >> (64 - shift);
  }
  std::vector<uint64_t> u(a.size() + 1, 0);
  for (size_t i = a.size(); i-- > 0;) {
    u[i] = a[i] << shift;
    if (shift && i > 0) u[i] |= a[i - 1] >> (64 - shift);
  }
  if (shift) u[a.size()] = a.back() >> (64 - shift);

  quotient->assign(m + 1, 0);
  const uint64_t vtop = v[n - 1];
  const uint64_t vsecond = v[n - 2];

  for (size_t j = m + 1; j-- > 0;) {
    // Estimate q̂ = (u[j+n]·B + u[j+n-1]) / v[n-1].
    u128 numerator = (static_cast<u128>(u[j + n]) << 64) | u[j + n - 1];
    u128 qhat = numerator / vtop;
    u128 rhat = numerator % vtop;
    if (qhat > ~0ULL) {
      qhat = ~0ULL;
      rhat = numerator - qhat * vtop;
    }
    while (rhat <= ~0ULL &&
           qhat * vsecond > ((rhat << 64) | u[j + n - 2])) {
      --qhat;
      rhat += vtop;
    }

    // u[j..j+n] -= q̂ · v.
    uint64_t q64 = static_cast<uint64_t>(qhat);
    u128 borrow = 0;
    u128 carry = 0;
    for (size_t i = 0; i < n; ++i) {
      u128 prod = static_cast<u128>(q64) * v[i] + carry;
      carry = prod >> 64;
      u128 diff = static_cast<u128>(u[j + i]) - static_cast<uint64_t>(prod) -
                  static_cast<uint64_t>(borrow);
      u[j + i] = static_cast<uint64_t>(diff);
      borrow = (diff >> 64) & 1;
    }
    u128 diff = static_cast<u128>(u[j + n]) - carry - borrow;
    u[j + n] = static_cast<uint64_t>(diff);
    bool negative = ((diff >> 64) & 1) != 0;

    if (negative) {
      // q̂ was one too large; add v back.
      --q64;
      u128 carry2 = 0;
      for (size_t i = 0; i < n; ++i) {
        u128 sum = static_cast<u128>(u[j + i]) + v[i] + carry2;
        u[j + i] = static_cast<uint64_t>(sum);
        carry2 = sum >> 64;
      }
      u[j + n] += static_cast<uint64_t>(carry2);
    }
    (*quotient)[j] = q64;
  }

  Trim(*quotient);
  // Denormalize the remainder.
  remainder->assign(n, 0);
  for (size_t i = 0; i < n; ++i) {
    (*remainder)[i] = u[i] >> shift;
    if (shift && i + 1 < u.size()) (*remainder)[i] |= u[i + 1] << (64 - shift);
  }
  Trim(*remainder);
}

// --- signed arithmetic ---

BigInt operator+(const BigInt& a, const BigInt& b) {
  if (a.sign_ == 0) return b;
  if (b.sign_ == 0) return a;
  BigInt out;
  if (a.sign_ == b.sign_) {
    out.limbs_ = BigInt::MagAdd(a.limbs_, b.limbs_);
    out.sign_ = a.sign_;
  } else {
    int cmp = BigInt::MagCompare(a.limbs_, b.limbs_);
    if (cmp == 0) return BigInt();
    if (cmp > 0) {
      out.limbs_ = BigInt::MagSub(a.limbs_, b.limbs_);
      out.sign_ = a.sign_;
    } else {
      out.limbs_ = BigInt::MagSub(b.limbs_, a.limbs_);
      out.sign_ = b.sign_;
    }
  }
  out.Normalize();
  return out;
}

BigInt operator-(const BigInt& a, const BigInt& b) { return a + b.Negated(); }

BigInt operator*(const BigInt& a, const BigInt& b) {
  if (a.sign_ == 0 || b.sign_ == 0) return BigInt();
  BigInt out;
  out.limbs_ = BigInt::MagMul(a.limbs_, b.limbs_);
  out.sign_ = a.sign_ * b.sign_;
  out.Normalize();
  return out;
}

Result<std::pair<BigInt, BigInt>> BigInt::DivMod(const BigInt& a,
                                                 const BigInt& b) {
  if (b.IsZero()) return Status::InvalidArgument("division by zero");
  BigInt q, r;
  MagDivMod(a.limbs_, b.limbs_, &q.limbs_, &r.limbs_);
  q.sign_ = q.limbs_.empty() ? 0 : a.sign_ * b.sign_;
  r.sign_ = r.limbs_.empty() ? 0 : a.sign_;
  return std::make_pair(std::move(q), std::move(r));
}

BigInt operator/(const BigInt& a, const BigInt& b) {
  auto qr = BigInt::DivMod(a, b);
  // ppgnn-lint: allow(unchecked-result): operator/ has no error channel; division by zero must abort, matching built-in integer semantics
  return qr.value().first;
}

BigInt operator%(const BigInt& a, const BigInt& b) {
  auto qr = BigInt::DivMod(a, b);
  // ppgnn-lint: allow(unchecked-result): operator% has no error channel; division by zero must abort, matching built-in integer semantics
  return qr.value().second;
}

BigInt BigInt::Mod(const BigInt& m) const {
  BigInt r = *this % m;
  if (r.sign_ < 0) r = r + m.Abs();
  return r;
}

BigInt operator<<(const BigInt& a, int shift) {
  if (a.sign_ == 0 || shift == 0) return a;
  if (shift < 0) return a >> (-shift);
  size_t limb_shift = static_cast<size_t>(shift) / 64;
  int bit_shift = shift % 64;
  BigInt out;
  out.sign_ = a.sign_;
  out.limbs_.assign(a.limbs_.size() + limb_shift + 1, 0);
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    out.limbs_[i + limb_shift] |= a.limbs_[i] << bit_shift;
    if (bit_shift)
      out.limbs_[i + limb_shift + 1] |= a.limbs_[i] >> (64 - bit_shift);
  }
  out.Normalize();
  return out;
}

BigInt operator>>(const BigInt& a, int shift) {
  if (a.sign_ == 0 || shift == 0) return a;
  if (shift < 0) return a << (-shift);
  size_t limb_shift = static_cast<size_t>(shift) / 64;
  int bit_shift = shift % 64;
  if (limb_shift >= a.limbs_.size()) return BigInt();
  BigInt out;
  out.sign_ = a.sign_;
  out.limbs_.assign(a.limbs_.size() - limb_shift, 0);
  for (size_t i = 0; i < out.limbs_.size(); ++i) {
    out.limbs_[i] = a.limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift && i + limb_shift + 1 < a.limbs_.size())
      out.limbs_[i] |= a.limbs_[i + limb_shift + 1] << (64 - bit_shift);
  }
  out.Normalize();
  return out;
}

std::ostream& operator<<(std::ostream& os, const BigInt& v) {
  return os << v.ToDecimal();
}

}  // namespace ppgnn
