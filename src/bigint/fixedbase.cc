#include "bigint/fixedbase.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <utility>

#include "bigint/modular.h"

// ppgnn: secret(split, parts_, garner_)
//
// A spec's split is the caller's secret factor m1; with it, parts_ holds
// the moduli m1/m2, their contexts and combs, and garner_ the constant
// m1^{-1} mod m2. Control flow branches on the split_ / has_combs_
// configuration flags instead, never on these values.

namespace ppgnn {

namespace {

// ppgnn: stat_counter(g_created, g_fixed_bases_created)
std::atomic<uint64_t> g_created{0};
std::atomic<uint64_t> g_fixed_bases_created{0};

}  // namespace

uint64_t FixedBaseEngine::created_count() {
  return g_created.load(std::memory_order_relaxed);
}

Result<FixedBaseEngine> FixedBaseEngine::Create(const BigInt& base,
                                                const BigInt& modulus,
                                                int max_exponent_bits,
                                                int window) {
  if (max_exponent_bits < 1)
    return Status::InvalidArgument("fixed-base max_exponent_bits must be >= 1");
  if (window == 0) window = max_exponent_bits >= 768 ? 5 : 4;
  if (window < 1 || window > 8)
    return Status::InvalidArgument("fixed-base window must be in [1, 8]");
  PPGNN_ASSIGN_OR_RETURN(MontgomeryContext ctx,
                         MontgomeryContext::Create(modulus));
  FixedBaseEngine engine;
  engine.ctx_ = std::make_unique<MontgomeryContext>(std::move(ctx));
  const BigInt b = base.Mod(modulus);
  if (b.IsZero())
    return Status::InvalidArgument("fixed base is zero modulo the modulus");
  engine.window_ = window;
  const int windows = (max_exponent_bits + window - 1) / window;
  engine.capacity_bits_ = windows * window;
  const MontgomeryContext& mont = *engine.ctx_;
  const size_t L = mont.limbs();
  engine.base_mont_.resize(L);
  mont.ToMont(b, engine.base_mont_.data());

  // Squaring-free build: within a digit position the entries are a
  // running product by cur = base^{2^{j*w}}, and the next position's
  // generator is cur^{2^w} = entry(j, 2^w - 1) * cur.
  const size_t per_position = (size_t{1} << window) - 1;
  engine.table_.resize(static_cast<size_t>(windows) * per_position * L);
  std::vector<uint64_t> cur = engine.base_mont_;
  for (int j = 0; j < windows; ++j) {
    uint64_t* row =
        engine.table_.data() + static_cast<size_t>(j) * per_position * L;
    std::copy(cur.begin(), cur.end(), row);
    for (size_t c = 1; c < per_position; ++c) {
      mont.MontMul(row + c * L, row + (c - 1) * L, cur.data());
    }
    if (j + 1 < windows) {
      mont.MontMul(cur.data(), row + (per_position - 1) * L, cur.data());
    }
  }
  g_created.fetch_add(1, std::memory_order_relaxed);
  return engine;
}

Status FixedBaseEngine::PowDomain(const BigInt& exponent,
                                  uint64_t* out) const {
  if (exponent.IsNegative())
    return Status::InvalidArgument("negative exponent in fixed-base Pow");
  const size_t L = ctx_->limbs();
  const int bits = exponent.BitLength();
  if (bits > capacity_bits_) {
    // Wider than the precomputed span: same context, generic ladder —
    // identical residue, just without table support.
    ctx_->ExpDomain(out, base_mont_.data(), exponent);
    return Status::OK();
  }
  const size_t per_position = (size_t{1} << window_) - 1;
  const int digits = (bits + window_ - 1) / window_;
  bool started = false;
  for (int j = 0; j < digits; ++j) {
    const uint32_t digit = exponent.GetBits(j * window_, window_);
    if (digit == 0) continue;
    const uint64_t* entry =
        table_.data() +
        (static_cast<size_t>(j) * per_position + (digit - 1)) * L;
    if (started) {
      ctx_->MontMul(out, out, entry);
    } else {
      std::copy(entry, entry + L, out);
      started = true;
    }
  }
  if (!started) std::copy(ctx_->one(), ctx_->one() + L, out);
  return Status::OK();
}

Result<BigInt> FixedBaseEngine::Pow(const BigInt& exponent) const {
  std::vector<uint64_t> acc(ctx_->limbs());
  PPGNN_RETURN_IF_ERROR(PowDomain(exponent, acc.data()));
  return ctx_->FromMont(acc.data());
}

size_t FixedBaseEngine::table_entries() const {
  return static_cast<size_t>(capacity_bits_ / window_) *
         static_cast<size_t>((1 << window_) - 1);
}

size_t FixedBaseEngine::table_bytes() const {
  return table_.size() * sizeof(uint64_t);
}

// ---- FixedBase ----

uint64_t FixedBase::created_count() {
  return g_fixed_bases_created.load(std::memory_order_relaxed);
}

Result<BigInt> FixedBase::Part::Pow(const BigInt& e, bool use_comb) const {
  if (use_comb && comb != nullptr) return comb->Pow(e);
  if (ctx != nullptr) return ctx->ModExp(base, e);
  return ModExp(base, e, modulus);
}

Result<BigInt> FixedBase::Eval(const BigInt& e, bool use_comb) const {
  if (!split_) return parts_[0].Pow(e, use_comb);
  PPGNN_ASSIGN_OR_RETURN(BigInt r1, parts_[0].Pow(e, use_comb));
  PPGNN_ASSIGN_OR_RETURN(BigInt r2, parts_[1].Pow(e, use_comb));
  return CrtCombine(r1, parts_[0].modulus, r2, parts_[1].modulus, garner_);
}

Result<BigInt> FixedBase::Pow(const BigInt& e) const { return Eval(e, true); }

Result<BigInt> FixedBase::PowLadder(const BigInt& e) const {
  return Eval(e, false);
}

size_t FixedBase::comb_count() const {
  return has_combs_ ? parts_.size() : 0;
}

size_t FixedBase::table_bytes() const {
  size_t bytes = 0;
  // ppgnn-lint: allow(secret-flow): the trip count is the part count (1 or 2), not key bits
  for (const Part& part : parts_) {
    if (part.comb != nullptr) bytes += part.comb->table_bytes();
  }
  return bytes;
}

int FixedBase::max_exponent_bits() const {
  return has_combs_ ? parts_[0].comb->max_exponent_bits() : 0;
}

int FixedBase::window() const {
  return has_combs_ ? parts_[0].comb->window() : 0;
}

Result<std::unique_ptr<FixedBase>> FixedBase::Build(const FixedBaseSpec& spec) {
  if (spec.modulus < BigInt(2))
    return Status::InvalidArgument("fixed-base modulus must be >= 2");
  auto fixed = std::unique_ptr<FixedBase>(new FixedBase());
  // ppgnn-lint: allow(secret-flow): branches on whether a split was given (the caller's role), not on its bits
  if (!spec.split.IsZero()) {
    PPGNN_ASSIGN_OR_RETURN(auto qr, BigInt::DivMod(spec.modulus, spec.split));
    // ppgnn-lint: allow(secret-flow): rejects a malformed split once, at build time
    if (!qr.second.IsZero() || spec.split < BigInt(2) || qr.first < BigInt(2))
      return Status::InvalidArgument("fixed-base split does not factor M");
    PPGNN_ASSIGN_OR_RETURN(fixed->garner_, ModInverse(spec.split, qr.first));
    fixed->split_ = true;
    fixed->parts_.resize(2);
    fixed->parts_[0].modulus = spec.split;
    fixed->parts_[1].modulus = std::move(qr.first);
  } else {
    fixed->parts_.resize(1);
    fixed->parts_[0].modulus = spec.modulus;
  }
  const bool want_combs = spec.min_exponent_bits > 0;
  // ppgnn-lint: allow(secret-flow): the trip count is the part count (1 or 2), not key bits
  for (Part& part : fixed->parts_) {
    Result<MontgomeryContext> ctx = MontgomeryContext::Create(part.modulus);
    if (ctx.ok()) {
      part.ctx = std::make_unique<MontgomeryContext>(std::move(ctx).value());
      PPGNN_ASSIGN_OR_RETURN(part.base,
                             part.ctx->ModExp(spec.generator, spec.exponent));
    } else {
      if (want_combs) return ctx.status();
      PPGNN_ASSIGN_OR_RETURN(
          part.base, ModExp(spec.generator, spec.exponent, part.modulus));
    }
    if (want_combs) {
      PPGNN_ASSIGN_OR_RETURN(
          FixedBaseEngine comb,
          FixedBaseEngine::Create(part.base, part.modulus,
                                  spec.min_exponent_bits, spec.window));
      part.comb = std::make_unique<const FixedBaseEngine>(std::move(comb));
    }
  }
  fixed->has_combs_ = want_combs;
  g_fixed_bases_created.fetch_add(1, std::memory_order_relaxed);
  return fixed;
}

namespace {

// Process-wide (generator, exponent, modulus, split) -> FixedBase cache.
// Small and bounded: a process touches a handful of keys (each
// contributes one blinding base per ciphertext level), so a linear scan
// under one mutex is cheaper than hashing multi-thousand-bit integers.
// Builds run under the mutex, so concurrent first use of a key builds
// its state exactly once.
struct RegistryEntry {
  BigInt generator;
  BigInt exponent;
  BigInt modulus;
  BigInt split;
  std::shared_ptr<const FixedBase> fixed;
};

constexpr size_t kMaxRegistryEntries = 32;

std::mutex g_registry_mu;
std::vector<RegistryEntry>& Registry() {
  static std::vector<RegistryEntry>* r = new std::vector<RegistryEntry>();
  return *r;
}
// ppgnn: guarded_by(g_registry_hits, g_registry_mu)
uint64_t g_registry_hits = 0;
// ppgnn: guarded_by(g_registry_misses, g_registry_mu)
uint64_t g_registry_misses = 0;
// ppgnn: guarded_by(g_registry_evictions, g_registry_mu)
uint64_t g_registry_evictions = 0;

bool Satisfies(const FixedBase& fixed, const FixedBaseSpec& spec) {
  if (spec.min_exponent_bits <= 0) return true;
  return fixed.has_combs() &&
         fixed.max_exponent_bits() >= spec.min_exponent_bits &&
         (spec.window == 0 || fixed.window() == spec.window);
}

}  // namespace

std::shared_ptr<const FixedBase> SharedFixedBase(const FixedBaseSpec& spec) {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  std::vector<RegistryEntry>& reg = Registry();
  for (auto it = reg.begin(); it != reg.end(); ++it) {
    // ppgnn-lint: allow(secret-flow): cache-key match inside this process; the outcome picks a cached entry and is never emitted
    if (it->split != spec.split || it->modulus != spec.modulus ||
        it->generator != spec.generator || it->exponent != spec.exponent) {
      continue;
    }
    if (Satisfies(*it->fixed, spec)) {
      ++g_registry_hits;
      return it->fixed;
    }
    // Cached but without combs, too narrow, or the wrong width: drop it
    // and rebuild below (holders of the old one keep it alive).
    reg.erase(it);
    break;
  }
  ++g_registry_misses;
  Result<std::unique_ptr<FixedBase>> built = FixedBase::Build(spec);
  if (!built.ok()) return nullptr;
  if (reg.size() >= kMaxRegistryEntries) {
    reg.erase(reg.begin());
    ++g_registry_evictions;
  }
  std::shared_ptr<const FixedBase> fixed = std::move(built).value();
  reg.push_back(RegistryEntry{spec.generator, spec.exponent, spec.modulus,
                              spec.split, fixed});
  return fixed;
}

FixedBaseRegistryStats SharedFixedBaseRegistryStats() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  FixedBaseRegistryStats stats;
  stats.hits = g_registry_hits;
  stats.misses = g_registry_misses;
  stats.evictions = g_registry_evictions;
  for (const RegistryEntry& e : Registry()) {
    stats.engines += e.fixed->comb_count();
    stats.table_bytes += e.fixed->table_bytes();
  }
  return stats;
}

}  // namespace ppgnn
