#include "core/sanitize.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace ppgnn {
namespace {

// F folded over one more per-user distance (Eqn 1).
template <AggregateKind K>
inline double Fold(double acc, double dist) {
  if constexpr (K == AggregateKind::kSum) {
    return acc + dist;
  } else if constexpr (K == AggregateKind::kMax) {
    return std::max(acc, dist);
  } else {
    return std::min(acc, dist);
  }
}

template <AggregateKind K>
constexpr double FoldIdentity() {
  return K == AggregateKind::kMin ? std::numeric_limits<double>::infinity()
                                  : 0.0;
}

// Is the sample whose distances to p_0..p_{t-1} are `dist` in the solution
// region of Eqn 14 for the target whose colluder aggregates are `partial`?
// Branch-free: hit or miss is a coin flip no predictor can learn.
template <AggregateKind K>
inline bool InRegion(const double* partial, const double* dist, size_t t) {
  double prev = Fold<K>(partial[0], dist[0]);
  bool in = true;
  for (size_t i = 1; i < t; ++i) {
    double cur = Fold<K>(partial[i], dist[i]);
    in &= !(prev > cur);
    prev = cur;
  }
  return in;
}

// Sample points of the unit square, drawn from the stream in blocks. The
// i-th point taken is the i-th (x, y) pair of NextDouble() values.
class PointStream {
 public:
  explicit PointStream(Rng& rng) : rng_(rng) {}

  Point Next() {
    if (next_ == kBlock) {
      rng_.FillDoubles(coords_, 2 * kBlock);
      next_ = 0;
    }
    const Point p{coords_[2 * next_], coords_[2 * next_ + 1]};
    ++next_;
    return p;
  }

 private:
  static constexpr size_t kBlock = 64;
  Rng& rng_;
  double coords_[2 * kBlock];
  size_t next_ = kBlock;
};

// Runs the prefix-serial, target-parallel walk of sanitize.h over the
// n x k colluder aggregates `partial` ([target * k + i]: F at p_i over
// every user but the target) and returns the safe prefix length.
// `dis(i, x)` is Dis(p_i, x).
//
// A slot holds one undecided test of the current prefix; slots stay in
// target order. All of them have consumed the same `used` samples, so a
// test's misses are used - hits. No test can reach reject_hits or
// accept_misses within the next `quiet` samples, so those run without
// verdict checks; the verdicts fall on exactly the samples a per-sample
// check would find.
template <AggregateKind K, typename DisFn>
size_t SafePrefixLength(const std::vector<double>& partial, size_t n,
                        size_t k, DisFn dis, SequentialVerdictCounts verdict,
                        Rng& rng, SanitizeStats& stats) {
  const uint64_t reject_hits = verdict.reject_hits;
  const uint64_t accept_misses = verdict.accept_misses;
  std::vector<double> dist(k);           // [i]: Dis(p_i, x) for this x
  std::vector<const double*> row(n);     // [slot]: its target's partials
  std::vector<uint64_t> hits(n);         // [slot]: samples in the region
  PointStream stream(rng);
  size_t safe_len = 1;
  for (size_t t = 2; t <= k; ++t) {
    stats.tests_run += n;
    if (accept_misses == 0) break;
    size_t live = reject_hits == 0 ? 0 : n;
    for (size_t s = 0; s < live; ++s) {
      row[s] = &partial[s * k];
      hits[s] = 0;
    }
    uint64_t used = 0;
    bool unsafe = false;
    while (live > 0 && !unsafe) {
      const auto [min_hits, max_hits] =
          std::minmax_element(hits.begin(), hits.begin() + live);
      const uint64_t quiet = std::min(reject_hits - *max_hits,
                                      accept_misses - (used - *min_hits));
      for (uint64_t q = 0; q < quiet; ++q) {
        const Point x = stream.Next();
        for (size_t i = 0; i < t; ++i) dist[i] = dis(i, x);
        for (size_t s = 0; s < live; ++s) {
          hits[s] += InRegion<K>(row[s], dist.data(), t);
        }
      }
      used += quiet;
      stats.samples_drawn += quiet;
      stats.test_samples += quiet * live;
      // A not-reject ends the walk; a reject drops the target.
      size_t kept = 0;
      for (size_t s = 0; s < live && !unsafe; ++s) {
        unsafe = used - hits[s] == accept_misses;
        if (hits[s] == reject_hits) continue;
        row[kept] = row[s];
        hits[kept] = hits[s];
        ++kept;
      }
      live = kept;
    }
    if (unsafe) break;
    safe_len = t;
  }
  return safe_len;
}

template <AggregateKind K>
size_t SafePrefixLength(const std::vector<RankedPoi>& answer,
                        const std::vector<Point>& locations,
                        const DistanceOracle* oracle,
                        SequentialVerdictCounts verdict, Rng& rng,
                        SanitizeStats& stats) {
  const size_t n = locations.size();
  const size_t k = answer.size();
  std::vector<double> partial(n * k);

  // Colluder aggregates: for target j and POI i, F over every user but j.
  std::vector<double> user_dist(n);
  for (size_t i = 0; i < k; ++i) {
    const Point& poi = answer[i].poi.location;
    for (size_t u = 0; u < n; ++u) {
      user_dist[u] = oracle != nullptr ? oracle->Distance(poi, locations[u])
                                       : Distance(poi, locations[u]);
    }
    for (size_t j = 0; j < n; ++j) {
      double acc = FoldIdentity<K>();
      for (size_t u = 0; u < n; ++u) {
        if (u != j) acc = Fold<K>(acc, user_dist[u]);
      }
      partial[j * k + i] = acc;
    }
  }

  if (oracle != nullptr) {
    return SafePrefixLength<K>(
        partial, n, k,
        [&](size_t i, const Point& x) {
          return oracle->Distance(answer[i].poi.location, x);
        },
        verdict, rng, stats);
  }
  return SafePrefixLength<K>(
      partial, n, k,
      [&](size_t i, const Point& x) {
        return Distance(answer[i].poi.location, x);
      },
      verdict, rng, stats);
}

}  // namespace

Result<AnswerSanitizer> AnswerSanitizer::Create(double theta0,
                                                const TestConfig& config) {
  PPGNN_ASSIGN_OR_RETURN(uint64_t n_h, RequiredSampleSize(theta0, config));
  return AnswerSanitizer(
      theta0, n_h, SequentialVerdictThresholds(n_h, theta0, config.gamma));
}

std::vector<RankedPoi> AnswerSanitizer::Sanitize(
    const std::vector<RankedPoi>& answer, const std::vector<Point>& locations,
    AggregateKind kind, Rng& rng, SanitizeStats* stats,
    const DistanceOracle* oracle) const {
  if (locations.size() <= 1 || answer.size() <= 1) return answer;
  SanitizeStats unused;
  SanitizeStats& counts = stats != nullptr ? *stats : unused;
  size_t safe_len = 1;
  switch (kind) {
    case AggregateKind::kSum:
      safe_len = SafePrefixLength<AggregateKind::kSum>(
          answer, locations, oracle, verdict_, rng, counts);
      break;
    case AggregateKind::kMax:
      safe_len = SafePrefixLength<AggregateKind::kMax>(
          answer, locations, oracle, verdict_, rng, counts);
      break;
    case AggregateKind::kMin:
      safe_len = SafePrefixLength<AggregateKind::kMin>(
          answer, locations, oracle, verdict_, rng, counts);
      break;
  }
  return std::vector<RankedPoi>(answer.begin(),
                                answer.begin() + static_cast<long>(safe_len));
}

}  // namespace ppgnn
