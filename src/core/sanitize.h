// Answer sanitation (Sections 5.2-5.3).
//
// For each candidate query, LSP returns the longest prefix P' of the
// ranked kGNN answer P that is safe against the inequality attack: for
// every target user, the hypothesis test of Eqn 16 must reject
// H0: theta <= theta0 (i.e. prove, with Type I error <= gamma, that the
// attack's solution region exceeds a theta0 fraction of the space).
//
// The length-1 prefix is always safe (no inequalities). Longer prefixes
// are tested on one stream of uniform sample points, the caller's `rng`,
// in a prefix-serial, target-parallel walk:
//
//   * at prefix length t = 2, 3, ... all n (prefix, target) tests start
//     together, on the next point of the stream;
//   * each point's t distances Dis(p_i, x) are computed once and shared by
//     every undecided target, which differ only in their colluders'
//     partial aggregates (computed once per call);
//   * each test is Eqn 16's test with sequential early exit, whose verdict
//     is identical to drawing all N_H samples. A target whose test rejects
//     H0 drops out; the first test that cannot reject ends the walk with
//     t - 1 POIs kept;
//   * prefix t + 1 starts once every target has rejected at t.
//
// Every test therefore sees consecutive iid uniform points, and where it
// starts in the stream depends only on the points before it (the ones
// that decided earlier tests). Its sample is thus iid uniform and its
// Type I error stays <= gamma. Only the correlation between the n tests
// of one prefix differs from giving each test its own stream.
//
// How many points a call draws from `rng` is deterministic for given
// inputs, but it is not part of the API: callers hand in a dedicated
// stream (LspSanitizeSeed) and discard it afterwards.

#ifndef PPGNN_CORE_SANITIZE_H_
#define PPGNN_CORE_SANITIZE_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "geo/aggregate.h"
#include "geo/distance_oracle.h"
#include "spatial/knn.h"
#include "stats/hypothesis.h"

namespace ppgnn {

struct SanitizeStats {
  uint64_t samples_drawn = 0;  ///< points drawn from the shared stream
  uint64_t test_samples = 0;   ///< points consumed, summed over all tests
  uint64_t tests_run = 0;      ///< (prefix, target-user) Z-tests started
};

class AnswerSanitizer {
 public:
  /// Fails if Eqn 17 has no valid sample size for (theta0, config).
  static Result<AnswerSanitizer> Create(double theta0,
                                        const TestConfig& config);

  /// N_H from Eqn 17.
  uint64_t sample_size() const { return sample_size_; }
  double theta0() const { return theta0_; }

  /// Longest safe prefix of `answer` for the query at `locations`.
  /// Single-location queries are returned unchanged (no colluders exist).
  /// `oracle` selects the metric (Euclidean when null).
  std::vector<RankedPoi> Sanitize(const std::vector<RankedPoi>& answer,
                                  const std::vector<Point>& locations,
                                  AggregateKind kind, Rng& rng,
                                  SanitizeStats* stats = nullptr,
                                  const DistanceOracle* oracle = nullptr) const;

 private:
  AnswerSanitizer(double theta0, uint64_t sample_size,
                  SequentialVerdictCounts verdict)
      : theta0_(theta0), sample_size_(sample_size), verdict_(verdict) {}

  double theta0_;
  uint64_t sample_size_;
  SequentialVerdictCounts verdict_;
};

}  // namespace ppgnn

#endif  // PPGNN_CORE_SANITIZE_H_
