// One-tailed proportion hypothesis test used by the answer sanitation
// (Section 5.3 of the paper).
//
// H0: theta <= theta0   vs   H1: theta > theta0
//
// where theta is the (unknown) relative area of the inequality-attack
// solution region. LSP draws N_H uniform samples from the data space,
// counts successes X (samples inside the region), and rejects H0 when
//
//   X > N_H * theta0 + z_gamma * sqrt(N_H * theta0 * (1 - theta0))   (Eqn 16)
//
// Rejecting H0 means the region is large, i.e. the prefix is SAFE for
// Privacy IV with confidence 1 - gamma. The sample size bounding both
// error probabilities is Fleiss's rule (Theorem 5.1 / Eqn 17):
//
//   N_H >= ((z_gamma*sqrt(theta0(1-theta0)) + z_eta*sqrt(theta1(1-theta1)))
//           / (theta1 - theta0))^2,    theta1 = theta0 * (1 + phi).

#ifndef PPGNN_STATS_HYPOTHESIS_H_
#define PPGNN_STATS_HYPOTHESIS_H_

#include <cstdint>

#include "common/status.h"

namespace ppgnn {

/// Error-probability configuration. Defaults are the paper's "commonly
/// used" gamma = 0.05, eta = 0.2, phi = 0.1.
struct TestConfig {
  double gamma = 0.05;  // Type I error bound
  double eta = 0.2;     // Type II error bound
  double phi = 0.1;     // ratio gap: theta1 = theta0 * (1 + phi)
};

/// Sample size from Eqn 17. theta0 in (0, 1), theta0 * (1 + phi) < 1.
Result<uint64_t> RequiredSampleSize(double theta0, const TestConfig& config);

/// The rejection threshold of Eqn 16: reject H0 iff X > threshold.
double RejectionThreshold(uint64_t n_samples, double theta0, double gamma);

/// Convenience: was H0 rejected (region provably larger than theta0)?
bool RejectsH0(uint64_t successes, uint64_t n_samples, double theta0,
               double gamma);

/// SequentialProportionTest's verdict as two integer counts, for hot loops
/// that keep only (hits, misses) per test: the test rejects H0 once
/// hits >= reject_hits and does not reject once misses >= accept_misses,
/// checked in that order. reject_hits is the least integer above Eqn 16's
/// threshold (0 when the threshold is negative, n_samples + 1 when it is
/// out of reach), and accept_misses = n_samples + 1 - reject_hits.
struct SequentialVerdictCounts {
  uint64_t reject_hits;
  uint64_t accept_misses;
};
SequentialVerdictCounts SequentialVerdictThresholds(uint64_t n_samples,
                                                    double theta0,
                                                    double gamma);

/// Incremental tester with early exit: feed Bernoulli outcomes one at a
/// time; Verdict() becomes definite as soon as the final decision cannot
/// change (threshold already crossed, or unreachable with the remaining
/// samples). The decision is identical to running all N_H samples. It is
/// the reference that SequentialVerdictThresholds is tested against.
class SequentialProportionTest {
 public:
  SequentialProportionTest(uint64_t n_samples, double theta0, double gamma);

  enum class Verdict { kUndecided, kReject, kNotReject };

  /// Records one sample outcome; returns the (possibly now decided)
  /// verdict. Feeding more than n_samples outcomes is an error in the
  /// caller; extra calls are ignored once decided.
  Verdict AddSample(bool success);

  Verdict CurrentVerdict() const;

  uint64_t samples_used() const { return used_; }
  uint64_t successes() const { return successes_; }
  uint64_t total_samples() const { return n_samples_; }

 private:
  uint64_t n_samples_;
  double threshold_;
  uint64_t used_ = 0;
  uint64_t successes_ = 0;
};

}  // namespace ppgnn

#endif  // PPGNN_STATS_HYPOTHESIS_H_
