#include "stats/hypothesis.h"

#include <cmath>

#include "stats/normal.h"

namespace ppgnn {

Result<uint64_t> RequiredSampleSize(double theta0, const TestConfig& config) {
  if (theta0 <= 0.0 || theta0 >= 1.0)
    return Status::InvalidArgument("theta0 must lie in (0, 1)");
  double theta1 = theta0 * (1.0 + config.phi);
  if (theta1 >= 1.0)
    return Status::InvalidArgument("theta0 * (1 + phi) must be < 1");
  if (config.gamma <= 0.0 || config.gamma >= 1.0 || config.eta <= 0.0 ||
      config.eta >= 1.0)
    return Status::InvalidArgument("gamma and eta must lie in (0, 1)");
  double z_gamma = UpperCritical(config.gamma);
  double z_eta = UpperCritical(config.eta);
  double numerator = z_gamma * std::sqrt(theta0 * (1 - theta0)) +
                     z_eta * std::sqrt(theta1 * (1 - theta1));
  double root = numerator / (theta1 - theta0);
  return static_cast<uint64_t>(std::ceil(root * root));
}

double RejectionThreshold(uint64_t n_samples, double theta0, double gamma) {
  double n = static_cast<double>(n_samples);
  return n * theta0 +
         UpperCritical(gamma) * std::sqrt(n * theta0 * (1 - theta0));
}

bool RejectsH0(uint64_t successes, uint64_t n_samples, double theta0,
               double gamma) {
  return static_cast<double>(successes) >
         RejectionThreshold(n_samples, theta0, gamma);
}

SequentialVerdictCounts SequentialVerdictThresholds(uint64_t n_samples,
                                                    double theta0,
                                                    double gamma) {
  double threshold = RejectionThreshold(n_samples, theta0, gamma);
  uint64_t reject_hits = 0;
  if (threshold >= static_cast<double>(n_samples)) {
    reject_hits = n_samples + 1;
  } else if (threshold >= 0.0) {
    reject_hits = static_cast<uint64_t>(std::floor(threshold)) + 1;
  }
  return {reject_hits, n_samples + 1 - reject_hits};
}

SequentialProportionTest::SequentialProportionTest(uint64_t n_samples,
                                                   double theta0, double gamma)
    : n_samples_(n_samples),
      threshold_(RejectionThreshold(n_samples, theta0, gamma)) {}

SequentialProportionTest::Verdict SequentialProportionTest::AddSample(
    bool success) {
  if (CurrentVerdict() == Verdict::kUndecided && used_ < n_samples_) {
    ++used_;
    if (success) ++successes_;
  }
  return CurrentVerdict();
}

SequentialProportionTest::Verdict SequentialProportionTest::CurrentVerdict()
    const {
  if (static_cast<double>(successes_) > threshold_) return Verdict::kReject;
  // Even if every remaining sample succeeded, could we still reject?
  uint64_t remaining = n_samples_ - used_;
  if (static_cast<double>(successes_ + remaining) <= threshold_)
    return Verdict::kNotReject;
  if (used_ == n_samples_) return Verdict::kNotReject;
  return Verdict::kUndecided;
}

}  // namespace ppgnn
