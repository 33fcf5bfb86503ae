// The inequality attack (Section 5.1).
//
// Colluding users u_2..u_n know their own locations and the ranked answer
// P = {p_1, ..., p_k} with F(p_i, C*) <= F(p_{i+1}, C*). Substituting a
// candidate location l for the unknown target user gives k-1 inequalities
// (Eqn 14); the set of l satisfying all of them is the solution region the
// target's real location must lie in. Privacy IV holds iff that region is
// larger than a theta0 fraction of the data space for every target.
//
// This class is the *attacker* (examples / experiments measuring how small
// the region gets, and the tests that check the defender against it). LSP's
// answer sanitation (core/sanitize) evaluates the same inequalities for all
// targets at once on a shared sample stream. Per-POI aggregate
// contributions of the colluders are precomputed, so each membership test
// costs only |answer| distance evaluations regardless of n.

#ifndef PPGNN_CORE_ATTACK_H_
#define PPGNN_CORE_ATTACK_H_

#include <vector>

#include "common/random.h"
#include "geo/aggregate.h"
#include "geo/distance_oracle.h"
#include "geo/point.h"
#include "geo/rect.h"

namespace ppgnn {

class InequalityAttack {
 public:
  /// `colluders`: the n-1 known locations (may be empty: a single-user
  /// "attack" constrains the user itself). `ranked_answer`: the POI
  /// locations in reported rank order. `space`: the data space to sample
  /// (the unit square in all experiments). `oracle` selects the metric
  /// `dis` (Euclidean when null); the oracle must outlive the attack.
  InequalityAttack(std::vector<Point> colluders,
                   std::vector<Point> ranked_answer, AggregateKind kind,
                   Rect space = {0.0, 0.0, 1.0, 1.0},
                   const DistanceOracle* oracle = nullptr);

  /// True iff placing the target at `candidate` keeps all of Eqn 14's
  /// inequalities satisfied, i.e. `candidate` is in the solution region.
  bool Satisfies(const Point& candidate) const;

  /// Monte-Carlo estimate of the solution region's fraction of the space.
  double EstimateRegionFraction(Rng& rng, uint64_t samples) const;

  /// Uniform sample from the space.
  Point SamplePoint(Rng& rng) const;

  size_t NumInequalities() const {
    return ranked_answer_.empty() ? 0 : ranked_answer_.size() - 1;
  }

 private:
  double Dis(const Point& a, const Point& b) const;

  std::vector<Point> ranked_answer_;
  std::vector<double> partial_;  // colluder-only aggregate per answer POI
  AggregateKind kind_;
  Rect space_;
  bool has_colluders_;
  const DistanceOracle* oracle_;  // null = Euclidean fast path
};

}  // namespace ppgnn

#endif  // PPGNN_CORE_ATTACK_H_
