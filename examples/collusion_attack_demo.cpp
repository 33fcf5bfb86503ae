// The inequality attack, live (Sections 5.1-5.2 of the paper).
//
//   ./collusion_attack_demo
//
// Five users query; four of them collude to localize the fifth using the
// ranked answer. We show how the victim's feasible region shrinks as the
// colluders exploit longer and longer answer prefixes, and how the LSP's
// answer sanitation cuts the answer to the longest SAFE prefix.

#include <cstdio>

#include "ppgnn.h"

int main() {
  using namespace ppgnn;

  LspDatabase lsp(GenerateSequoiaLike(20000, 77));

  // The group; user 0 is the attack victim.
  std::vector<Point> group = {
      {0.30, 0.60},  // victim
      {0.80, 0.20},
      {0.82, 0.25},
      {0.78, 0.22},
      {0.76, 0.28},
  };
  const Point victim = group[0];
  std::vector<Point> colluders(group.begin() + 1, group.end());
  const int k = 8;

  // The unsanitized ranked answer the LSP would compute.
  auto ranked = lsp.solver().Query(group, k, AggregateKind::kSum);
  std::printf("Unsanitized top-%d answer (rank: location, group cost):\n", k);
  std::vector<Point> answer_points;
  for (size_t i = 0; i < ranked.size(); ++i) {
    answer_points.push_back(ranked[i].poi.location);
    std::printf("  %zu: (%.4f, %.4f)  F=%.4f\n", i + 1,
                ranked[i].poi.location.x, ranked[i].poi.location.y,
                ranked[i].cost);
  }

  // The colluders run the inequality attack on growing prefixes.
  std::printf("\nColluders' view: victim's feasible region by prefix length\n");
  std::printf("%-8s %16s %10s\n", "prefix", "inequalities", "region");
  Rng rng(1);
  for (size_t t = 1; t <= answer_points.size(); ++t) {
    std::vector<Point> prefix(answer_points.begin(),
                              answer_points.begin() + t);
    InequalityAttack attack(colluders, prefix, AggregateKind::kSum);
    double frac = attack.EstimateRegionFraction(rng, 40000);
    std::printf("%-8zu %16zu %9.1f%%  %s\n", t, attack.NumInequalities(),
                frac * 100,
                attack.Satisfies(victim) ? "" : "(victim excluded?! bug)");
  }

  // The LSP's defense: sanitize to the longest prefix where every user's
  // region stays above theta0.
  const double theta0 = 0.05;
  auto sanitizer = AnswerSanitizer::Create(theta0, TestConfig{}).value();
  SanitizeStats stats;
  Rng sanitize_rng(2);
  auto safe = sanitizer.Sanitize(ranked, group, AggregateKind::kSum,
                                 sanitize_rng, &stats);
  std::printf(
      "\nAnswer sanitation with theta0 = %.0f%% of the space:\n"
      "  LSP ran %llu hypothesis tests on %llu shared Monte-Carlo samples\n"
      "  (N_H per test = %llu; early exit and sharing save most of them)\n"
      "  -> returns the top-%zu prefix instead of the full top-%d.\n",
      theta0 * 100, static_cast<unsigned long long>(stats.tests_run),
      static_cast<unsigned long long>(stats.samples_drawn),
      static_cast<unsigned long long>(sanitizer.sample_size()), safe.size(),
      k);

  // Verify: attacking the sanitized prefix leaves a large region.
  if (safe.size() >= 2) {
    std::vector<Point> safe_points;
    for (const auto& rp : safe) safe_points.push_back(rp.poi.location);
    InequalityAttack attack(colluders, safe_points, AggregateKind::kSum);
    Rng verify_rng(3);
    std::printf(
        "\nAttacking the sanitized answer localizes the victim only to\n"
        "%.1f%% of the space (>= theta0 = %.0f%%): Privacy IV holds.\n",
        attack.EstimateRegionFraction(verify_rng, 40000) * 100, theta0 * 100);
  } else {
    std::printf("\nSanitized answer has a single POI: nothing to attack.\n");
  }
  return 0;
}
