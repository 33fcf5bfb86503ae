// The paper workloads: a closed loop of one PPGNN query at a time through
// RunQuery at the paper's Table 3 defaults.
//
//   paper_group — PPGNN with answer sanitation; sanitation dominates the
//                 LSP.
//   opt_nas     — PPGNN-OPT with sanitation off (PPGNN-NAS); Paillier and
//                 bigint work at two ciphertext levels dominate.
//
// The untraced run times RunQuery end to end. The traced run first times
// RunQuery on the same queries, then rebuilds each query from the
// library's public calls and times every stage, checking that the
// rebuilt request and answer bytes equal BuildServiceRequest's and
// LspHandleQuery's.

#ifndef PERFBENCH_PAPER_H_
#define PERFBENCH_PAPER_H_

#include <cstddef>
#include <cstdint>

#include "core/params.h"
#include "core/protocol.h"
#include "metrics.h"

namespace perfbench {

struct PaperConfig {
  ppgnn::Variant variant = ppgnn::Variant::kPpgnn;
  /// Table 3 defaults (n=8, d=25, delta=100, k=8, theta0=0.05, sum).
  ppgnn::ProtocolParams params;
  size_t db_size = 62556;
  /// Set-up is repeated this many times (each with its own session key,
  /// so each pays the fixed-base table build) and setup_s is the median.
  int setup_repeats = 5;
  /// The timed loop runs at least this many queries, so p90 has at least
  /// ten samples beyond it.
  size_t min_queries = 100;
  /// Test hook: corrupts one reference answer after set-up, which the
  /// correctness gate must catch.
  bool corrupt_reference = false;
};

/// paper_group: PPGNN, sanitation on, 1024-bit session key.
PaperConfig PaperGroupConfig();
/// opt_nas: PPGNN-OPT, sanitation off, 1024-bit session key.
PaperConfig OptNasConfig();

RunResult RunPaperWorkload(const PaperConfig& config, uint64_t seed,
                           double seconds, bool trace);

}  // namespace perfbench

#endif  // PERFBENCH_PAPER_H_
