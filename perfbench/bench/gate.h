// The benchmark's correctness gate and the small process helpers the
// workloads share.
//
// Paper workloads compare every decoded answer with ReferenceAnswer (the
// plaintext kGNN plus sanitation) after the wire's 32-bit coordinate
// quantization. Cluster workloads compare every reply frame byte for byte
// with the frame a single-node LspService gave for the same request at
// set-up, and classify whatever differs.

#ifndef PERFBENCH_GATE_H_
#define PERFBENCH_GATE_H_

#include <sched.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bench/bench_util.h"
#include "geo/point.h"
#include "spatial/knn.h"

namespace perfbench {

/// True when `got` lists the reference POIs in order, coordinate for
/// coordinate at wire precision.
bool SameAnswer(const std::vector<ppgnn::Point>& got,
                const std::vector<ppgnn::RankedPoi>& reference);

enum class FrameVerdict {
  kCorrect,      ///< byte-identical to the reference frame
  kWrongAnswer,  ///< a decodable answer frame that differs
  kRefused,      ///< load shed: a kOverloaded or kDeadlineExceeded frame
  kErrorFrame,   ///< any other structured error frame
  kUndecodable,  ///< not a valid ResponseFrame
};

FrameVerdict JudgeFrame(const std::vector<uint8_t>& got,
                        const std::vector<uint8_t>& reference);

// The figure benches' helpers: ValueOrDie unwraps a call the benchmark
// cannot go on without (aborting otherwise), RandomGroup places n users
// uniformly in the unit square.
using ppgnn::bench::RandomGroup;
using ppgnn::bench::ValueOrDie;

/// Seconds on the steady clock since an arbitrary fixed point.
double NowSeconds();
/// CPU seconds (user + system) of the whole process so far.
double ProcessCpuSeconds();

/// Pins the calling thread to one CPU at a time, taking turns over the
/// CPUs it may run on, and gives it back its own affinity when destroyed.
///
/// On a shared VM the vCPUs do not run equally fast: a neighbour on the
/// same physical core slows one of them down, by about 1.4x on the host
/// this was tuned on, for seconds at a time. A single-threaded loop the
/// scheduler leaves on one vCPU then measures that vCPU. Taking turns
/// makes every run measure all of them, so a statistic over the loop
/// does not depend on where one run happened to land. Threads inherit the affinity of the thread that starts them, so
/// start no thread while pinned.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins the calling thread to the turn-th allowed CPU, modulo their
  /// number: the same turn lands on the same CPU in every run.
  void Pin(size_t turn);

 private:
  std::vector<int> cpus_;
  bool saved_ = false;
  cpu_set_t original_;
};

/// Threads and resident set size from /proc/self/status.
struct ProcessSample {
  int threads = 0;
  double rss_mb = 0.0;
};
ProcessSample SampleProcess();

}  // namespace perfbench

#endif  // PERFBENCH_GATE_H_
