// ppgnn_perfbench: runs one benchmark workload and prints its result.
//
//   ppgnn_perfbench --workload paper_group|opt_nas|cluster_inproc|cluster_tcp
//                   --seed N --seconds S --trace 0|1
//
// Progress goes to stderr. The last line on stdout is one JSON object
// with the keys correct, attempted, failed and metrics: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. The exit
// code is non-zero when any checked output differed from its reference.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "cluster.h"
#include "metrics.h"
#include "paper.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload paper_group|opt_nas|cluster_inproc|"
               "cluster_tcp --seed N --seconds S --trace 0|1\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    if (std::strcmp(flag, "--workload") == 0) {
      workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      seconds = std::strtod(value, nullptr);
    } else if (std::strcmp(flag, "--trace") == 0) {
      trace = std::atoi(value);
    } else {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || !(seconds > 0.0) || (trace != 0 && trace != 1)) {
    return Usage(argv[0]);
  }

  perfbench::RunResult result;
  if (workload == "paper_group") {
    result = perfbench::RunPaperWorkload(perfbench::PaperGroupConfig(), seed,
                                         seconds, trace == 1);
  } else if (workload == "opt_nas") {
    result = perfbench::RunPaperWorkload(perfbench::OptNasConfig(), seed,
                                         seconds, trace == 1);
  } else if (workload == "cluster_inproc") {
    result = perfbench::RunClusterWorkload(perfbench::ClusterInprocConfig(),
                                           seed, seconds, trace == 1);
  } else if (workload == "cluster_tcp") {
    result = perfbench::RunClusterWorkload(perfbench::ClusterTcpConfig(), seed,
                                           seconds, trace == 1);
  } else {
    return Usage(argv[0]);
  }

  const auto& specs = trace == 1 ? perfbench::PerLayerMetrics()
                                 : perfbench::EndToEndMetrics();
  const auto missing = result.metrics.Missing(specs);
  if (!missing.empty()) {
    std::fprintf(stderr, "perfbench: workload left metric %s unset\n",
                 missing.front().c_str());
    return 1;
  }
  if (!result.correct) {
    std::fprintf(stderr, "perfbench: %llu of %llu outputs failed the "
                         "correctness gate\n",
                 static_cast<unsigned long long>(result.failed),
                 static_cast<unsigned long long>(result.attempted));
  }
  std::printf("%s\n", perfbench::ResultJson(result, specs).c_str());
  return result.correct ? 0 : 1;
}
