// The cluster workloads: an open loop from one dispatcher thread against
// a ShardedLspService (S=4 shards, R=2 replicas), driven with light
// queries whose kGNN costs microseconds, so the fan-out machinery
// dominates.
//
//   cluster_inproc — replica legs run on in-process LspServices.
//   cluster_tcp    — replica legs cross PGNT-framed loopback sockets to a
//                    LoopbackShardFleet.
//
// Offered rates are fixed and absolute (ClusterPhases()): a ladder below
// and above today's capacity, one rung of which is the reference rate,
// then one over-capacity phase. Each phase runs on a freshly started
// cluster so its Stats() cover exactly that phase. Every reply frame is
// compared byte for byte with the single-node LspService frame for the
// same request, computed at set-up.

#ifndef PERFBENCH_CLUSTER_H_
#define PERFBENCH_CLUSTER_H_

#include <cstddef>
#include <cstdint>

#include "core/params.h"
#include "metrics.h"

namespace perfbench {

struct ClusterConfig {
  bool tcp = false;
  /// Light queries: n=3, d=4, delta=8, k=3, 256-bit key, no sanitation.
  ppgnn::ProtocolParams params;
  size_t db_size = 10000;
  /// Prebuilt requests, cycled by the load generator.
  size_t pool_size = 512;
  /// Closed-loop requests through the set-up cluster before timing.
  size_t warmup_requests = 200;
  int setup_repeats = 3;
  /// Test hook: corrupts one reference frame after set-up, which the
  /// correctness gate must catch.
  bool corrupt_reference = false;
};

ClusterConfig ClusterInprocConfig();
ClusterConfig ClusterTcpConfig();

RunResult RunClusterWorkload(const ClusterConfig& config, uint64_t seed,
                             double seconds, bool trace);

}  // namespace perfbench

#endif  // PERFBENCH_CLUSTER_H_
