// Group (aggregate) nearest neighbor search — the plaintext kGNN black box
// used by the LSP (Definition 2.1 of the paper).
//
// The paper's LSP runs the classic Minimum Bounding Method (MBM) of
// Papadias et al. (ICDE 2004). MbmGnnSolver implements it as a best-first
// R-tree traversal ordered by the aggregate min-distance bound
// amindist(node, C) = F(mindist(node, l_1), ..., mindist(node, l_n)),
// which is a valid lower bound for any monotone F. BruteForceGnnSolver is
// the O(D log D) reference.
//
// The traversal (BestFirstGnn, shared with KnnQuery) is bounded:
//   - The frontier is a min-heap of nodes only, keyed by amindist.
//   - Leaf POIs go straight into a top-k array kept sorted by (cost, id);
//     a POI enters only if it precedes the current k-th entry in that
//     order.
//   - Once k POIs are held, a child whose bound is > the k-th cost is not
//     pushed, and the walk stops when the popped bound is > the k-th
//     cost. Both comparisons are strict, so a node that may hold a POI
//     tying the k-th cost with a smaller id is still visited.
//   - A visited node evaluates F for all of its inline entries at once,
//     group points outer and entries inner, in a kernel specialized per
//     AggregateKind.
// So the answer is exactly the first k POIs in (cost, id) order, the
// order BruteForceGnnSolver sorts by and the shard coordinator merges by,
// even under exact cost ties. Costs are bit-identical to AggregateCost:
// each is folded over the group in group order from the same identity.
//
// The PPGNN protocol treats this interface as a black box, so any group
// query (e.g. a meeting-location determination algorithm) can be swapped
// in without touching the privacy machinery.

#ifndef PPGNN_SPATIAL_GNN_H_
#define PPGNN_SPATIAL_GNN_H_

#include <atomic>
#include <span>
#include <vector>

#include "geo/aggregate.h"
#include "spatial/knn.h"
#include "spatial/rtree.h"

namespace ppgnn {

/// The first k POIs of `tree` in (F(p, group), id) order, by the bounded
/// best-first walk above (fewer if the tree holds fewer; none if k <= 0 or
/// the group is empty). `nodes_visited`, when non-null, receives the
/// number of nodes expanded.
std::vector<RankedPoi> BestFirstGnn(const RTree& tree,
                                    std::span<const Point> group, int k,
                                    AggregateKind kind,
                                    uint64_t* nodes_visited = nullptr);

/// Abstract plaintext kGNN engine.
class GnnSolver {
 public:
  virtual ~GnnSolver() = default;

  /// Top-k POIs in ascending F(p, queries) order (fewer if |D| < k).
  virtual std::vector<RankedPoi> Query(const std::vector<Point>& queries,
                                       int k, AggregateKind kind) const = 0;

  virtual const char* name() const = 0;
};

/// MBM over an R-tree (BestFirstGnn). The tree must outlive the solver.
class MbmGnnSolver : public GnnSolver {
 public:
  explicit MbmGnnSolver(const RTree* tree) : tree_(tree) {}

  std::vector<RankedPoi> Query(const std::vector<Point>& queries, int k,
                               AggregateKind kind) const override;
  const char* name() const override { return "MBM"; }

  /// Nodes expanded by the last Query (instrumentation for benchmarks;
  /// atomic so concurrent queries from a parallel LSP don't race).
  // ppgnn: stat_counter(last_nodes_visited_)
  uint64_t last_nodes_visited() const {
    return last_nodes_visited_.load(std::memory_order_relaxed);
  }

 private:
  const RTree* tree_;
  mutable std::atomic<uint64_t> last_nodes_visited_{0};
};

/// The Single Point Method (SPM) of Papadias et al. — the other classic
/// kGNN algorithm the MBM paper proposes. It orders the R-tree traversal
/// by distance to the group centroid q* and terminates via the triangle
/// inequality: for sum, F(p) >= n*dis(p,q*) - sum_i dis(q_i,q*); for
/// max/min, F(p) >= dis(p,q*) - max_i dis(q_i,q*). Exact for all three
/// aggregates; typically visits more nodes than MBM for spread-out
/// groups (see bench_micro), which is why the paper's LSP uses MBM.
/// A POI enters its top-k by the same (cost, id) order as MBM's.
class SpmGnnSolver : public GnnSolver {
 public:
  explicit SpmGnnSolver(const RTree* tree) : tree_(tree) {}

  std::vector<RankedPoi> Query(const std::vector<Point>& queries, int k,
                               AggregateKind kind) const override;
  const char* name() const override { return "SPM"; }

  uint64_t last_nodes_visited() const {
    return last_nodes_visited_.load(std::memory_order_relaxed);
  }

 private:
  const RTree* tree_;
  mutable std::atomic<uint64_t> last_nodes_visited_{0};
};

/// Exhaustive scan reference. The POI vector must outlive the solver.
class BruteForceGnnSolver : public GnnSolver {
 public:
  explicit BruteForceGnnSolver(const std::vector<Poi>* pois) : pois_(pois) {}

  std::vector<RankedPoi> Query(const std::vector<Point>& queries, int k,
                               AggregateKind kind) const override;
  const char* name() const override { return "BruteForce"; }

 private:
  const std::vector<Poi>* pois_;
};

}  // namespace ppgnn

#endif  // PPGNN_SPATIAL_GNN_H_
