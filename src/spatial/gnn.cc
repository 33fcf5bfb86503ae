#include "spatial/gnn.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <queue>

namespace ppgnn {
namespace {

// F folded over one more per-user distance (Eqn 1), as AggregateCost
// folds it.
template <AggregateKind K>
inline double Fold(double acc, double dist) {
  if constexpr (K == AggregateKind::kSum) {
    return acc + dist;
  } else if constexpr (K == AggregateKind::kMax) {
    return std::max(acc, dist);
  } else {
    return std::min(acc, dist);
  }
}

template <AggregateKind K>
constexpr double FoldIdentity() {
  return K == AggregateKind::kMin ? std::numeric_limits<double>::infinity()
                                  : 0.0;
}

// Both kernels below evaluate all kFanout slots, used or not, so the
// entry loop has a fixed trip count and compiles to packed sqrtpd. Unused
// slots hold finite coordinates (zeros or stale copies); their results
// are never read. A node holds at most kFanout entries between updates.
using SlotValues = double[RTree::kFanout];

// F(p, group) for every entry p of a leaf: the same fold, in the same
// group order, as AggregateCost, so the costs are bit-identical to it.
template <AggregateKind K>
inline void LeafCosts(const RTree::Node& node, std::span<const Point> group,
                      SlotValues& cost) {
  constexpr int m = RTree::kFanout;
  for (int j = 0; j < m; ++j) cost[j] = FoldIdentity<K>();
  for (const Point& q : group) {
    for (int j = 0; j < m; ++j) {
      const double dx = node.min_x[j] - q.x;
      const double dy = node.min_y[j] - q.y;
      cost[j] = Fold<K>(cost[j], std::sqrt(dx * dx + dy * dy));
    }
  }
}

// amindist(child, group) for every child box of an internal node. Per
// axis, at most one of the two gaps is positive (min <= max), so their
// sum is max(min - q, q - max, 0) exactly; GCC vectorizes the sum of two
// clamps but not the nested max.
template <AggregateKind K>
inline void ChildBounds(const RTree::Node& node, std::span<const Point> group,
                        SlotValues& bound) {
  constexpr int m = RTree::kFanout;
  for (int j = 0; j < m; ++j) bound[j] = FoldIdentity<K>();
  for (const Point& q : group) {
    for (int j = 0; j < m; ++j) {
      const double dx = std::max(node.min_x[j] - q.x, 0.0) +
                        std::max(q.x - node.max_x[j], 0.0);
      const double dy = std::max(node.min_y[j] - q.y, 0.0) +
                        std::max(q.y - node.max_y[j], 0.0);
      bound[j] = Fold<K>(bound[j], std::sqrt(dx * dx + dy * dy));
    }
  }
}

// Does (cost, id) come before `other` in the answer order?
inline bool Precedes(double cost, uint32_t id, const RankedPoi& other) {
  return cost < other.cost || (cost == other.cost && id < other.poi.id);
}

// The first k POIs offered so far, in (cost, id) order.
class TopK {
 public:
  TopK(size_t k, size_t capacity) : k_(k) { items_.reserve(capacity + 1); }

  // The k-th cost, or +inf while fewer than k are held. A POI or node
  // whose cost or bound is > this cannot enter.
  double Threshold() const {
    return items_.size() < k_ ? std::numeric_limits<double>::infinity()
                              : items_.back().cost;
  }

  bool Admits(double cost, uint32_t id) const {
    return items_.size() < k_ || Precedes(cost, id, items_.back());
  }

  // Inserts an admitted POI, dropping the old k-th if k are held.
  void Insert(const RankedPoi& entry) {
    auto it = items_.end();
    while (it != items_.begin() &&
           Precedes(entry.cost, entry.poi.id, *(it - 1))) {
      --it;
    }
    items_.insert(it, entry);
    if (items_.size() > k_) items_.pop_back();
  }

  std::vector<RankedPoi> Take() { return std::move(items_); }

 private:
  size_t k_;
  std::vector<RankedPoi> items_;
};

// A frontier node and its aggregate bound. The heap pops the least
// (bound, node) first; the node id only makes the order total.
struct Frontier {
  double bound;
  uint32_t node;

  bool operator>(const Frontier& o) const {
    if (bound != o.bound) return bound > o.bound;
    return node > o.node;
  }
};

template <AggregateKind K>
std::vector<RankedPoi> BestFirst(const RTree& tree,
                                 std::span<const Point> group, size_t k,
                                 uint64_t* nodes_visited) {
  const std::vector<RTree::Node>& nodes = tree.nodes();
  TopK best(k, std::min(k, tree.Size()));
  double root_bound = FoldIdentity<K>();
  for (const Point& q : group) {
    root_bound = Fold<K>(root_bound, MinDistance(q, nodes[tree.root()].box));
  }
  std::vector<Frontier> frontier;
  frontier.reserve(4 * RTree::kFanout);
  frontier.push_back({root_bound, tree.root()});
  const auto heap_order = std::greater<Frontier>();
  SlotValues f = {};
  uint64_t visited = 0;
  while (!frontier.empty()) {
    std::pop_heap(frontier.begin(), frontier.end(), heap_order);
    const Frontier top = frontier.back();
    frontier.pop_back();
    if (top.bound > best.Threshold()) break;
    ++visited;
    const RTree::Node& node = nodes[top.node];
    if (node.is_leaf) {
      LeafCosts<K>(node, group, f);
      for (uint32_t i = 0; i < node.count; ++i) {
        if (best.Admits(f[i], node.poi_id[i])) {
          best.Insert({{node.poi_id[i], {node.min_x[i], node.min_y[i]}}, f[i]});
        }
      }
    } else {
      ChildBounds<K>(node, group, f);
      const double threshold = best.Threshold();
      for (uint32_t i = 0; i < node.count; ++i) {
        if (f[i] > threshold) continue;
        frontier.push_back({f[i], node.ref[i]});
        std::push_heap(frontier.begin(), frontier.end(), heap_order);
      }
    }
  }
  *nodes_visited = visited;
  return best.Take();
}

}  // namespace

std::vector<RankedPoi> BestFirstGnn(const RTree& tree,
                                    std::span<const Point> group, int k,
                                    AggregateKind kind,
                                    uint64_t* nodes_visited) {
  uint64_t visited = 0;
  std::vector<RankedPoi> out;
  if (!tree.Empty() && k > 0 && !group.empty()) {
    const size_t top = static_cast<size_t>(k);
    switch (kind) {
      case AggregateKind::kSum:
        out = BestFirst<AggregateKind::kSum>(tree, group, top, &visited);
        break;
      case AggregateKind::kMax:
        out = BestFirst<AggregateKind::kMax>(tree, group, top, &visited);
        break;
      case AggregateKind::kMin:
        out = BestFirst<AggregateKind::kMin>(tree, group, top, &visited);
        break;
    }
  }
  if (nodes_visited != nullptr) *nodes_visited = visited;
  return out;
}

std::vector<RankedPoi> MbmGnnSolver::Query(const std::vector<Point>& queries,
                                           int k, AggregateKind kind) const {
  uint64_t visited = 0;
  std::vector<RankedPoi> out = BestFirstGnn(*tree_, queries, k, kind, &visited);
  last_nodes_visited_.store(visited, std::memory_order_relaxed);
  return out;
}

std::vector<RankedPoi> SpmGnnSolver::Query(const std::vector<Point>& queries,
                                           int k, AggregateKind kind) const {
  uint64_t nodes_visited = 0;
  std::vector<RankedPoi> out;
  if (tree_->Empty() || k <= 0 || queries.empty()) {
    last_nodes_visited_.store(0, std::memory_order_relaxed);
    return out;
  }

  // Centroid q* and the distance terms of the termination bounds.
  Point centroid{0, 0};
  for (const Point& q : queries) {
    centroid.x += q.x;
    centroid.y += q.y;
  }
  centroid.x /= static_cast<double>(queries.size());
  centroid.y /= static_cast<double>(queries.size());
  double sum_dist = 0, max_dist = 0;
  for (const Point& q : queries) {
    double dist = Distance(centroid, q);
    sum_dist += dist;
    max_dist = std::max(max_dist, dist);
  }
  const double n = static_cast<double>(queries.size());
  // Lower bound on F(p, C) as a function of dis(p, q*), valid by the
  // triangle inequality for each aggregate.
  auto bound = [&](double dist_to_centroid) {
    if (kind == AggregateKind::kSum) return n * dist_to_centroid - sum_dist;
    return dist_to_centroid - max_dist;
  };

  // Best-first by distance to the centroid, POIs and nodes in one queue;
  // collect exact costs into a top-k kept in (cost, id) order; stop when
  // the bound exceeds the k-th best (the frontier is ordered, so
  // everything later is worse too).
  struct QueueEntry {
    double dist;
    bool is_poi;
    uint32_t index;  // POI index or node id
    uint32_t tie;    // POI id

    bool operator>(const QueueEntry& o) const {
      if (dist != o.dist) return dist > o.dist;
      if (is_poi != o.is_poi) return !is_poi;  // POIs before nodes on ties
      return tie > o.tie;
    }
  };
  std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                      std::greater<QueueEntry>>
      frontier;
  frontier.push({MinDistance(centroid, tree_->nodes()[tree_->root()].box),
                 false, tree_->root(), 0});
  TopK best(static_cast<size_t>(k),
            std::min(static_cast<size_t>(k), tree_->Size()));
  while (!frontier.empty()) {
    QueueEntry top = frontier.top();
    frontier.pop();
    if (bound(top.dist) > best.Threshold()) break;  // termination condition
    if (top.is_poi) {
      const Poi& poi = tree_->pois()[top.index];
      double cost = AggregateCost(kind, poi.location, queries);
      if (best.Admits(cost, poi.id)) best.Insert({poi, cost});
      continue;
    }
    ++nodes_visited;
    const RTree::Node& node = tree_->nodes()[top.index];
    for (uint32_t i = 0; i < node.count; ++i) {
      if (node.is_leaf) {
        frontier.push({Distance(centroid, {node.min_x[i], node.min_y[i]}),
                       true, node.ref[i], node.poi_id[i]});
      } else {
        frontier.push({MinDistance(centroid, node.EntryBox(i)), false,
                       node.ref[i], 0});
      }
    }
  }
  last_nodes_visited_.store(nodes_visited, std::memory_order_relaxed);
  return best.Take();
}

std::vector<RankedPoi> BruteForceGnnSolver::Query(
    const std::vector<Point>& queries, int k, AggregateKind kind) const {
  std::vector<RankedPoi> all;
  all.reserve(pois_->size());
  for (const Poi& poi : *pois_) {
    all.push_back({poi, AggregateCost(kind, poi.location, queries)});
  }
  std::sort(all.begin(), all.end(), [](const RankedPoi& a, const RankedPoi& b) {
    if (a.cost != b.cost) return a.cost < b.cost;
    return a.poi.id < b.poi.id;
  });
  if (all.size() > static_cast<size_t>(std::max(k, 0)))
    all.resize(static_cast<size_t>(std::max(k, 0)));
  return all;
}

}  // namespace ppgnn
