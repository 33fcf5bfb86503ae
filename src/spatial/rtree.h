// R-tree over POIs: STR bulk load plus dynamic Guttman insert/delete.
//
// The tree is built from the LSP's POI database via Sort-Tile-Recursive
// packing (Leutenegger et al.) and then serves best-first kNN / kGNN
// traversals and range queries. It also supports dynamic updates —
// Guttman's ChooseLeaf + quadratic split on insert, and condense-tree
// with reinsertion on delete — because the paper holds up dynamic
// databases as a PPGNN advantage: unlike APNN-style pre-computation,
// nothing else needs recomputing when a POI appears or disappears.
// Nodes are stored in a flat arena for locality; child links are indices.
//
// Node layout. Each node keeps its entries inline, as structure-of-arrays
// of capacity kSlots = kFanout + 1 (the extra slot holds the overflow
// entry between an insert and the split it triggers): one array per box
// coordinate, one for the child or POI index, and for leaves one for the
// POI id. A search reads a whole node's entries from contiguous arrays
// without touching the POI arena or the child nodes. The arrays are
// copies: a leaf entry copies its POI's location and id from pois(), an
// internal entry copies its child's `box`. Every update refreshes them
// (a node's RecomputeBox re-reads its children's boxes), and
// CheckInvariants compares each copy with its source.

#ifndef PPGNN_SPATIAL_RTREE_H_
#define PPGNN_SPATIAL_RTREE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "geo/point.h"
#include "geo/rect.h"

namespace ppgnn {

class RTree {
 public:
  /// Maximum entries per node.
  static constexpr int kFanout = 16;
  /// Entry slots per node: kFanout plus the overflow slot.
  static constexpr int kSlots = kFanout + 1;

  struct Node {
    Rect box = Rect::Empty();
    bool is_leaf = true;
    uint32_t count = 0;  // entries in use: slots [0, count)
    // Entry i's box. A leaf entry is its POI's location (min_x[i],
    // min_y[i]); max_x/max_y are unused in leaves.
    double min_x[kSlots] = {};
    double min_y[kSlots] = {};
    double max_x[kSlots] = {};
    double max_y[kSlots] = {};
    // Leaf: index into pois(); internal: index into nodes().
    uint32_t ref[kSlots] = {};
    // Leaf: the POI's id; unused in internal nodes.
    uint32_t poi_id[kSlots] = {};

    /// Entry i's box (a degenerate box for a leaf entry).
    Rect EntryBox(uint32_t i) const {
      return is_leaf ? Rect{min_x[i], min_y[i], min_x[i], min_y[i]}
                     : Rect{min_x[i], min_y[i], max_x[i], max_y[i]};
    }
  };

  /// Minimum entries per node after a split (Guttman's m).
  static constexpr int kMinFill = kFanout * 2 / 5;

  /// Builds a tree over a copy of `pois` with STR packing. An empty
  /// database yields an empty (but valid) tree.
  static RTree Build(std::vector<Poi> pois);

  bool Empty() const { return live_count_ == 0; }
  /// Number of live POIs (inserted minus deleted).
  size_t Size() const { return live_count_; }
  /// The POI arena. Slots of deleted POIs remain but are detached from
  /// the tree; iterate LivePois() for the current database.
  const std::vector<Poi>& pois() const { return pois_; }
  /// Copies of all live POIs (the current database contents).
  std::vector<Poi> LivePois() const;
  const std::vector<Node>& nodes() const { return nodes_; }
  /// Index of the root node; only valid when !Empty().
  uint32_t root() const { return root_; }
  /// Height of the tree (leaf = 1); 0 when empty.
  int Height() const { return height_; }

  /// Dynamic insert (Guttman ChooseLeaf + quadratic split).
  void Insert(const Poi& poi);

  /// Deletes the first live POI with this id. Returns true if found.
  /// Underfull nodes along the path are dissolved and their entries
  /// reinserted (condense-tree).
  bool Delete(uint32_t poi_id);

  /// All POIs whose location falls inside `range` (inclusive bounds).
  std::vector<Poi> RangeQuery(const Rect& range) const;

  /// Validates structural invariants (tight MBRs, fanout bounds, every
  /// live POI reachable exactly once, balance) and that every inline
  /// entry copy equals its source: a leaf entry's coordinates and id equal
  /// its POI's, an internal entry's box equals its child's box. Used by
  /// tests.
  Status CheckInvariants() const;

 private:
  uint32_t AllocNode();
  // Appends a leaf entry for POI index `poi_index`, or an internal entry
  // for child node `child` (copying its current box).
  void AppendPoi(uint32_t node_id, uint32_t poi_index);
  void AppendChild(uint32_t node_id, uint32_t child);
  // Removes the entry whose ref is `ref`, keeping the others in order.
  void RemoveEntry(uint32_t node_id, uint32_t ref);
  // Returns the leaf best suited for `box` (least area enlargement).
  uint32_t ChooseLeaf(const Rect& box, std::vector<uint32_t>* path) const;
  // Splits `node` (overfull) into itself + a new node; returns the new id.
  uint32_t SplitNode(uint32_t node_id);
  // Refreshes an internal node's entry boxes from its children, then sets
  // the node's box to the union of its entries.
  void RecomputeBox(uint32_t node_id);
  // Walks up `path` fixing boxes and propagating splits.
  void AdjustTree(std::vector<uint32_t> path, uint32_t split_id);
  // Finds the leaf containing POI index `poi_index`; fills `path`
  // (root..leaf). Returns false if not found.
  bool FindLeaf(uint32_t poi_index, uint32_t node_id,
                std::vector<uint32_t>* path) const;

  std::vector<Poi> pois_;
  std::vector<bool> live_;
  size_t live_count_ = 0;
  std::vector<Node> nodes_;
  std::vector<uint32_t> free_nodes_;
  uint32_t root_ = 0;
  int height_ = 0;
};

}  // namespace ppgnn

#endif  // PPGNN_SPATIAL_RTREE_H_
