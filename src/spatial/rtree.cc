#include "spatial/rtree.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace ppgnn {

RTree RTree::Build(std::vector<Poi> pois) {
  RTree tree;
  tree.pois_ = std::move(pois);
  tree.live_.assign(tree.pois_.size(), true);
  tree.live_count_ = tree.pois_.size();
  if (tree.pois_.empty()) return tree;

  // --- leaf level: Sort-Tile-Recursive packing ---
  std::vector<uint32_t> order(tree.pois_.size());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return tree.pois_[a].location.x < tree.pois_[b].location.x;
  });

  const size_t count = order.size();
  const size_t leaf_count = (count + kFanout - 1) / kFanout;
  const size_t slice_count =
      static_cast<size_t>(std::ceil(std::sqrt(static_cast<double>(leaf_count))));
  const size_t slice_size =
      slice_count == 0 ? count : (count + slice_count - 1) / slice_count;

  // Leaves plus every upper level, each about 1/kFanout of the one below.
  tree.nodes_.reserve(leaf_count + leaf_count / (kFanout - 1) + slice_count +
                      8);
  std::vector<uint32_t> level;  // node ids of the current level
  for (size_t s = 0; s < count; s += slice_size) {
    size_t end = std::min(s + slice_size, count);
    std::sort(order.begin() + s, order.begin() + end,
              [&](uint32_t a, uint32_t b) {
                return tree.pois_[a].location.y < tree.pois_[b].location.y;
              });
    for (size_t i = s; i < end; i += kFanout) {
      const uint32_t leaf = static_cast<uint32_t>(tree.nodes_.size());
      tree.nodes_.emplace_back();
      size_t leaf_end = std::min(i + kFanout, end);
      for (size_t j = i; j < leaf_end; ++j) tree.AppendPoi(leaf, order[j]);
      tree.RecomputeBox(leaf);
      level.push_back(leaf);
    }
  }
  tree.height_ = 1;

  // --- pack upward until a single root remains ---
  while (level.size() > 1) {
    std::sort(level.begin(), level.end(), [&](uint32_t a, uint32_t b) {
      return tree.nodes_[a].box.Center().x < tree.nodes_[b].box.Center().x;
    });
    const size_t n = level.size();
    const size_t parent_count = (n + kFanout - 1) / kFanout;
    const size_t slices = static_cast<size_t>(
        std::ceil(std::sqrt(static_cast<double>(parent_count))));
    const size_t per_slice = slices == 0 ? n : (n + slices - 1) / slices;

    std::vector<uint32_t> next_level;
    for (size_t s = 0; s < n; s += per_slice) {
      size_t end = std::min(s + per_slice, n);
      std::sort(level.begin() + s, level.begin() + end,
                [&](uint32_t a, uint32_t b) {
                  return tree.nodes_[a].box.Center().y <
                         tree.nodes_[b].box.Center().y;
                });
      for (size_t i = s; i < end; i += kFanout) {
        const uint32_t parent = static_cast<uint32_t>(tree.nodes_.size());
        tree.nodes_.emplace_back().is_leaf = false;
        size_t parent_end = std::min(i + kFanout, end);
        for (size_t j = i; j < parent_end; ++j) {
          tree.AppendChild(parent, level[j]);
        }
        tree.RecomputeBox(parent);
        next_level.push_back(parent);
      }
    }
    level = std::move(next_level);
    ++tree.height_;
  }
  tree.root_ = level[0];
  return tree;
}

std::vector<Poi> RTree::LivePois() const {
  std::vector<Poi> out;
  out.reserve(live_count_);
  for (size_t i = 0; i < pois_.size(); ++i) {
    if (live_[i]) out.push_back(pois_[i]);
  }
  return out;
}

// ---------- dynamic operations ----------

uint32_t RTree::AllocNode() {
  if (!free_nodes_.empty()) {
    uint32_t id = free_nodes_.back();
    free_nodes_.pop_back();
    nodes_[id] = Node{};
    return id;
  }
  nodes_.push_back(Node{});
  return static_cast<uint32_t>(nodes_.size() - 1);
}

void RTree::AppendPoi(uint32_t node_id, uint32_t poi_index) {
  Node& node = nodes_[node_id];
  const Poi& poi = pois_[poi_index];
  const uint32_t i = node.count++;
  node.min_x[i] = poi.location.x;
  node.min_y[i] = poi.location.y;
  node.ref[i] = poi_index;
  node.poi_id[i] = poi.id;
}

void RTree::AppendChild(uint32_t node_id, uint32_t child) {
  Node& node = nodes_[node_id];
  const Rect& box = nodes_[child].box;
  const uint32_t i = node.count++;
  node.min_x[i] = box.min_x;
  node.min_y[i] = box.min_y;
  node.max_x[i] = box.max_x;
  node.max_y[i] = box.max_y;
  node.ref[i] = child;
}

void RTree::RemoveEntry(uint32_t node_id, uint32_t ref) {
  Node& node = nodes_[node_id];
  uint32_t i = 0;
  while (node.ref[i] != ref) ++i;
  for (--node.count; i < node.count; ++i) {
    node.min_x[i] = node.min_x[i + 1];
    node.min_y[i] = node.min_y[i + 1];
    node.max_x[i] = node.max_x[i + 1];
    node.max_y[i] = node.max_y[i + 1];
    node.ref[i] = node.ref[i + 1];
    node.poi_id[i] = node.poi_id[i + 1];
  }
}

void RTree::RecomputeBox(uint32_t node_id) {
  Node& node = nodes_[node_id];
  Rect box = Rect::Empty();
  for (uint32_t i = 0; i < node.count; ++i) {
    if (!node.is_leaf) {
      const Rect& child = nodes_[node.ref[i]].box;
      node.min_x[i] = child.min_x;
      node.min_y[i] = child.min_y;
      node.max_x[i] = child.max_x;
      node.max_y[i] = child.max_y;
    }
    box = box.Union(node.EntryBox(i));
  }
  node.box = box;
}

uint32_t RTree::ChooseLeaf(const Rect& box,
                           std::vector<uint32_t>* path) const {
  uint32_t id = root_;
  while (true) {
    path->push_back(id);
    const Node& node = nodes_[id];
    if (node.is_leaf) return id;
    // Least area enlargement; ties by smaller area.
    uint32_t best_child = node.ref[0];
    double best_enlargement = std::numeric_limits<double>::infinity();
    double best_area = std::numeric_limits<double>::infinity();
    for (uint32_t i = 0; i < node.count; ++i) {
      const Rect child_box = node.EntryBox(i);
      double area = child_box.Area();
      double enlargement = child_box.Union(box).Area() - area;
      if (enlargement < best_enlargement ||
          (enlargement == best_enlargement && area < best_area)) {
        best_enlargement = enlargement;
        best_area = area;
        best_child = node.ref[i];
      }
    }
    id = best_child;
  }
}

uint32_t RTree::SplitNode(uint32_t node_id) {
  // Guttman's quadratic split.
  // The groups below hold slot indices into `full`, the overfull node.
  const Node full = nodes_[node_id];
  const bool is_leaf = full.is_leaf;
  std::vector<uint32_t> entries(full.count);
  for (uint32_t i = 0; i < full.count; ++i) entries[i] = i;
  const uint32_t sibling = AllocNode();  // may invalidate Node references
  nodes_[sibling].is_leaf = is_leaf;

  auto box_of = [&](uint32_t slot) { return full.EntryBox(slot); };

  // Seeds: the pair wasting the most area if grouped together.
  size_t seed_a = 0, seed_b = 1;
  double worst = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < entries.size(); ++i) {
    for (size_t j = i + 1; j < entries.size(); ++j) {
      Rect combined = box_of(entries[i]).Union(box_of(entries[j]));
      double waste = combined.Area() - box_of(entries[i]).Area() -
                     box_of(entries[j]).Area();
      if (waste > worst) {
        worst = waste;
        seed_a = i;
        seed_b = j;
      }
    }
  }

  std::vector<uint32_t> group_a = {entries[seed_a]};
  std::vector<uint32_t> group_b = {entries[seed_b]};
  Rect box_a = box_of(entries[seed_a]);
  Rect box_b = box_of(entries[seed_b]);
  std::vector<uint32_t> remaining;
  for (size_t i = 0; i < entries.size(); ++i) {
    if (i != seed_a && i != seed_b) remaining.push_back(entries[i]);
  }

  while (!remaining.empty()) {
    const size_t total_left = remaining.size();
    // Min-fill guarantee: if one group must take everything left, do it.
    if (group_a.size() + total_left <= kMinFill) {
      for (uint32_t e : remaining) {
        group_a.push_back(e);
        box_a = box_a.Union(box_of(e));
      }
      break;
    }
    if (group_b.size() + total_left <= kMinFill) {
      for (uint32_t e : remaining) {
        group_b.push_back(e);
        box_b = box_b.Union(box_of(e));
      }
      break;
    }
    // PickNext: the entry with the strongest preference.
    size_t pick = 0;
    double best_diff = -1;
    for (size_t i = 0; i < remaining.size(); ++i) {
      Rect b = box_of(remaining[i]);
      double d_a = box_a.Union(b).Area() - box_a.Area();
      double d_b = box_b.Union(b).Area() - box_b.Area();
      double diff = std::abs(d_a - d_b);
      if (diff > best_diff) {
        best_diff = diff;
        pick = i;
      }
    }
    uint32_t entry = remaining[pick];
    remaining.erase(remaining.begin() + static_cast<long>(pick));
    Rect b = box_of(entry);
    double d_a = box_a.Union(b).Area() - box_a.Area();
    double d_b = box_b.Union(b).Area() - box_b.Area();
    bool to_a;
    if (d_a != d_b) {
      to_a = d_a < d_b;
    } else if (box_a.Area() != box_b.Area()) {
      to_a = box_a.Area() < box_b.Area();
    } else {
      to_a = group_a.size() <= group_b.size();
    }
    if (to_a) {
      group_a.push_back(entry);
      box_a = box_a.Union(b);
    } else {
      group_b.push_back(entry);
      box_b = box_b.Union(b);
    }
  }

  nodes_[node_id].count = 0;
  for (uint32_t slot : group_a) {
    is_leaf ? AppendPoi(node_id, full.ref[slot])
            : AppendChild(node_id, full.ref[slot]);
  }
  for (uint32_t slot : group_b) {
    is_leaf ? AppendPoi(sibling, full.ref[slot])
            : AppendChild(sibling, full.ref[slot]);
  }
  RecomputeBox(node_id);
  RecomputeBox(sibling);
  return sibling;
}

void RTree::AdjustTree(std::vector<uint32_t> path, uint32_t /*split_id*/) {
  for (size_t i = path.size(); i-- > 0;) {
    uint32_t id = path[i];
    RecomputeBox(id);
    if (nodes_[id].count > kFanout) {
      uint32_t sibling = SplitNode(id);
      if (i == 0) {
        // Root split: grow a new root.
        uint32_t new_root = AllocNode();
        nodes_[new_root].is_leaf = false;
        AppendChild(new_root, id);
        AppendChild(new_root, sibling);
        RecomputeBox(new_root);
        root_ = new_root;
        ++height_;
      } else {
        AppendChild(path[i - 1], sibling);
      }
    }
  }
}

void RTree::Insert(const Poi& poi) {
  uint32_t poi_index = static_cast<uint32_t>(pois_.size());
  pois_.push_back(poi);
  live_.push_back(true);
  ++live_count_;

  if (height_ == 0) {
    root_ = AllocNode();
    nodes_[root_].is_leaf = true;
    AppendPoi(root_, poi_index);
    RecomputeBox(root_);
    height_ = 1;
    return;
  }
  std::vector<uint32_t> path;
  uint32_t leaf = ChooseLeaf(Rect::FromPoint(poi.location), &path);
  AppendPoi(leaf, poi_index);
  AdjustTree(std::move(path), 0);
}

bool RTree::FindLeaf(uint32_t poi_index, uint32_t node_id,
                     std::vector<uint32_t>* path) const {
  path->push_back(node_id);
  const Node& node = nodes_[node_id];
  if (node.is_leaf) {
    for (uint32_t i = 0; i < node.count; ++i) {
      if (node.ref[i] == poi_index) return true;
    }
  } else {
    const Point& location = pois_[poi_index].location;
    for (uint32_t i = 0; i < node.count; ++i) {
      if (node.EntryBox(i).Contains(location) &&
          FindLeaf(poi_index, node.ref[i], path)) {
        return true;
      }
    }
  }
  path->pop_back();
  return false;
}

namespace {

// Depth-first collection of all POI indices in a subtree.
void CollectSubtree(const std::vector<RTree::Node>& nodes, uint32_t node_id,
                    std::vector<uint32_t>* pois_out,
                    std::vector<uint32_t>* nodes_out) {
  nodes_out->push_back(node_id);
  const RTree::Node& node = nodes[node_id];
  for (uint32_t i = 0; i < node.count; ++i) {
    if (node.is_leaf) {
      pois_out->push_back(node.ref[i]);
    } else {
      CollectSubtree(nodes, node.ref[i], pois_out, nodes_out);
    }
  }
}

}  // namespace

bool RTree::Delete(uint32_t poi_id) {
  // Locate the live POI slot with this id.
  uint32_t poi_index = 0;
  bool found = false;
  for (size_t i = 0; i < pois_.size(); ++i) {
    if (live_[i] && pois_[i].id == poi_id) {
      poi_index = static_cast<uint32_t>(i);
      found = true;
      break;
    }
  }
  if (!found || height_ == 0) return false;

  std::vector<uint32_t> path;
  if (!FindLeaf(poi_index, root_, &path)) return false;

  // Remove the entry from its leaf.
  uint32_t leaf = path.back();
  RemoveEntry(leaf, poi_index);
  live_[poi_index] = false;
  --live_count_;

  // Condense: dissolve underfull non-root nodes bottom-up and remember
  // their POIs for reinsertion.
  std::vector<uint32_t> orphans;
  for (size_t i = path.size(); i-- > 1;) {
    uint32_t id = path[i];
    if (nodes_[id].count < static_cast<uint32_t>(kMinFill)) {
      std::vector<uint32_t> freed;
      CollectSubtree(nodes_, id, &orphans, &freed);
      RemoveEntry(path[i - 1], id);
      for (uint32_t f : freed) free_nodes_.push_back(f);
    } else {
      RecomputeBox(id);
    }
  }
  RecomputeBox(root_);

  // Shrink the root while it is an internal node with a single child.
  while (!nodes_[root_].is_leaf && nodes_[root_].count == 1) {
    uint32_t old_root = root_;
    root_ = nodes_[root_].ref[0];
    free_nodes_.push_back(old_root);
    --height_;
  }
  // A now-empty root leaf means an empty tree.
  if (nodes_[root_].is_leaf && nodes_[root_].count == 0) {
    free_nodes_.push_back(root_);
    root_ = 0;
    height_ = 0;
  }

  // Reinsert orphaned POIs (their pois_ slots are reused as-is).
  for (uint32_t orphan : orphans) {
    if (height_ == 0) {
      root_ = AllocNode();
      nodes_[root_].is_leaf = true;
      AppendPoi(root_, orphan);
      RecomputeBox(root_);
      height_ = 1;
      continue;
    }
    std::vector<uint32_t> insert_path;
    uint32_t target =
        ChooseLeaf(Rect::FromPoint(pois_[orphan].location), &insert_path);
    AppendPoi(target, orphan);
    AdjustTree(std::move(insert_path), 0);
  }
  return true;
}

// ---------- queries & validation ----------

std::vector<Poi> RTree::RangeQuery(const Rect& range) const {
  std::vector<Poi> out;
  if (Empty()) return out;
  std::vector<uint32_t> stack = {root_};
  while (!stack.empty()) {
    const Node& node = nodes_[stack.back()];
    stack.pop_back();
    if (!node.box.Intersects(range)) continue;
    for (uint32_t i = 0; i < node.count; ++i) {
      if (node.is_leaf) {
        const Point location{node.min_x[i], node.min_y[i]};
        if (range.Contains(location)) out.push_back({node.poi_id[i], location});
      } else if (node.EntryBox(i).Intersects(range)) {
        stack.push_back(node.ref[i]);
      }
    }
  }
  return out;
}

Status RTree::CheckInvariants() const {
  if (Empty()) {
    if (height_ != 0) return Status::Internal("empty tree has height");
    return Status::OK();
  }
  std::vector<int> seen(pois_.size(), 0);
  std::vector<std::pair<uint32_t, int>> stack = {{root_, height_}};
  while (!stack.empty()) {
    auto [id, level] = stack.back();
    stack.pop_back();
    const Node& node = nodes_[id];
    if (node.count == 0) return Status::Internal("node with no entries");
    if (node.count > kFanout) return Status::Internal("node exceeds fanout");
    if (node.is_leaf != (level == 1))
      return Status::Internal("leaf depth mismatch: tree not balanced");
    Rect computed = Rect::Empty();
    for (uint32_t i = 0; i < node.count; ++i) {
      const uint32_t ref = node.ref[i];
      Rect source;
      if (node.is_leaf) {
        if (ref >= pois_.size()) return Status::Internal("POI index OOB");
        ++seen[ref];
        source = Rect::FromPoint(pois_[ref].location);
        if (node.poi_id[i] != pois_[ref].id)
          return Status::Internal("leaf entry id differs from its POI");
      } else {
        if (ref >= nodes_.size()) return Status::Internal("child index OOB");
        source = nodes_[ref].box;
        stack.push_back({ref, level - 1});
      }
      if (!(node.EntryBox(i) == source))
        return Status::Internal("inline entry box differs from its source");
      computed = computed.Union(source);
    }
    if (!(computed == node.box))
      return Status::Internal("node MBR is not tight");
  }
  for (size_t i = 0; i < seen.size(); ++i) {
    int expected = live_[i] ? 1 : 0;
    if (seen[i] != expected) {
      return Status::Internal("POI " + std::to_string(i) + " reachable " +
                              std::to_string(seen[i]) + " times (expected " +
                              std::to_string(expected) + ")");
    }
  }
  return Status::OK();
}

}  // namespace ppgnn
