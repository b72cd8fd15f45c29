#include "indoor/rtree.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace c2mn {

RTree::RTree(std::vector<Entry> entries, int max_fanout)
    : entries_(std::move(entries)),
      max_fanout_(max_fanout),
      num_entries_(entries_.size()) {
  assert(max_fanout_ >= 2);
  if (entries_.empty()) return;

  // STR: sort by x-center, slice into vertical slabs, sort each slab by
  // y-center, pack runs of max_fanout entries into leaves.
  std::vector<int32_t> order(entries_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int32_t>(i);
  auto center_x = [&](int32_t i) { return entries_[i].box.Center().x; };
  auto center_y = [&](int32_t i) { return entries_[i].box.Center().y; };
  std::sort(order.begin(), order.end(),
            [&](int32_t a, int32_t b) { return center_x(a) < center_x(b); });

  const size_t n = entries_.size();
  const size_t leaves =
      (n + max_fanout_ - 1) / static_cast<size_t>(max_fanout_);
  const size_t slabs =
      static_cast<size_t>(std::ceil(std::sqrt(static_cast<double>(leaves))));
  const size_t slab_size =
      (n + slabs - 1) / slabs;

  std::vector<int32_t> leaf_ids;
  for (size_t s = 0; s < n; s += slab_size) {
    const size_t end = std::min(n, s + slab_size);
    std::sort(order.begin() + s, order.begin() + end,
              [&](int32_t a, int32_t b) { return center_y(a) < center_y(b); });
    for (size_t i = s; i < end; i += max_fanout_) {
      Node leaf;
      leaf.is_leaf = true;
      const size_t stop = std::min(end, i + max_fanout_);
      for (size_t j = i; j < stop; ++j) {
        leaf.children.push_back(order[j]);
        leaf.box.Extend(entries_[order[j]].box);
      }
      leaf_ids.push_back(static_cast<int32_t>(nodes_.size()));
      nodes_.push_back(std::move(leaf));
    }
  }

  std::vector<int32_t> level = leaf_ids;
  while (level.size() > 1) level = PackLevel(level);
  root_ = level.front();
}

std::vector<int32_t> RTree::PackLevel(const std::vector<int32_t>& child_ids) {
  std::vector<int32_t> sorted = child_ids;
  std::sort(sorted.begin(), sorted.end(), [&](int32_t a, int32_t b) {
    return nodes_[a].box.Center().x < nodes_[b].box.Center().x;
  });
  const size_t n = sorted.size();
  const size_t parents =
      (n + max_fanout_ - 1) / static_cast<size_t>(max_fanout_);
  const size_t slabs =
      static_cast<size_t>(std::ceil(std::sqrt(static_cast<double>(parents))));
  const size_t slab_size = (n + slabs - 1) / slabs;

  std::vector<int32_t> out;
  for (size_t s = 0; s < n; s += slab_size) {
    const size_t end = std::min(n, s + slab_size);
    std::sort(sorted.begin() + s, sorted.begin() + end,
              [&](int32_t a, int32_t b) {
                return nodes_[a].box.Center().y < nodes_[b].box.Center().y;
              });
    for (size_t i = s; i < end; i += max_fanout_) {
      Node parent;
      parent.is_leaf = false;
      const size_t stop = std::min(end, i + max_fanout_);
      for (size_t j = i; j < stop; ++j) {
        parent.children.push_back(sorted[j]);
        parent.box.Extend(nodes_[sorted[j]].box);
      }
      out.push_back(static_cast<int32_t>(nodes_.size()));
      nodes_.push_back(std::move(parent));
    }
  }
  return out;
}

std::vector<int32_t> RTree::Search(const BoundingBox& query) const {
  std::vector<int32_t> result;
  if (root_ < 0) return result;
  std::vector<int32_t> stack = {root_};
  while (!stack.empty()) {
    const Node& node = nodes_[stack.back()];
    stack.pop_back();
    if (!node.box.Intersects(query)) continue;
    if (node.is_leaf) {
      for (int32_t e : node.children) {
        if (entries_[e].box.Intersects(query)) {
          result.push_back(entries_[e].payload);
        }
      }
    } else {
      for (int32_t c : node.children) {
        if (nodes_[c].box.Intersects(query)) stack.push_back(c);
      }
    }
  }
  return result;
}

std::vector<std::pair<int32_t, double>> RTree::NearestK(
    const Vec2& p, size_t k,
    const std::function<double(int32_t)>& refine) const {
  std::vector<std::pair<int32_t, double>> out;
  NearestTraversal(
      p,
      [&refine](int32_t payload) {
        const double d = refine(payload);
        return d * d;
      },
      [&](int32_t payload, double) {
        // Re-refined rather than sqrt(d * d), so results are refine()'s
        // own values.  Only the k reported payloads pay the second call.
        out.emplace_back(payload, refine(payload));
        return out.size() < k;
      });
  return out;
}

}  // namespace c2mn
