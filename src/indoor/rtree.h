#ifndef C2MN_INDOOR_RTREE_H_
#define C2MN_INDOOR_RTREE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "geometry/polygon.h"

namespace c2mn {

/// \brief A static STR-packed R-tree over rectangles with integer payloads.
///
/// The paper indexes all partitions and their semantic regions with an
/// R-tree to speed up feature extraction (Section V-B1).  This
/// implementation bulk-loads with the Sort-Tile-Recursive algorithm and
/// supports box-intersection queries and incremental best-first
/// nearest-neighbor traversal with user-supplied distance refinement.
class RTree {
 public:
  struct Entry {
    BoundingBox box;
    int32_t payload = 0;
  };

  /// Bulk-loads the tree; `max_fanout` children per internal node.
  explicit RTree(std::vector<Entry> entries, int max_fanout = 16);

  size_t size() const { return num_entries_; }

  /// Collects payloads of all entries whose box intersects `query`.
  std::vector<int32_t> Search(const BoundingBox& query) const;

  /// Visits entries in non-decreasing order of refined distance from `p`.
  ///
  /// Every distance of the traversal is *squared*: ordering on squared
  /// distances is ordering on distances, and it spares a square root per
  /// queued key.  `refine(payload)` returns the squared exact distance of
  /// the payload's object from the query point (at least the squared bbox
  /// distance, or the traversal is not guaranteed to be ordered).
  /// `visit(payload, dist2)` receives that squared distance and returns
  /// false to stop the traversal.  `max_dist2` prunes the search: subtrees,
  /// entries, and refined results whose squared distance exceeds it are
  /// never enqueued, so a bounded-radius query touches only the part of
  /// the tree inside the radius.  Entries within it are visited in the
  /// exact same order as the unbounded traversal; entries beyond it are
  /// simply never visited (callers that stop at a radius see identical
  /// results).
  ///
  /// Templated over the callables (not std::function) so the per-item
  /// callback dispatch inlines: this traversal runs for every record of
  /// every decoded sequence and the indirect calls dominated its cost.
  template <typename Refine, typename Visit>
  void NearestTraversal(
      const Vec2& p, const Refine& refine, const Visit& visit,
      double max_dist2 = std::numeric_limits<double>::infinity()) const {
    if (root_ < 0 || nodes_[root_].box.SquaredDistance(p) > max_dist2) return;
    // Best-first over child runs: expanding a node writes its in-radius
    // children with their keys into a run, and the heap holds one cursor
    // per run (keyed by the run's nearest remaining child) plus refined
    // entries waiting their turn.  A cursor's run is ordered lazily, one
    // selection step per pop, since a query stops after a few visits.
    // The heap stays a few items deep instead of holding every child key.
    //
    // Storage is thread-local so repeated traversals reuse warmed buffers,
    // sized once to the bound (each node expands at most once: the runs
    // hold at most every node and entry, the heap one cursor per node plus
    // refined entries).  The loop then works on raw arrays and local
    // counts, which the optimizer keeps in registers.
    thread_local Scratch scratch;
    const size_t bound = nodes_.size() + num_entries_;
    if (scratch.runs.size() < bound) {
      scratch.runs.resize(bound);
      scratch.heap.resize(bound);
    }
    RunItem* const runs = scratch.runs.data();
    HeapItem* const heap = scratch.heap.data();
    int32_t num_runs = 0;
    size_t heap_size = 0;
    const auto push = [heap, &heap_size](const HeapItem& item) {
      heap[heap_size++] = item;
      std::push_heap(heap, heap + heap_size, std::greater<>{});
    };
    // Moves the nearest child of runs[begin, end) to `begin` and queues
    // the run's cursor there.
    const auto queue_run = [&](int32_t begin, int32_t end, Kind kind) {
      if (begin >= end) return;
      // The running minimum stays in a register (no reload of
      // runs[best] per step), so the scan is a branch-free cmov chain.
      int32_t best = begin;
      double best_d2 = runs[begin].dist2;
      for (int32_t i = begin + 1; i < end; ++i) {
        const bool closer = runs[i].dist2 < best_d2;
        best_d2 = closer ? runs[i].dist2 : best_d2;
        best = closer ? i : best;
      }
      std::swap(runs[begin], runs[best]);
      push({runs[begin].dist2, begin, end, kind});
    };
    const auto expand = [&](int32_t node_id) {
      const Node& node = nodes_[node_id];
      const int32_t begin = num_runs;
      for (int32_t c : node.children) {
        const BoundingBox& box = node.is_leaf ? entries_[c].box : nodes_[c].box;
        const double d2 = box.SquaredDistance(p);
        if (d2 <= max_dist2) runs[num_runs++] = {d2, c};
      }
      queue_run(begin, num_runs, node.is_leaf ? kEntryRun : kNodeRun);
    };
    expand(root_);
    while (heap_size > 0) {
      std::pop_heap(heap, heap + heap_size, std::greater<>{});
      const HeapItem item = heap[--heap_size];
      if (item.kind == kRefinedEntry) {
        if (!visit(entries_[item.pos].payload, item.dist2)) return;
        continue;
      }
      const int32_t child = runs[item.pos].id;
      queue_run(item.pos + 1, item.end, item.kind);
      if (item.kind == kNodeRun) {
        expand(child);
        continue;
      }
      const int32_t payload = entries_[child].payload;
      const double exact = refine(payload);
      if (exact > max_dist2) continue;
      // A refined entry no farther than everything still queued is next
      // in order: visit it now instead of a push/pop round trip.  For
      // rectangles (every generated partition) the refined distance
      // equals the bbox key, so this is the common case.
      if (heap_size > 0 && exact > heap[0].dist2) {
        push({exact, child, 0, kRefinedEntry});
        continue;
      }
      if (!visit(payload, exact)) return;
    }
  }

  /// Convenience: the k nearest payloads with their refined distances.
  /// Unlike NearestTraversal, `refine` returns plain (unsquared) distances
  /// and so do the results.
  std::vector<std::pair<int32_t, double>> NearestK(
      const Vec2& p, size_t k,
      const std::function<double(int32_t)>& refine) const;

 private:
  struct Node {
    BoundingBox box;
    bool is_leaf = false;
    /// Children node indices (internal) or entry indices (leaf).
    std::vector<int32_t> children;
  };

  /// A node's child (node or entry index) keyed by squared bbox distance.
  struct RunItem {
    double dist2;
    int32_t id;
  };
  /// Best-first queue item: a cursor at runs[pos] of a run ending at
  /// `end` (children are nodes or raw entries), or a refined entry
  /// (pos = entry index) keyed by its squared exact distance.
  enum Kind : int32_t { kNodeRun, kEntryRun, kRefinedEntry };
  struct HeapItem {
    double dist2;
    int32_t pos;
    int32_t end;
    Kind kind;
    bool operator>(const HeapItem& o) const { return dist2 > o.dist2; }
  };
  struct Scratch {
    std::vector<RunItem> runs;
    std::vector<HeapItem> heap;
  };

  /// Builds one tree level above `child_ids` (indices into nodes_);
  /// returns ids of the created parents.
  std::vector<int32_t> PackLevel(const std::vector<int32_t>& child_ids);

  std::vector<Entry> entries_;
  std::vector<Node> nodes_;
  int32_t root_ = -1;
  int max_fanout_;
  size_t num_entries_ = 0;
};

}  // namespace c2mn

#endif  // C2MN_INDOOR_RTREE_H_
