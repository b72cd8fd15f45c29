#include "indoor/region_index.h"

#include <algorithm>
#include <cmath>

namespace c2mn {

RegionIndex::RegionIndex(const Floorplan& plan) : plan_(plan) {
  floor_trees_.resize(plan.num_floors());
  for (FloorId f = 0; f < plan.num_floors(); ++f) {
    std::vector<RTree::Entry> entries;
    for (PartitionId pid : plan.PartitionsOnFloor(f)) {
      entries.push_back({plan.partition(pid).shape.bbox(), pid});
    }
    floor_trees_[f] =
        std::make_unique<RTree>(std::move(entries), kFloorTreeFanout);
  }
}

PartitionId RegionIndex::PartitionAt(const IndoorPoint& p) const {
  if (p.floor < 0 || p.floor >= static_cast<FloorId>(floor_trees_.size())) {
    return kInvalidId;
  }
  BoundingBox point_box;
  point_box.Extend(p.xy);
  for (int32_t pid : floor_trees_[p.floor]->Search(point_box)) {
    if (plan_.partition(pid).shape.Contains(p.xy)) return pid;
  }
  return kInvalidId;
}

RegionId RegionIndex::RegionAt(const IndoorPoint& p) const {
  const PartitionId pid = PartitionAt(p);
  return pid == kInvalidId ? kInvalidId : plan_.partition(pid).region;
}

std::vector<RegionIndex::RegionDistance> RegionIndex::NearestRegions(
    const IndoorPoint& p, size_t k, double max_distance) const {
  std::vector<RegionDistance> out;
  NearestRegionsInto(p, k, max_distance, &out);
  return out;
}

void RegionIndex::NearestRegionsInto(const IndoorPoint& p, size_t k,
                                     double max_distance,
                                     std::vector<RegionDistance>* out) const {
  out->clear();
  if (p.floor < 0 || p.floor >= static_cast<FloorId>(floor_trees_.size()) ||
      max_distance < 0.0) {
    return;
  }
  out->reserve(k);
  const RTree& tree = *floor_trees_[p.floor];
  // Results are few (<= k, typically single digits), so deduplicating the
  // multi-partition regions by scanning the output beats a hash set.
  // The traversal runs on squared distances; a reported region takes the
  // one square root.
  tree.NearestTraversal(
      p.xy,
      [this, &p](int32_t pid) {
        return plan_.partition(pid).shape.SquaredDistance(p.xy);
      },
      [this, k, out](int32_t pid, double dist2) {
        const RegionId region = plan_.partition(pid).region;
        if (region != kInvalidId &&
            std::none_of(out->begin(), out->end(),
                         [region](const RegionDistance& rd) {
                           return rd.region == region;
                         })) {
          out->push_back({region, std::sqrt(dist2)});
        }
        return out->size() < k;
      },
      // The radius prunes the traversal: nothing beyond it is visited.
      max_distance * max_distance);
}

RegionId RegionIndex::NearestRegion(const IndoorPoint& p) const {
  auto nearest = NearestRegions(p, 1);
  return nearest.empty() ? kInvalidId : nearest.front().region;
}

}  // namespace c2mn
