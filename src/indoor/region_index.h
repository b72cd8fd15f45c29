#ifndef C2MN_INDOOR_REGION_INDEX_H_
#define C2MN_INDOOR_REGION_INDEX_H_

#include <memory>
#include <vector>

#include "indoor/floorplan.h"
#include "indoor/rtree.h"

namespace c2mn {

/// \brief Spatial lookup over partitions and semantic regions, one R-tree
/// per floor (partitions never span floors).
///
/// Serves three hot paths of the annotation pipeline: exact point-location
/// (which partition/region contains a fix), nearest-region queries (used by
/// the SMoT/SAP baselines and ground-truth labeling), and candidate-region
/// generation for the probabilistic models.
class RegionIndex {
 public:
  explicit RegionIndex(const Floorplan& plan);

  /// Partition containing `p`, or kInvalidId.
  PartitionId PartitionAt(const IndoorPoint& p) const;

  /// Semantic region containing `p`, or kInvalidId (circulation space).
  RegionId RegionAt(const IndoorPoint& p) const;

  /// A region id together with its horizontal distance from a query point.
  struct RegionDistance {
    RegionId region;
    double distance;
  };

  /// The `k` distinct semantic regions on `p.floor` nearest to `p`
  /// (distance 0 when `p` is inside), closest first.  Regions farther than
  /// `max_distance` are not reported.
  std::vector<RegionDistance> NearestRegions(
      const IndoorPoint& p, size_t k,
      double max_distance = 1e300) const;

  /// NearestRegions writing into a caller-owned vector, so per-record
  /// candidate generation can recycle one buffer instead of allocating a
  /// result vector (and a dedup set) per query.  `out` is cleared first.
  void NearestRegionsInto(const IndoorPoint& p, size_t k, double max_distance,
                          std::vector<RegionDistance>* out) const;

  /// The single nearest region on `p.floor`; kInvalidId only when the
  /// floor holds no semantic region at all.
  RegionId NearestRegion(const IndoorPoint& p) const;

 private:
  /// R-tree fanout of the per-floor trees.  A floor of up to this many
  /// partitions (the generated mall has 37) is a single leaf: one run of
  /// bbox keys, lazily ordered, is cheaper to search than two tree levels
  /// (about 12% less time per nearest-region query on the mall than
  /// fanout 16).
  static constexpr int kFloorTreeFanout = 64;

  const Floorplan& plan_;
  std::vector<std::unique_ptr<RTree>> floor_trees_;  // Indexed by floor.
};

}  // namespace c2mn

#endif  // C2MN_INDOOR_REGION_INDEX_H_
