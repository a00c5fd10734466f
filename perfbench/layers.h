// Counter snapshots of the iommu and dma layers, read through their existing
// public accessors, and the per-layer metrics derived from two snapshots.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <vector>

#include "core/machine.h"
#include "harness.h"

namespace perfbench {

struct LayerCounters {
  uint64_t sim_now = 0;
  uint64_t targeted_invalidations = 0;
  uint64_t invalidation_cycles = 0;
  uint64_t flushes = 0;
  uint64_t capacity_drains = 0;
  uint64_t deadline_drains = 0;
  uint64_t stale_iotlb_accesses = 0;
  uint64_t iotlb_hits = 0;
  uint64_t iotlb_misses = 0;
  uint64_t rcache_hits = 0;
  uint64_t rcache_misses = 0;
  uint64_t depot_refills = 0;
  uint64_t walk_hits = 0;
  uint64_t walk_misses = 0;
  uint64_t bounce_copies = 0;
  uint64_t bounce_copy_cycles = 0;
  uint64_t syncs_for_cpu = 0;
  uint64_t syncs_for_device = 0;
};

LayerCounters SnapLayers(spv::core::Machine& machine,
                         const std::vector<spv::DeviceId>& devices);

// Sets the iommu.* and dma.* counter metrics for `ops` timed ops; live
// mappings are read from `machine` as it stands at the end of the timed
// phase.
void ReportLayerCounters(Report& report, const LayerCounters& before,
                         const LayerCounters& after, uint64_t ops,
                         spv::core::Machine& machine);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
