#include "layers.h"

#include "dma/bounce_pool.h"

namespace perfbench {

namespace {

double Ratio(uint64_t num, uint64_t den) {
  return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

}  // namespace

LayerCounters SnapLayers(spv::core::Machine& machine,
                         const std::vector<spv::DeviceId>& devices) {
  LayerCounters c;
  spv::iommu::Iommu& iommu = machine.iommu();
  const auto& stats = iommu.stats();
  c.sim_now = machine.clock().now();
  c.targeted_invalidations = stats.targeted_invalidations;
  c.invalidation_cycles = stats.invalidation_cycles;
  c.flushes = stats.flushes;
  c.capacity_drains = stats.flush_capacity_drains;
  c.deadline_drains = stats.flush_deadline_drains;
  c.stale_iotlb_accesses = stats.stale_iotlb_accesses;
  c.iotlb_hits = iommu.iotlb().hits();
  c.iotlb_misses = iommu.iotlb().misses();
  for (spv::DeviceId device : devices) {
    if (const auto* alloc = iommu.iova_allocator(device)) {
      c.rcache_hits += alloc->stats().rcache_hits;
      c.rcache_misses += alloc->stats().rcache_misses;
      c.depot_refills += alloc->stats().depot_refills;
    }
    if (const auto* table = iommu.page_table(device)) {
      c.walk_hits += table->walk_cache_stats().hits;
      c.walk_misses += table->walk_cache_stats().misses;
    }
  }
  if (const spv::dma::BouncePool* pool = machine.bounce_pool()) {
    c.bounce_copies = pool->copies();
    c.bounce_copy_cycles = pool->copy_cycles();
    c.syncs_for_cpu = pool->total_syncs_for_cpu();
    c.syncs_for_device = pool->total_syncs_for_device();
  }
  return c;
}

void ReportLayerCounters(Report& report, const LayerCounters& b, const LayerCounters& a,
                         uint64_t ops, spv::core::Machine& machine) {
  const uint64_t cycles = a.sim_now - b.sim_now;
  report.Set("iommu.targeted_invalidations_per_op",
             Ratio(a.targeted_invalidations - b.targeted_invalidations, ops), "1/op");
  report.Set("iommu.invalidation_cycle_share",
             Ratio(a.invalidation_cycles - b.invalidation_cycles, cycles), "ratio");
  report.Set("iommu.flushes_per_kop", 1000.0 * Ratio(a.flushes - b.flushes, ops), "1/kop");
  report.Set("iommu.flush_capacity_drains",
             static_cast<double>(a.capacity_drains - b.capacity_drains), "count");
  report.Set("iommu.flush_deadline_drains",
             static_cast<double>(a.deadline_drains - b.deadline_drains), "count");
  const uint64_t hits = a.iotlb_hits - b.iotlb_hits;
  report.Set("iommu.iotlb_hit_rate", Ratio(hits, hits + a.iotlb_misses - b.iotlb_misses),
             "ratio");
  const uint64_t rc = a.rcache_hits - b.rcache_hits;
  report.Set("iommu.iova.rcache_hit_rate",
             Ratio(rc, rc + a.rcache_misses - b.rcache_misses), "ratio");
  report.Set("iommu.iova.depot_refills", static_cast<double>(a.depot_refills - b.depot_refills),
             "count");
  const uint64_t wh = a.walk_hits - b.walk_hits;
  report.Set("iommu.walk_cache_hit_rate", Ratio(wh, wh + a.walk_misses - b.walk_misses),
             "ratio");
  report.Set("iommu.stale_iotlb_accesses",
             static_cast<double>(a.stale_iotlb_accesses - b.stale_iotlb_accesses), "count");
  report.Set("dma.bounce.copies_per_op", Ratio(a.bounce_copies - b.bounce_copies, ops), "1/op");
  report.Set("dma.bounce.copy_cycle_share",
             Ratio(a.bounce_copy_cycles - b.bounce_copy_cycles, cycles), "ratio");
  report.Set("dma.bounce.syncs_for_cpu_per_op", Ratio(a.syncs_for_cpu - b.syncs_for_cpu, ops),
             "1/op");
  report.Set("dma.bounce.syncs_for_device_per_op",
             Ratio(a.syncs_for_device - b.syncs_for_device, ops), "1/op");
  report.Set("dma.live_mappings_at_end", static_cast<double>(machine.dma().live_mappings()),
             "count");
}

}  // namespace perfbench
