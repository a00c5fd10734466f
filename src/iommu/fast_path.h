// Fast-path knobs for the DMA map/unmap hot path.
//
// One struct gates every optimization added on top of the architecturally
// faithful slow path, so a single binary can run both configurations and an
// A/B comparison (bench_map_unmap) is honest. The toggles never change
// semantics: the fast path must be *observably equivalent* to the slow path
// — same IOVAs-are-distinct substrate for the type (c) vulnerability, same
// deferred-invalidation window, same fault behaviour. They may change cost:
// a walk-cache hit charges one page-walk level instead of up to four, so
// turning the walk cache off raises the simulated cycles of a translation
// miss. The rcache charges no cycles itself, but it changes which IOVAs are
// handed out.

#ifndef SPV_IOMMU_FAST_PATH_H_
#define SPV_IOMMU_FAST_PATH_H_

#include <cstddef>
#include <cstdint>

namespace spv::iommu {

struct FastPathConfig {
  // Linux-style per-CPU IOVA magazine caches (iova rcache) in front of the
  // range allocator. Off = every Alloc/Free walks the free-range tree.
  bool rcache_enabled = true;

  // Last-level walk cache in IoPageTable: repeated translations of hot 2 MiB
  // regions skip the multi-level radix descent.
  bool walk_cache_enabled = true;

  // Simulated CPUs sharing the rcache; each gets its own loaded/prev
  // magazine pair (struct iova_cpu_rcache).
  uint32_t num_cpus = 1;

  // IOVAs per magazine (IOVA_MAG_SIZE in Linux).
  size_t magazine_capacity = 127;

  // Full magazines the shared depot may hold per size class before overflow
  // dumps a magazine back to the range tree (MAX_GLOBAL_MAGS).
  size_t depot_capacity = 32;
};

}  // namespace spv::iommu

#endif  // SPV_IOMMU_FAST_PATH_H_
