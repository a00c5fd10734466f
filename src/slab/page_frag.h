// page_frag allocator (paper §5.2.2, Figure 5).
//
// Linux network drivers allocate RX data buffers from a per-CPU page_frag
// pool: a contiguous region (usually 32 KiB) with a `va` pointer at its start
// and an `offset` initialized to the region end. An allocation of B bytes
// subtracts B from `offset` and returns va+offset — so consecutive
// allocations are adjacent and *often share a 4 KiB page*. When each buffer
// is DMA-mapped separately, the shared page ends up mapped by multiple IOVAs:
// the paper's type (c) sub-page vulnerability, used 344 times by network
// drivers in Linux 5.0.

#ifndef SPV_SLAB_PAGE_FRAG_H_
#define SPV_SLAB_PAGE_FRAG_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "base/flat_map.h"
#include "base/site.h"
#include "base/status.h"
#include "base/types.h"
#include "mem/kernel_layout.h"
#include "mem/page_allocator.h"
#include "mem/page_db.h"
#include "slab/observer.h"
#include "telemetry/telemetry.h"

namespace spv::fault {
class FaultEngine;
}  // namespace spv::fault

namespace spv::slab {

struct FragInfo {
  Kva kva;
  uint64_t size;
  std::string_view site;  // a Site's name
};

class PageFragPool {
 public:
  static constexpr uint64_t kDefaultRegionBytes = 32 * 1024;

  // `hub` optional as in SlabAllocator: null means a lazily-owned private bus.
  PageFragPool(mem::PageDb& page_db, mem::PageAllocator& page_alloc,
               const mem::KernelLayout& layout, CpuId cpu,
               uint64_t region_bytes = kDefaultRegionBytes,
               telemetry::Hub* hub = nullptr);

  PageFragPool(const PageFragPool&) = delete;
  PageFragPool& operator=(const PageFragPool&) = delete;

  // Carves `size` bytes off the current region, aligned down to `align`.
  // A fresh region is allocated when the current one is exhausted. Sizes
  // larger than the standard region get a dedicated region (HW-LRO style
  // 64 KiB buffers take this path).
  Result<Kva> Alloc(uint64_t size, uint64_t align = 1, Site site = "page_frag");

  // Drops the reference a frag holds on its region; the region's pages are
  // returned to the buddy allocator when retired and unreferenced.
  Status Free(Kva kva);

  CpuId cpu() const { return cpu_; }

  // Live frags whose extents intersect `pfn`, in address order. Ground truth
  // for type (c) analysis: more than one entry here means co-located buffers.
  std::vector<FragInfo> LiveFragsOnPage(Pfn pfn) const;

  // Number of regions ever allocated (Fig 5 statistics).
  uint64_t regions_allocated() const { return regions_allocated_; }
  uint64_t live_frags() const { return frags_.size(); }

  // Observers are bridged onto the telemetry bus (origin = this pool).
  void AddObserver(SlabObserver* observer);
  void RemoveObserver(SlabObserver* observer);

  // The bus every frag event is published to.
  telemetry::Hub& telemetry();

  // Optional fault hook (kPageFragAlloc): nullptr detaches.
  void set_fault_engine(fault::FaultEngine* engine) { fault_ = engine; }

 private:
  struct Region {
    Pfn head;
    unsigned order = 0;
    uint64_t bytes = 0;
    uint64_t offset = 0;  // next allocation ends here (descending)
    uint32_t refs = 0;
    bool current = false;
  };

  struct Frag {
    uint64_t region_head = 0;  // pfn of owning region
    uint64_t size = 0;
    std::string_view site;  // a Site's name
  };

  Result<Region*> RefillRegion(uint64_t bytes);
  void MaybeReleaseRegion(uint64_t head_pfn);
  void Notify(bool alloc, Kva kva, uint64_t size, Site site);

  mem::PageDb& page_db_;
  mem::PageAllocator& page_alloc_;
  const mem::KernelLayout& layout_;
  CpuId cpu_;
  uint64_t region_bytes_;

  uint64_t current_region_ = UINT64_MAX;                // head pfn of active region
  FlatMap<uint64_t, Region> regions_;                  // head pfn -> region
  FlatMap<uint64_t, Frag> frags_;                      // frag kva -> record
  telemetry::Hub* hub_;
  std::unique_ptr<telemetry::Hub> owned_hub_;  // fallback when none injected
  std::vector<std::unique_ptr<SlabObserverSink>> observer_sinks_;
  telemetry::CachedCounter c_allocs_{"frag.allocs"};
  telemetry::CachedCounter c_frees_{"frag.frees"};
  telemetry::CachedHistogram h_alloc_bytes_{"frag.alloc_bytes"};
  uint64_t regions_allocated_ = 0;
  fault::FaultEngine* fault_ = nullptr;
};

}  // namespace spv::slab

#endif  // SPV_SLAB_PAGE_FRAG_H_
