// Bounce-buffer DMA backend (Markuze et al. [47]: "true IOMMU protection
// from DMA attacks — when copy is faster than zero copy").
//
// Instead of mapping the caller's buffer (and thereby its whole page), the
// backend keeps a per-device pool of dedicated pages with *static* mappings
// and copies data through them:
//
//   * sub-page vulnerability eliminated — the device sees only dedicated
//     pages that never hold anything but this device's in-flight I/O bytes;
//   * deferred-invalidation window eliminated — the mappings are permanent,
//     so no unmap and no IOTLB invalidation ever happens on the I/O path;
//   * cost — one copy per direction (the paper's trade-off), modelled in
//     simulated cycles.

#ifndef SPV_DMA_BOUNCE_H_
#define SPV_DMA_BOUNCE_H_

#include <cstdint>
#include <map>
#include <vector>

#include "dma/dma_api.h"
#include "mem/page_allocator.h"
#include "mem/phys_memory.h"

namespace spv::dma {

// Simulated copy cost (§8 discussion: copying is cheap relative to a 2000-
// cycle IOTLB invalidation for packet-sized buffers).
inline constexpr uint64_t kCopyCyclesPerCacheLine = 2;

class BounceDma : public DmaApi {
 public:
  BounceDma(iommu::Iommu& iommu, const mem::KernelLayout& layout, mem::PhysicalMemory& pm,
            mem::PageAllocator& page_alloc, SimClock& clock);

  // Pre-maps `pages` dedicated bounce pages for `device` (static mappings).
  Status AttachDevice(DeviceId device, uint64_t pages = 64);

  Result<Iova> MapSingle(DeviceId device, Kva kva, uint64_t len, DmaDirection dir,
                         Site site = "bounce_map") override;
  Status UnmapSingle(DeviceId device, Iova iova, uint64_t len, DmaDirection dir) override;

  uint64_t copies() const { return copies_; }
  uint64_t copy_cycles() const { return copy_cycles_; }

 private:
  struct BouncePage {
    Pfn pfn;
    Iova iova;       // static BIDIRECTIONAL mapping
    bool in_use = false;
  };
  struct ActiveBounce {
    size_t page_index;
    Kva orig_kva;
    uint64_t len;
    DmaDirection dir;
  };
  struct DevicePool {
    std::vector<BouncePage> pages;
    std::map<uint64_t, ActiveBounce> active;  // iova -> bounce
  };

  Status Copy(Kva dst, Kva src, uint64_t len);

  mem::PhysicalMemory& pm_;
  mem::PageAllocator& page_alloc_;
  SimClock& clock_;
  std::map<uint32_t, DevicePool> pools_;
  uint64_t copies_ = 0;
  uint64_t copy_cycles_ = 0;
};

}  // namespace spv::dma

#endif  // SPV_DMA_BOUNCE_H_
