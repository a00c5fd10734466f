#include "dma/bounce.h"

#include "base/align.h"

namespace spv::dma {

BounceDma::BounceDma(iommu::Iommu& iommu, const mem::KernelLayout& layout,
                     mem::PhysicalMemory& pm, mem::PageAllocator& page_alloc, SimClock& clock)
    : DmaApi(iommu, layout), pm_(pm), page_alloc_(page_alloc), clock_(clock) {}

Status BounceDma::AttachDevice(DeviceId device, uint64_t pages) {
  DevicePool& pool = pools_[device.value];
  for (uint64_t i = 0; i < pages; ++i) {
    Result<Pfn> pfn = page_alloc_.AllocPage(mem::PageOwner::kDriver);
    if (!pfn.ok()) {
      return pfn.status();
    }
    // Static BIDIRECTIONAL mapping, installed once at attach, never unmapped:
    // no invalidation traffic, no deferred window.
    Result<Iova> iova = iommu().MapPage(device, *pfn, iommu::AccessRights::kBidirectional);
    if (!iova.ok()) {
      return iova.status();
    }
    pool.pages.push_back(BouncePage{*pfn, *iova, false});
  }
  return OkStatus();
}

Status BounceDma::Copy(Kva dst, Kva src, uint64_t len) {
  Result<PhysAddr> src_phys = layout().DirectMapKvaToPhys(src);
  Result<PhysAddr> dst_phys = layout().DirectMapKvaToPhys(dst);
  if (!src_phys.ok() || !dst_phys.ok()) {
    return InvalidArgument("bounce copy outside the direct map");
  }
  SPV_RETURN_IF_ERROR(pm_.Copy(*dst_phys, *src_phys, len));
  ++copies_;
  const uint64_t cycles = kCopyCyclesPerCacheLine * (AlignUp(len, 64) / 64);
  copy_cycles_ += cycles;
  clock_.Advance(cycles);
  return OkStatus();
}

Result<Iova> BounceDma::MapSingle(DeviceId device, Kva kva, uint64_t len, DmaDirection dir,
                                  Site site) {
  (void)site;
  auto pool_it = pools_.find(device.value);
  if (pool_it == pools_.end()) {
    return FailedPrecondition("device has no bounce pool");
  }
  if (len == 0 || len > kPageSize) {
    return InvalidArgument("bounce backend supports sub-page buffers");
  }
  DevicePool& pool = pool_it->second;
  for (size_t i = 0; i < pool.pages.size(); ++i) {
    BouncePage& page = pool.pages[i];
    if (page.in_use) {
      continue;
    }
    page.in_use = true;
    const Kva bounce_kva = layout().PhysToDirectMapKva(PhysAddr::FromPfn(page.pfn));
    // Nothing but this I/O's bytes may be visible: scrub, then copy in for
    // device-readable directions.
    SPV_RETURN_IF_ERROR(pm_.Fill(PhysAddr::FromPfn(page.pfn), kPageSize, 0));
    if (dir == DmaDirection::kToDevice || dir == DmaDirection::kBidirectional) {
      SPV_RETURN_IF_ERROR(Copy(bounce_kva, kva, len));
    }
    pool.active[page.iova.value] = ActiveBounce{i, kva, len, dir};
    return page.iova;
  }
  return ResourceExhausted("bounce pool exhausted");
}

Status BounceDma::UnmapSingle(DeviceId device, Iova iova, uint64_t len, DmaDirection dir) {
  auto pool_it = pools_.find(device.value);
  if (pool_it == pools_.end()) {
    return FailedPrecondition("device has no bounce pool");
  }
  DevicePool& pool = pool_it->second;
  auto it = pool.active.find(iova.PageBase().value);
  if (it == pool.active.end()) {
    return FailedPrecondition("bounce unmap of unknown IOVA");
  }
  const ActiveBounce active = it->second;
  if (active.len != len || active.dir != dir) {
    return InvalidArgument("bounce unmap with mismatched length or direction");
  }
  BouncePage& page = pool.pages[active.page_index];
  const Kva bounce_kva = layout().PhysToDirectMapKva(PhysAddr::FromPfn(page.pfn));
  // Copy device-written data back to the real buffer.
  if (dir == DmaDirection::kFromDevice || dir == DmaDirection::kBidirectional) {
    SPV_RETURN_IF_ERROR(Copy(active.orig_kva, bounce_kva, len));
  }
  // No unmap, no invalidation: just recycle the dedicated page.
  page.in_use = false;
  pool.active.erase(it);
  return OkStatus();
}

}  // namespace spv::dma
