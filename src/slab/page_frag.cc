#include "slab/page_frag.h"

#include <algorithm>
#include <cassert>

#include "base/align.h"
#include "fault/fault.h"

namespace spv::slab {

PageFragPool::PageFragPool(mem::PageDb& page_db, mem::PageAllocator& page_alloc,
                           const mem::KernelLayout& layout, CpuId cpu, uint64_t region_bytes,
                           telemetry::Hub* hub)
    : page_db_(page_db),
      page_alloc_(page_alloc),
      layout_(layout),
      cpu_(cpu),
      region_bytes_(AlignUp(region_bytes, kPageSize)),
      hub_(hub) {
  assert(region_bytes_ >= kPageSize);
}

telemetry::Hub& PageFragPool::telemetry() {
  if (hub_ == nullptr) {
    owned_hub_ = std::make_unique<telemetry::Hub>();
    hub_ = owned_hub_.get();
  }
  return *hub_;
}

void PageFragPool::AddObserver(SlabObserver* observer) {
  observer_sinks_.push_back(std::make_unique<SlabObserverSink>(this, observer));
  telemetry().AddSink(observer_sinks_.back().get());
}

void PageFragPool::RemoveObserver(SlabObserver* observer) {
  for (auto it = observer_sinks_.begin(); it != observer_sinks_.end();) {
    if ((*it)->observer() == observer) {
      telemetry().RemoveSink(it->get());
      it = observer_sinks_.erase(it);
    } else {
      ++it;
    }
  }
}

Result<PageFragPool::Region*> PageFragPool::RefillRegion(uint64_t bytes) {
  const uint64_t region_bytes = AlignUp(bytes, kPageSize);
  const unsigned order = Log2Ceil(region_bytes >> kPageShift);
  Result<Pfn> head = page_alloc_.AllocPages(order, mem::PageOwner::kPageFrag);
  if (!head.ok()) {
    return head.status();
  }
  Region region;
  region.head = *head;
  region.order = order;
  region.bytes = uint64_t{1} << (order + kPageShift);
  region.offset = region.bytes;  // offset starts at the region end (Fig 5)
  region.current = true;
  ++regions_allocated_;
  if (hub_ != nullptr && hub_->enabled()) {
    hub_->counter("frag.regions").Add();
  }
  auto [stored, inserted] = regions_.TryEmplace(head->value, region);
  assert(inserted);
  (void)inserted;
  return stored;
}

Result<Kva> PageFragPool::Alloc(uint64_t size, uint64_t align, Site site) {
  if (size == 0 || !IsPowerOfTwo(align)) {
    return InvalidArgument("page_frag alloc: bad size or alignment");
  }
  if (fault_ != nullptr && fault_->armed() &&
      fault_->ShouldInject(fault::FaultSite::kPageFragAlloc)) {
    return ResourceExhausted("injected: page_frag pool exhausted");
  }

  if (size > region_bytes_) {
    // Oversized request: dedicated region (e.g. 64 KiB HW-LRO buffers, §5.3).
    Result<Region*> region = RefillRegion(size);
    if (!region.ok()) {
      return region.status();
    }
    Region* r = *region;
    r->current = false;  // dedicated; next normal alloc refills
    r->offset = AlignDown(r->bytes - size, align);
    r->refs = 1;
    const Kva kva = layout_.PhysToDirectMapKva(PhysAddr::FromPfn(r->head, 0)) + r->offset;
    frags_.InsertOrAssign(kva.value, Frag{r->head.value, size, site});
    Notify(true, kva, size, site);
    return kva;
  }

  Region* region = nullptr;
  if (current_region_ != UINT64_MAX) {
    Region* current = regions_.Find(current_region_);
    if (current != nullptr && current->offset >= size) {
      region = current;
    }
  }
  if (region == nullptr) {
    // Retire the current region; it lives on until its refs drop.
    if (current_region_ != UINT64_MAX) {
      if (Region* retired = regions_.Find(current_region_); retired != nullptr) {
        retired->current = false;
        MaybeReleaseRegion(current_region_);
      }
      current_region_ = UINT64_MAX;
    }
    Result<Region*> fresh = RefillRegion(region_bytes_);
    if (!fresh.ok()) {
      return fresh.status();
    }
    region = *fresh;
    current_region_ = region->head.value;
  }

  region->offset = AlignDown(region->offset - size, align);
  ++region->refs;
  const Kva kva = layout_.PhysToDirectMapKva(PhysAddr::FromPfn(region->head, 0)) + region->offset;
  frags_.InsertOrAssign(kva.value, Frag{region->head.value, size, site});
  Notify(true, kva, size, site);
  return kva;
}

Status PageFragPool::Free(Kva kva) {
  const Frag* frag = frags_.Find(kva.value);
  if (frag == nullptr) {
    return FailedPrecondition("page_frag free of unknown frag");
  }
  const uint64_t head = frag->region_head;
  const uint64_t size = frag->size;
  frags_.Erase(kva.value);

  Region* region = regions_.Find(head);
  if (region == nullptr) {
    return Internal("page_frag free: frag points at an unknown region");
  }
  if (region->refs == 0) {
    return Internal("page_frag free: region refcount underflow");
  }
  --region->refs;
  Notify(false, kva, size, "");
  MaybeReleaseRegion(head);
  return OkStatus();
}

void PageFragPool::MaybeReleaseRegion(uint64_t head_pfn) {
  const Region* region = regions_.Find(head_pfn);
  if (region == nullptr || region->current || region->refs > 0) {
    return;
  }
  Status s = page_alloc_.FreePages(region->head);
  if (!s.ok()) {
    // Keep the region recorded rather than leaking its bookkeeping; a later
    // release attempt (or CheckInvariants) will see the inconsistency.
    return;
  }
  regions_.Erase(head_pfn);
}

std::vector<FragInfo> PageFragPool::LiveFragsOnPage(Pfn pfn) const {
  std::vector<FragInfo> out;
  frags_.ForEach([&](uint64_t kva_value, const Frag& frag) {
    const Kva kva{kva_value};
    auto phys = layout_.DirectMapKvaToPhys(kva);
    if (!phys.ok()) {
      return;
    }
    const uint64_t first = phys->pfn().value;
    const uint64_t last = (phys->value + frag.size - 1) >> kPageShift;
    if (pfn.value >= first && pfn.value <= last) {
      out.push_back(FragInfo{kva, frag.size, frag.site});
    }
  });
  std::sort(out.begin(), out.end(), [](const FragInfo& a, const FragInfo& b) {
    return a.kva < b.kva;
  });
  return out;
}

void PageFragPool::Notify(bool alloc, Kva kva, uint64_t size, Site site) {
  telemetry::Hub& hub = telemetry();
  if (!hub.active()) {
    return;
  }
  telemetry::Event event;
  event.kind = alloc ? telemetry::EventKind::kFragAlloc : telemetry::EventKind::kFragFree;
  event.severity = telemetry::Severity::kTrace;
  event.device = cpu_.value;  // frag pools are per-CPU; reuse the id column
  event.addr = kva.value;
  event.len = size;
  event.origin = this;
  event.site = site;
  hub.Publish(std::move(event));
  if (hub.enabled()) {
    (alloc ? c_allocs_ : c_frees_).Get(hub).Add();
    if (alloc) {
      h_alloc_bytes_.Get(hub).Record(size);
    }
  }
}

}  // namespace spv::slab
