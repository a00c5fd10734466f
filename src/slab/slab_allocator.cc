#include "slab/slab_allocator.h"

#include <algorithm>
#include <mutex>

#include "base/align.h"
#include "fault/fault.h"

namespace spv::slab {

namespace {
constexpr uint16_t kLargeCacheId = 0xffff;
}  // namespace

SlabAllocator::SlabAllocator(mem::PhysicalMemory& pm, mem::PageDb& page_db,
                             mem::PageAllocator& page_alloc, const mem::KernelLayout& layout,
                             telemetry::Hub* hub)
    : pm_(pm), page_db_(page_db), page_alloc_(page_alloc), layout_(layout), hub_(hub) {
  for (size_t i = 0; i < kKmallocSizeClasses.size(); ++i) {
    caches_[i].id = static_cast<uint16_t>(i);
    caches_[i].object_size = kKmallocSizeClasses[i];
    caches_[i].objects_per_page = static_cast<uint32_t>(kPageSize / kKmallocSizeClasses[i]);
  }
}

std::optional<uint16_t> SlabAllocator::SizeClassIndex(uint64_t size) {
  if (size == 0) {
    size = 1;
  }
  for (size_t i = 0; i < kKmallocSizeClasses.size(); ++i) {
    if (size <= kKmallocSizeClasses[i]) {
      return static_cast<uint16_t>(i);
    }
  }
  return std::nullopt;
}

Result<Kva> SlabAllocator::Kmalloc(uint64_t size, Site site) {
  if (fault_ != nullptr && fault_->armed() &&
      fault_->ShouldInject(fault::FaultSite::kSlabAlloc)) {
    return ResourceExhausted("injected: kmalloc cache exhausted");
  }
  std::optional<uint16_t> cls = SizeClassIndex(size);
  if (!cls.has_value()) {
    return KmallocLarge(size, site);
  }
  std::lock_guard<MaybeMutex> guard(mu_);
  Cache& cache = caches_[*cls];

  // Find a partial slab page (MRU first, like SLUB's per-cpu active slab).
  while (!cache.partial.empty()) {
    const SlabPage* partial = slab_pages_.Find(cache.partial.back().value);
    if (partial == nullptr || partial->free_stack.empty()) {
      cache.partial.pop_back();
      continue;
    }
    break;
  }
  if (cache.partial.empty()) {
    Result<Pfn> page = NewSlabPage(cache);
    if (!page.ok()) {
      return page.status();
    }
    cache.partial.push_back(*page);
  }

  SlabPage& page = *slab_pages_.Find(cache.partial.back().value);
  const uint16_t slot = page.free_stack.back();
  const Kva kva = SlotKva(page, slot);
  // kzalloc semantics. Zero before carving the slot so a physical-memory
  // failure surfaces as a clean Status with no bookkeeping to roll back.
  auto phys = layout_.DirectMapKvaToPhys(kva);
  if (!phys.ok()) {
    return phys.status();
  }
  Status zero = pm_.Fill(*phys, cache.object_size, 0);
  if (!zero.ok()) {
    return zero;
  }

  page.free_stack.pop_back();
  page.occupied[slot] = true;
  page.sites[slot] = site;
  ++page.used;
  if (page.free_stack.empty()) {
    cache.partial.pop_back();  // page is now full
  }

  ++live_objects_;
  if (hub_ != nullptr && hub_->enabled()) {
    // Objects co-resident on this 4 KiB page after the allocation — the raw
    // material of the paper's type (b)/(d) sub-page exposure.
    h_co_residency_.Get(*hub_).Record(page.used);
  }
  Notify(/*alloc=*/true, kva, cache.object_size, site);
  return kva;
}

Result<Kva> SlabAllocator::KmallocLarge(uint64_t size, Site site) {
  std::lock_guard<MaybeMutex> guard(mu_);
  const unsigned order = Log2Ceil(AlignUp(size, kPageSize) >> kPageShift);
  Result<Pfn> head = page_alloc_.AllocPages(order, mem::PageOwner::kAnon);
  if (!head.ok()) {
    return head.status();
  }
  const Kva kva = layout_.PhysToDirectMapKva(PhysAddr::FromPfn(*head));
  Status zero = pm_.Fill(PhysAddr::FromPfn(*head), uint64_t{1} << (order + kPageShift), 0);
  if (!zero.ok()) {
    // Zeroing failed: return the pages and surface the error instead of
    // recording a half-initialised allocation.
    (void)page_alloc_.FreePages(*head);
    return zero;
  }
  large_[head->value] = LargeAlloc{*head, size, order, site};
  ++live_objects_;
  Notify(/*alloc=*/true, kva, size, site);
  return kva;
}

Result<Pfn> SlabAllocator::NewSlabPage(Cache& cache) {
  Result<Pfn> pfn = page_alloc_.AllocPage(mem::PageOwner::kSlab);
  if (!pfn.ok()) {
    return pfn.status();
  }
  page_db_.Get(*pfn).cache_id = cache.id;

  // Reuse a released page's record: its vectors keep their capacity, so a
  // page that empties and refills every packet costs no heap traffic.
  SlabPage page;
  if (!spare_pages_.empty()) {
    page = std::move(spare_pages_.back());
    spare_pages_.pop_back();
    page.used = 0;
    page.free_stack.clear();
  }
  page.pfn = *pfn;
  page.cache_id = cache.id;
  page.object_size = cache.object_size;
  page.capacity = cache.objects_per_page;
  page.occupied.assign(cache.objects_per_page, false);
  page.sites.assign(cache.objects_per_page, {});
  page.free_stack.reserve(cache.objects_per_page);
  // Push in reverse so the first pop yields slot 0 (SLUB fills ascending).
  for (uint32_t slot = cache.objects_per_page; slot > 0; --slot) {
    page.free_stack.push_back(static_cast<uint16_t>(slot - 1));
  }
  slab_pages_.InsertOrAssign(pfn->value, std::move(page));
  return *pfn;
}

Kva SlabAllocator::SlotKva(const SlabPage& page, uint32_t slot) const {
  return layout_.PhysToDirectMapKva(
      PhysAddr::FromPfn(page.pfn, uint64_t{slot} * page.object_size));
}

Status SlabAllocator::Kfree(Kva kva) {
  if (kva.is_null()) {
    return OkStatus();  // kfree(NULL) is a no-op, as in Linux
  }
  auto phys = layout_.DirectMapKvaToPhys(kva);
  if (!phys.ok()) {
    return InvalidArgument("kfree of non-direct-map KVA");
  }
  const Pfn pfn = phys->pfn();
  std::lock_guard<MaybeMutex> guard(mu_);

  // Large allocation?
  if (auto it = large_.find(pfn.value); it != large_.end()) {
    if (phys->page_offset() != 0) {
      return FailedPrecondition("kfree of interior pointer into large allocation");
    }
    const uint64_t size = it->second.size;
    SPV_RETURN_IF_ERROR(page_alloc_.FreePages(it->second.head));
    large_.erase(it);
    --live_objects_;
    Notify(/*alloc=*/false, kva, size, "");
    return OkStatus();
  }

  SlabPage* found = slab_pages_.Find(pfn.value);
  if (found == nullptr) {
    return FailedPrecondition("kfree of pointer not owned by slab");
  }
  SlabPage& page = *found;
  const uint64_t offset = phys->page_offset();
  if (offset % page.object_size != 0) {
    return FailedPrecondition("kfree of misaligned object pointer");
  }
  const uint32_t slot = static_cast<uint32_t>(offset / page.object_size);
  if (!page.occupied[slot]) {
    return FailedPrecondition("double kfree");
  }
  page.occupied[slot] = false;
  page.sites[slot] = {};
  page.free_stack.push_back(static_cast<uint16_t>(slot));
  const uint32_t was_used = page.used--;
  --live_objects_;
  Notify(/*alloc=*/false, kva, page.object_size, "");

  Cache& cache = caches_[page.cache_id];
  if (was_used == page.capacity) {
    // Page had been full; it is partial again. MRU end for LIFO reuse.
    cache.partial.push_back(page.pfn);
  }
  if (page.used == 0) {
    // Empty slab: release the page back to the buddy allocator.
    cache.partial.erase(std::remove_if(cache.partial.begin(), cache.partial.end(),
                                       [&](Pfn p) { return p == page.pfn; }),
                        cache.partial.end());
    const Pfn page_pfn = page.pfn;
    if (spare_pages_.size() < kMaxSparePages) {
      spare_pages_.push_back(std::move(page));
    }
    slab_pages_.Erase(page_pfn.value);
    SPV_RETURN_IF_ERROR(page_alloc_.FreePages(page_pfn));
  }
  return OkStatus();
}

std::optional<ObjectInfo> SlabAllocator::Lookup(Kva kva) const {
  auto phys = layout_.DirectMapKvaToPhys(kva);
  if (!phys.ok()) {
    return std::nullopt;
  }
  const Pfn pfn = phys->pfn();
  std::lock_guard<MaybeMutex> guard(mu_);

  if (const SlabPage* found = slab_pages_.Find(pfn.value); found != nullptr) {
    const SlabPage& page = *found;
    const uint32_t slot = static_cast<uint32_t>(phys->page_offset() / page.object_size);
    if (slot < page.capacity && page.occupied[slot]) {
      return ObjectInfo{SlotKva(page, slot), page.object_size, page.cache_id, page.sites[slot]};
    }
    return std::nullopt;
  }

  // Interior of a large allocation: scan heads covering this pfn.
  for (const auto& [head, alloc] : large_) {
    if (pfn.value >= head && pfn.value < head + (uint64_t{1} << alloc.order)) {
      const Kva base = layout_.PhysToDirectMapKva(PhysAddr::FromPfn(alloc.head));
      if (kva - base < alloc.size) {
        return ObjectInfo{base, alloc.size, kLargeCacheId, alloc.site};
      }
      return std::nullopt;
    }
  }
  return std::nullopt;
}

std::vector<ObjectInfo> SlabAllocator::ObjectsOnPage(Pfn pfn) const {
  std::lock_guard<MaybeMutex> guard(mu_);
  std::vector<ObjectInfo> out;
  if (const SlabPage* found = slab_pages_.Find(pfn.value); found != nullptr) {
    const SlabPage& page = *found;
    for (uint32_t slot = 0; slot < page.capacity; ++slot) {
      if (page.occupied[slot]) {
        out.push_back(
            ObjectInfo{SlotKva(page, slot), page.object_size, page.cache_id, page.sites[slot]});
      }
    }
    return out;
  }
  for (const auto& [head, alloc] : large_) {
    if (pfn.value >= head && pfn.value < head + (uint64_t{1} << alloc.order)) {
      const Kva base = layout_.PhysToDirectMapKva(PhysAddr::FromPfn(alloc.head));
      out.push_back(ObjectInfo{base, alloc.size, kLargeCacheId, alloc.site});
      return out;
    }
  }
  return out;
}

telemetry::Hub& SlabAllocator::telemetry() {
  if (hub_ == nullptr) {
    owned_hub_ = std::make_unique<telemetry::Hub>();
    hub_ = owned_hub_.get();
  }
  return *hub_;
}

void SlabAllocator::AddObserver(SlabObserver* observer) {
  observer_sinks_.push_back(std::make_unique<SlabObserverSink>(this, observer));
  telemetry().AddSink(observer_sinks_.back().get());
}

void SlabAllocator::RemoveObserver(SlabObserver* observer) {
  for (auto it = observer_sinks_.begin(); it != observer_sinks_.end();) {
    if ((*it)->observer() == observer) {
      telemetry().RemoveSink(it->get());
      it = observer_sinks_.erase(it);
    } else {
      ++it;
    }
  }
}

void SlabAllocator::Notify(bool alloc, Kva kva, uint64_t size, Site site) {
  telemetry::Hub& hub = telemetry();
  if (!hub.active()) {
    return;
  }
  telemetry::Event event;
  event.kind = alloc ? telemetry::EventKind::kSlabAlloc : telemetry::EventKind::kSlabFree;
  event.severity = telemetry::Severity::kTrace;
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
