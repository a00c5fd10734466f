#include "mem/page_allocator.h"

#include <cassert>
#include <mutex>

#include "fault/fault.h"

namespace spv::mem {

PageAllocator::PageAllocator(PageDb& page_db, Pfn first_pfn, uint64_t num_pages)
    : page_db_(page_db), first_pfn_(first_pfn.value), num_pages_(num_pages) {
  assert(first_pfn_ + num_pages_ <= page_db.num_pages());
  // Seed the buddy free lists greedily with the largest aligned blocks.
  uint64_t pfn = first_pfn_;
  uint64_t remaining = num_pages_;
  while (remaining > 0) {
    unsigned order = kMaxOrder;
    while (order > 0 &&
           (((pfn - first_pfn_) & ((uint64_t{1} << order) - 1)) != 0 ||
            (uint64_t{1} << order) > remaining)) {
      --order;
    }
    free_lists_[order].insert(FreeBlock{pfn});
    pfn += uint64_t{1} << order;
    remaining -= uint64_t{1} << order;
  }
  free_pages_ = num_pages_;
}

Result<Pfn> PageAllocator::AllocPages(unsigned order, PageOwner owner) {
  if (order > kMaxOrder) {
    return InvalidArgument("order exceeds kMaxOrder");
  }
  if (fault_ != nullptr && fault_->armed() &&
      fault_->ShouldInject(fault::FaultSite::kPageAlloc)) {
    return ResourceExhausted("injected: out of physical pages");
  }
  ++alloc_count_;

  std::lock_guard<MaybeMutex> guard(mu_);
  uint64_t head_pfn;
  if (order == 0 && !hot_cache_.empty()) {
    head_pfn = hot_cache_.PopNewest();  // LIFO: most recently freed first
    ++hot_cache_hits_;
  } else {
    Result<Pfn> head = AllocFromBuddy(order);
    if (!head.ok()) {
      return head.status();
    }
    head_pfn = head->value;
  }

  const uint64_t count = uint64_t{1} << order;
  for (uint64_t i = 0; i < count; ++i) {
    PageMeta& meta = page_db_.Get(Pfn{head_pfn + i});
    meta.owner = owner;
    meta.order = static_cast<uint8_t>(order);
    meta.is_head = (i == 0);
    meta.refcount = (i == 0) ? 1 : 0;
    meta.cache_id = 0;
  }
  free_pages_ -= count;
  return Pfn{head_pfn};
}

Status PageAllocator::FreePages(Pfn head) {
  if (head.value < first_pfn_ || head.value >= first_pfn_ + num_pages_) {
    return InvalidArgument("FreePages outside the managed range");
  }
  std::lock_guard<MaybeMutex> guard(mu_);
  PageMeta& meta = page_db_.Get(head);
  if (meta.owner == PageOwner::kFree || !meta.is_head) {
    return FailedPrecondition("FreePages on a non-head or already-free page");
  }
  const unsigned order = meta.order;
  const uint64_t count = uint64_t{1} << order;
  for (uint64_t i = 0; i < count; ++i) {
    PageMeta& m = page_db_.Get(Pfn{head.value + i});
    m.owner = PageOwner::kFree;
    m.is_head = false;
    m.refcount = 0;
    m.cache_id = 0;
  }
  free_pages_ += count;

  if (order == 0) {
    hot_cache_.PushNewest(head.value);
    if (hot_cache_.size > kHotCacheCapacity) {
      // Spill the coldest entry back to the buddy system.
      const uint64_t cold = hot_cache_.PopOldest();
      FreeToBuddy(cold, 0);
    }
    return OkStatus();
  }
  FreeToBuddy(head.value, order);
  return OkStatus();
}

Result<Pfn> PageAllocator::AllocFromBuddy(unsigned order) {
  unsigned available = order;
  while (available <= kMaxOrder && free_lists_[available].empty()) {
    ++available;
  }
  if (available > kMaxOrder) {
    // Last resort for order-0: drain the hot cache back into the buddy pool.
    if (order == 0 && !hot_cache_.empty()) {
      const uint64_t pfn = hot_cache_.PopNewest();
      return Pfn{pfn};
    }
    return ResourceExhausted("out of physical pages");
  }
  // Take the lowest block at `available`, split down to `order`.
  uint64_t pfn = free_lists_[available].begin()->pfn;
  free_nodes_.Erase(free_lists_[available], free_lists_[available].begin());
  while (available > order) {
    --available;
    const uint64_t buddy = pfn + (uint64_t{1} << available);
    free_nodes_.Insert(free_lists_[available], FreeBlock{buddy});
  }
  return Pfn{pfn};
}

void PageAllocator::FreeToBuddy(uint64_t pfn, unsigned order) {
  // Coalesce with the buddy while possible.
  while (order < kMaxOrder) {
    const uint64_t rel = pfn - first_pfn_;
    const uint64_t buddy_rel = rel ^ (uint64_t{1} << order);
    const uint64_t buddy = first_pfn_ + buddy_rel;
    if (!InRange(buddy, order)) {
      break;
    }
    auto it = free_lists_[order].find(FreeBlock{buddy});
    if (it == free_lists_[order].end()) {
      break;
    }
    free_nodes_.Erase(free_lists_[order], it);
    pfn = std::min(pfn, buddy);
    ++order;
  }
  free_nodes_.Insert(free_lists_[order], FreeBlock{pfn});
}

}  // namespace spv::mem
