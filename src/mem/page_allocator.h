// Buddy page allocator with a hot-page cache.
//
// Mirrors the two Linux behaviours the paper's attacks depend on:
//   * deterministic allocation order: the same boot sequence of requests
//     yields (mostly) the same PFNs, which is what makes RingFlood's
//     PFN-guessing viable (§5.3);
//   * hot-page reuse: freed order-0 pages are recycled LIFO from a per-CPU
//     style cache, so a page a device still holds a stale IOTLB entry for is
//     likely to be immediately handed to someone else (§5.2.1, point 2).

#ifndef SPV_MEM_PAGE_ALLOCATOR_H_
#define SPV_MEM_PAGE_ALLOCATOR_H_

#include <array>
#include <cstdint>
#include <mutex>
#include <set>
#include <vector>

#include "base/maybe_mutex.h"
#include "base/node_recycler.h"
#include "base/stat_counter.h"
#include "base/status.h"
#include "base/types.h"
#include "mem/page_db.h"

namespace spv::fault {
class FaultEngine;
}  // namespace spv::fault

namespace spv::mem {

class PageAllocator {
 public:
  static constexpr unsigned kMaxOrder = 10;  // up to 4 MiB contiguous
  static constexpr size_t kHotCacheCapacity = 64;

  // Manages PFNs [first_pfn, first_pfn + num_pages). Pages below first_pfn
  // are the reserved kernel image.
  PageAllocator(PageDb& page_db, Pfn first_pfn, uint64_t num_pages);

  PageAllocator(const PageAllocator&) = delete;
  PageAllocator& operator=(const PageAllocator&) = delete;

  // Allocates 2^order contiguous pages; returns the head PFN.
  Result<Pfn> AllocPages(unsigned order, PageOwner owner);
  Result<Pfn> AllocPage(PageOwner owner) { return AllocPages(0, owner); }

  // Frees an allocation previously returned by AllocPages (head PFN).
  Status FreePages(Pfn head);

  uint64_t free_pages() const { return free_pages_; }
  uint64_t total_pages() const { return num_pages_; }

  // Optional fault hook (kPageAlloc): nullptr detaches.
  void set_fault_engine(fault::FaultEngine* engine) { fault_ = engine; }

  // Engages the allocator lock for ExecMode::kThreads (one-way). Covers the
  // buddy lists, the hot cache and the PageDb metadata writes alloc/free
  // perform; sequential mode pays a branch.
  void EngageLock() { mu_.Engage(); }

  // Statistics for benchmarks.
  uint64_t hot_cache_hits() const { return hot_cache_hits_; }
  uint64_t alloc_count() const { return alloc_count_; }

 private:
  struct FreeBlock {
    uint64_t pfn;
    bool operator<(const FreeBlock& other) const { return pfn < other.pfn; }
  };

  bool InRange(uint64_t pfn, unsigned order) const {
    return pfn >= first_pfn_ && pfn + (uint64_t{1} << order) <= first_pfn_ + num_pages_;
  }

  Result<Pfn> AllocFromBuddy(unsigned order);
  void FreeToBuddy(uint64_t pfn, unsigned order);

  PageDb& page_db_;
  uint64_t first_pfn_;
  uint64_t num_pages_;
  StatCounter free_pages_;

  mutable MaybeMutex mu_;  // guards free_lists_ + hot_cache_ when engaged

  // Ordered free sets per order: deterministic lowest-address-first policy.
  std::array<std::set<FreeBlock>, kMaxOrder + 1> free_lists_;
  // Nodes of blocks taken off the lists, reused by the next split or merge:
  // page_frag region turnover costs no tree-node allocation once warm.
  NodeRecycler<std::set<FreeBlock>> free_nodes_;

  // LIFO cache of recently freed order-0 pages ("hot" pages): a fixed ring
  // that gives and takes at its newest end and spills its oldest entry, so
  // page churn never allocates (a std::deque allocated a block per 64).
  struct HotCache {
    std::array<uint64_t, kHotCacheCapacity + 1> pfns{};  // +1: push precedes spill
    size_t oldest = 0;
    size_t size = 0;

    bool empty() const { return size == 0; }
    void PushNewest(uint64_t pfn) { pfns[(oldest + size++) % pfns.size()] = pfn; }
    uint64_t PopNewest() { return pfns[(oldest + --size) % pfns.size()]; }
    uint64_t PopOldest() {
      const uint64_t pfn = pfns[oldest];
      oldest = (oldest + 1) % pfns.size();
      --size;
      return pfn;
    }
  };
  HotCache hot_cache_;

  StatCounter hot_cache_hits_;
  StatCounter alloc_count_;

  fault::FaultEngine* fault_ = nullptr;
};

}  // namespace spv::mem

#endif  // SPV_MEM_PAGE_ALLOCATOR_H_
