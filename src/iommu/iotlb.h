// IOTLB: translation cache keyed by (device, IOVA page).
//
// The IOMMU does not keep the IOTLB coherent with the page tables (§5.2.1);
// the OS must invalidate explicitly. A stale entry after a deferred unmap is
// the paper's Figure-6 time window. LRU replacement; bounded capacity.
//
// Storage is allocated once, at construction: a fixed array of `capacity`
// entry slots threaded on an intrusive doubly-linked LRU list (indices, not
// pointers) plus a free list, and a FlatMap from key to slot sized so it
// never grows. Lookup, Insert and every invalidation touch no heap; the
// replacement order is exactly that of a std::list LRU (hits and re-inserts
// move an entry to the front, the back is the victim).

#ifndef SPV_IOMMU_IOTLB_H_
#define SPV_IOMMU_IOTLB_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "base/flat_map.h"
#include "base/maybe_mutex.h"
#include "base/stat_counter.h"
#include "base/types.h"
#include "iommu/access_rights.h"
#include "iommu/io_page_table.h"
#include "telemetry/telemetry.h"

namespace spv::iommu {

class Iotlb {
 public:
  // Capacity 0 caches nothing: Lookup always misses and Insert is a no-op.
  explicit Iotlb(size_t capacity = 256);

  // Publishes hit/miss/insert/eviction/invalidation counters to `hub`
  // (pass nullptr to detach). Counter references are resolved once here so
  // the hot lookup path pays a pointer test plus an increment.
  void set_telemetry(telemetry::Hub* hub);

  // Engages the internal lock for ExecMode::kThreads. The IOTLB is one
  // shared structure across all queues/CPUs (as on real hardware); even
  // Lookup mutates (LRU touch), so every operation takes the lock once
  // engaged. Sequential mode never takes it (a branch).
  void EngageLock() { mu_.Engage(); }

  std::optional<PteEntry> Lookup(DeviceId device, Iova iova_page);
  void Insert(DeviceId device, Iova iova_page, PteEntry entry);

  // Targeted invalidation (strict mode, one per unmap).
  void InvalidatePage(DeviceId device, Iova iova_page);
  // Device-scope invalidation.
  void InvalidateDevice(DeviceId device);
  // Global invalidation (deferred mode periodic flush).
  void InvalidateAll();

  size_t size() const {
    std::lock_guard<MaybeMutex> guard(mu_);
    return index_.size();
  }

  // Visits every cached translation as (domain id, iova page base, entry),
  // most recently used first. For audits (Machine::CheckInvariants), not
  // the lookup path.
  template <typename Fn>
  void ForEachEntry(Fn&& fn) const {
    std::lock_guard<MaybeMutex> guard(mu_);
    for (uint32_t i = head_; i != kNil; i = entries_[i].next) {
      const Entry& e = entries_[i];
      fn(DeviceId{e.key.device}, Iova{e.key.iova_page}, e.pte);
    }
  }

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t invalidations() const { return invalidations_; }

 private:
  static constexpr uint32_t kNil = UINT32_MAX;

  struct Key {
    uint32_t device = 0;
    uint64_t iova_page = 0;
    bool operator==(const Key&) const = default;
  };
  struct KeyDigest {
    uint64_t operator()(const Key& k) const {
      return (k.iova_page >> kPageShift) ^ (uint64_t{k.device} << 40);
    }
  };
  // One cache slot; prev/next link it into the LRU list while live and next
  // links it into the free list otherwise.
  struct Entry {
    Key key;
    PteEntry pte;
    uint32_t prev = kNil;
    uint32_t next = kNil;
  };

  void Unlink(uint32_t slot);
  void PushFront(uint32_t slot);
  void Release(uint32_t slot);  // unlink, drop from the index, free the slot

  mutable MaybeMutex mu_;  // guards entries_/index_/list heads when engaged
  std::vector<Entry> entries_;      // fixed at construction
  FlatMap<Key, uint32_t, KeyDigest> index_;  // key -> slot in entries_
  uint32_t head_ = kNil;   // most recently used
  uint32_t tail_ = kNil;   // least recently used: the next victim
  uint32_t free_ = kNil;   // released slots
  uint32_t unused_ = 0;    // slots [unused_, capacity) were never handed out
  StatCounter hits_;
  StatCounter misses_;
  StatCounter invalidations_;

  telemetry::Hub* hub_ = nullptr;
  telemetry::Counter* c_hits_ = nullptr;
  telemetry::Counter* c_misses_ = nullptr;
  telemetry::Counter* c_inserts_ = nullptr;
  telemetry::Counter* c_evictions_ = nullptr;
  telemetry::Counter* c_invalidations_ = nullptr;
};

}  // namespace spv::iommu

#endif  // SPV_IOMMU_IOTLB_H_
