#include "iommu/iotlb.h"

#include <mutex>

namespace spv::iommu {

Iotlb::Iotlb(size_t capacity) : entries_(capacity), index_(capacity) {}

void Iotlb::set_telemetry(telemetry::Hub* hub) {
  hub_ = hub;
  if (hub_ == nullptr) {
    c_hits_ = c_misses_ = c_inserts_ = c_evictions_ = c_invalidations_ = nullptr;
    return;
  }
  c_hits_ = &hub_->counter("iotlb.hits");
  c_misses_ = &hub_->counter("iotlb.misses");
  c_inserts_ = &hub_->counter("iotlb.inserts");
  c_evictions_ = &hub_->counter("iotlb.evictions");
  c_invalidations_ = &hub_->counter("iotlb.invalidations");
}

std::optional<PteEntry> Iotlb::Lookup(DeviceId device, Iova iova_page) {
  std::lock_guard<MaybeMutex> guard(mu_);
  const uint32_t* slot = index_.Find(Key{device.value, iova_page.PageBase().value});
  if (slot == nullptr) {
    ++misses_;
    if (hub_ != nullptr && hub_->enabled()) {
      c_misses_->Add();
    }
    return std::nullopt;
  }
  ++hits_;
  if (hub_ != nullptr && hub_->enabled()) {
    c_hits_->Add();
  }
  Unlink(*slot);
  PushFront(*slot);
  return entries_[*slot].pte;
}

void Iotlb::Insert(DeviceId device, Iova iova_page, PteEntry entry) {
  std::lock_guard<MaybeMutex> guard(mu_);
  if (entries_.empty()) {
    return;
  }
  const Key key{device.value, iova_page.PageBase().value};
  if (uint32_t* slot = index_.Find(key); slot != nullptr) {
    entries_[*slot].pte = entry;
    Unlink(*slot);
    PushFront(*slot);
    return;
  }
  if (free_ == kNil && unused_ == entries_.size()) {
    Release(tail_);
    if (hub_ != nullptr && hub_->enabled()) {
      c_evictions_->Add();
    }
  }
  uint32_t slot = free_;
  if (slot != kNil) {
    free_ = entries_[slot].next;
  } else {
    slot = unused_++;
  }
  entries_[slot].key = key;
  entries_[slot].pte = entry;
  PushFront(slot);
  index_.InsertOrAssign(key, slot);
  if (hub_ != nullptr && hub_->enabled()) {
    c_inserts_->Add();
  }
}

void Iotlb::InvalidatePage(DeviceId device, Iova iova_page) {
  std::lock_guard<MaybeMutex> guard(mu_);
  if (const uint32_t* slot = index_.Find(Key{device.value, iova_page.PageBase().value});
      slot != nullptr) {
    Release(*slot);
  }
  ++invalidations_;
  if (hub_ != nullptr && hub_->enabled()) {
    c_invalidations_->Add();
  }
}

void Iotlb::InvalidateDevice(DeviceId device) {
  std::lock_guard<MaybeMutex> guard(mu_);
  for (uint32_t slot = head_; slot != kNil;) {
    const uint32_t next = entries_[slot].next;
    if (entries_[slot].key.device == device.value) {
      Release(slot);
    }
    slot = next;
  }
  ++invalidations_;
  if (hub_ != nullptr && hub_->enabled()) {
    c_invalidations_->Add();
  }
}

void Iotlb::InvalidateAll() {
  std::lock_guard<MaybeMutex> guard(mu_);
  index_.Clear();
  head_ = tail_ = free_ = kNil;
  unused_ = 0;
  ++invalidations_;
  if (hub_ != nullptr && hub_->enabled()) {
    c_invalidations_->Add();
  }
}

void Iotlb::Unlink(uint32_t slot) {
  Entry& e = entries_[slot];
  (e.prev == kNil ? head_ : entries_[e.prev].next) = e.next;
  (e.next == kNil ? tail_ : entries_[e.next].prev) = e.prev;
}

void Iotlb::PushFront(uint32_t slot) {
  Entry& e = entries_[slot];
  e.prev = kNil;
  e.next = head_;
  (head_ == kNil ? tail_ : entries_[head_].prev) = slot;
  head_ = slot;
}

void Iotlb::Release(uint32_t slot) {
  Unlink(slot);
  index_.Erase(entries_[slot].key);
  entries_[slot].next = free_;
  free_ = slot;
}

}  // namespace spv::iommu
