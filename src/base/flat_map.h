// Open-addressed hash map over one flat slot array.
//
// The one keyed index the per-op DMA path uses: the live-mapping tracker in
// DmaApi, the IOTLB's (domain, IOVA page) index, the IOVA allocator's live
// set and the page_frag record table. Find/insert/erase are O(1) — one
// multiplicative (Fibonacci) hash and a short linear probe over contiguous
// slots — instead of a pointer-chasing tree descent or a node allocation per
// insert.
//
// Erase uses backward-shift deletion, so there are no tombstones and the
// table never rehashes at a constant live-set size: once the slot array has
// grown to the working set's high-water mark, inserts and erases touch no
// heap. Growth doubles the array when live slots would pass 70% of it.
//
// Iteration (ForEach) visits slots in probe order, which depends on the
// insertion history; callers that need a deterministic order sort.

#ifndef SPV_BASE_FLAT_MAP_H_
#define SPV_BASE_FLAT_MAP_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace spv {

// Default key digest: integral keys digest to themselves. Struct keys supply
// their own functor returning a 64-bit digest (FlatMap mixes it).
template <typename Key>
struct FlatMapDigest {
  static_assert(std::is_integral_v<Key>, "supply a digest functor for non-integral keys");
  uint64_t operator()(Key key) const { return static_cast<uint64_t>(key); }
};

template <typename Key, typename Value, typename Digest = FlatMapDigest<Key>>
class FlatMap {
 public:
  // Sized so `expected` entries fit without growing.
  explicit FlatMap(size_t expected = 32) { Rebuild(CapacityFor(expected)); }

  size_t size() const { return size_; }
  size_t capacity() const { return slots_.size(); }

  // Inserts or overwrites.
  void InsertOrAssign(const Key& key, Value value) {
    Probe(key).first->value = std::move(value);
  }

  // Inserts `value` when `key` is absent; returns the stored value and
  // whether the insert happened (an existing value is left untouched).
  std::pair<Value*, bool> TryEmplace(const Key& key, Value value) {
    auto [slot, inserted] = Probe(key);
    if (inserted) {
      slot->value = std::move(value);
    }
    return {&slot->value, inserted};
  }

  Value* Find(const Key& key) {
    const size_t i = IndexOf(key);
    return i == kNotFound ? nullptr : &slots_[i].value;
  }
  const Value* Find(const Key& key) const {
    const size_t i = IndexOf(key);
    return i == kNotFound ? nullptr : &slots_[i].value;
  }
  bool Contains(const Key& key) const { return IndexOf(key) != kNotFound; }

  bool Erase(const Key& key) {
    size_t hole = IndexOf(key);
    if (hole == kNotFound) {
      return false;
    }
    // Backward shift: pull each later member of the probe run into the hole
    // unless its home lies cyclically in (hole, next] — it would then be
    // moved in front of its own home and become unreachable.
    for (size_t next = (hole + 1) & mask_; slots_[next].full; next = (next + 1) & mask_) {
      const size_t home = Home(slots_[next].key);
      const bool stays = hole <= next ? (hole < home && home <= next)
                                      : (hole < home || home <= next);
      if (stays) {
        continue;
      }
      slots_[hole].key = slots_[next].key;
      slots_[hole].value = std::move(slots_[next].value);
      hole = next;
    }
    slots_[hole].full = false;
    slots_[hole].value = Value{};
    --size_;
    return true;
  }

  // Empties the map, keeping its slot array.
  void Clear() {
    if (size_ == 0) {
      return;
    }
    for (Slot& slot : slots_) {
      if (slot.full) {
        slot.full = false;
        slot.value = Value{};
      }
    }
    size_ = 0;
  }

  // Visits every entry as fn(key, value) in slot order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.full) {
        fn(slot.key, slot.value);
      }
    }
  }

 private:
  static constexpr size_t kNotFound = ~size_t{0};

  struct Slot {
    Key key{};
    Value value{};
    bool full = false;
  };

  // The slot holding `key`, claimed (full, value default) when it was absent.
  std::pair<Slot*, bool> Probe(const Key& key) {
    if ((size_ + 1) * 10 > slots_.size() * 7) {
      Rebuild(slots_.size() * 2);
    }
    for (size_t i = Home(key);; i = (i + 1) & mask_) {
      Slot& slot = slots_[i];
      if (!slot.full) {
        slot.key = key;
        slot.full = true;
        ++size_;
        return {&slot, true};
      }
      if (slot.key == key) {
        return {&slot, false};
      }
    }
  }

  static size_t CapacityFor(size_t expected) {
    return std::bit_ceil(std::max<size_t>(16, expected * 10 / 7 + 1));
  }

  size_t Home(const Key& key) const {
    return static_cast<size_t>((Digest{}(key) * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  size_t IndexOf(const Key& key) const {
    for (size_t i = Home(key);; i = (i + 1) & mask_) {
      const Slot& slot = slots_[i];
      if (!slot.full) {
        return kNotFound;
      }
      if (slot.key == key) {
        return i;
      }
    }
  }

  void Rebuild(size_t capacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(capacity, Slot{});
    mask_ = capacity - 1;
    shift_ = 64 - std::countr_zero(capacity);
    size_ = 0;
    for (Slot& slot : old) {
      if (slot.full) {
        TryEmplace(slot.key, std::move(slot.value));
      }
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  int shift_ = 64;
  size_t size_ = 0;
};

}  // namespace spv

#endif  // SPV_BASE_FLAT_MAP_H_
