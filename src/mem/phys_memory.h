// Simulated physical memory.
//
// A flat, byte-addressable array of 4 KiB pages. Every byte a device can
// corrupt and every byte the simulated kernel parses lives here; host-side
// C++ objects (drivers, rings, the sk_buff metadata that Linux also keeps
// off the DMA page) merely *reference* ranges of this memory.
//
// The store is one private anonymous host mapping. The host kernel supplies
// each page zeroed on its first touch, so constructing a machine's memory
// costs nothing up front and resident set size counts touched pages only.
// Addressing stays flat: page views, cross-page accesses and bounds checks
// are plain pointer arithmetic over the mapping.

#ifndef SPV_MEM_PHYS_MEMORY_H_
#define SPV_MEM_PHYS_MEMORY_H_

#include <cstdint>
#include <cstring>
#include <span>

#include "base/status.h"
#include "base/types.h"

namespace spv::mem {

class PhysicalMemory {
 public:
  explicit PhysicalMemory(uint64_t num_pages);
  ~PhysicalMemory();

  // Move-only: the mapping has exactly one owner.
  PhysicalMemory(PhysicalMemory&& other) noexcept;
  PhysicalMemory& operator=(PhysicalMemory&& other) noexcept;
  PhysicalMemory(const PhysicalMemory&) = delete;
  PhysicalMemory& operator=(const PhysicalMemory&) = delete;

  uint64_t num_pages() const { return num_pages_; }
  uint64_t size_bytes() const { return num_pages_ << kPageShift; }

  bool Contains(PhysAddr addr, uint64_t len = 1) const {
    return addr.value + len <= size_bytes() && addr.value + len >= addr.value;
  }

  // Bulk accessors. Out-of-range accesses return an error (a real bus would
  // master-abort); they never touch host memory out of bounds.
  Status Read(PhysAddr addr, std::span<uint8_t> out) const;
  Status Write(PhysAddr addr, std::span<const uint8_t> data);

  // Little-endian scalar accessors, the common case for struct fields.
  Result<uint64_t> ReadU64(PhysAddr addr) const;
  Result<uint32_t> ReadU32(PhysAddr addr) const;
  Result<uint16_t> ReadU16(PhysAddr addr) const;
  Result<uint8_t> ReadU8(PhysAddr addr) const;
  Status WriteU64(PhysAddr addr, uint64_t value);
  Status WriteU32(PhysAddr addr, uint32_t value);
  Status WriteU16(PhysAddr addr, uint16_t value);
  Status WriteU8(PhysAddr addr, uint8_t value);

  Status Fill(PhysAddr addr, uint64_t len, uint8_t byte);

  // Copies `len` bytes from `src` to `dst` inside the store, with memmove
  // semantics for overlapping ranges. Either range out of bounds is an error
  // and changes no byte.
  Status Copy(PhysAddr dst, PhysAddr src, uint64_t len);

  // Direct page views for fast in-simulator parsing. Bounds are asserted.
  std::span<uint8_t> PageSpan(Pfn pfn);
  std::span<const uint8_t> PageSpan(Pfn pfn) const;
  // A view of [addr, addr+len), which may cross pages, for a backing store
  // that DMA moves bytes in and out of in place. Bounds are asserted; the
  // caller validates them first.
  std::span<uint8_t> Span(PhysAddr addr, uint64_t len);

 private:
  uint64_t num_pages_;
  uint8_t* bytes_ = nullptr;  // the mapping; null when num_pages_ is 0
};

}  // namespace spv::mem

#endif  // SPV_MEM_PHYS_MEMORY_H_
