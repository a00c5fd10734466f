// D-KASAN: the DMA Kernel Address SANitizer (§4.2).
//
// KASAN extended to track DMA-map operations alongside allocations. Shadow
// state records, per physical page, whether it is currently DMA-mapped (and
// with what access), and per byte-range, which allocation owns it. Observers
// on the slab allocators and the DMA API feed the events; CPU accesses come
// from the KernelMemory instrumentation hook. Four report classes:
//
//   1. alloc-after-map : an object is allocated from a page that is already
//                        DMA-mapped (random exposure, type (d));
//   2. map-after-alloc : a page holding a live unrelated object gets mapped;
//   3. access-after-map: the CPU touches a DMA-mapped page (CPU/device
//                        sharing — the racing ground of §5.2);
//   4. multiple-map    : a page mapped more than once, possibly with
//                        different permissions (type (c)).

#ifndef SPV_DKASAN_DKASAN_H_
#define SPV_DKASAN_DKASAN_H_

#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "base/flat_map.h"
#include "base/node_recycler.h"
#include "base/types.h"
#include "dma/dma_api.h"
#include "dma/observer.h"
#include "iommu/access_rights.h"
#include "mem/kernel_layout.h"
#include "slab/observer.h"
#include "slab/page_frag.h"
#include "slab/slab_allocator.h"

namespace spv::dkasan {

enum class ReportKind : uint8_t {
  kAllocAfterMap,
  kMapAfterAlloc,
  kAccessAfterMap,
  kMultipleMap,
};

std::string_view ReportKindName(ReportKind kind);

struct Report {
  ReportKind kind;
  Kva kva;                      // address of the triggering object/access
  uint64_t size = 0;            // allocation/access size
  iommu::AccessRights rights =  // rights of the involved mapping(s)
      iommu::AccessRights::kNone;
  std::string site;             // allocating/mapping location
  std::string detail;

  // Figure-3 style line:
  //   "[k] size 512 [READ, WRITE] __alloc_skb+0xe0/0x3f0"
  std::string ToLine(int index) const;
};

class DKasan : public slab::SlabObserver, public dma::DmaObserver {
 public:
  explicit DKasan(const mem::KernelLayout& layout) : layout_(layout) {}

  // Publishes every report as a kDkasanReport event (critical severity) on
  // top of the local report list. Pass nullptr to detach.
  void set_telemetry(telemetry::Hub* hub) { hub_ = hub; }

  // Attach to the event sources. (Call once each; detach by destroying the
  // sources first or removing observers.)
  void Attach(slab::SlabAllocator& slab) { slab.AddObserver(this); }
  void Attach(slab::PageFragPool& pool) { pool.AddObserver(this); }
  void Attach(dma::DmaApi& dma) { dma.AddObserver(this); }

  // ---- slab::SlabObserver -----------------------------------------------------

  void OnAlloc(Kva kva, uint64_t size, std::string_view site) override;
  void OnFree(Kva kva, uint64_t size) override;

  // ---- dma::DmaObserver --------------------------------------------------------

  void OnMap(DeviceId device, Kva kva, uint64_t len, Iova iova, iommu::AccessRights rights,
             std::string_view site) override;
  void OnUnmap(DeviceId device, Kva kva, uint64_t len) override;
  void OnCpuAccess(Kva kva, uint64_t len, bool is_write) override;

  // ---- Results ------------------------------------------------------------------

  const std::vector<Report>& reports() const { return reports_; }
  std::vector<Report> ReportsOfKind(ReportKind kind) const;
  uint64_t count(ReportKind kind) const;

  // Full report text (Figure 3 shape).
  std::string FormatReport(size_t max_lines = 32) const;

  void ClearReports() { reports_.clear(); }

  // Deduplicate by (kind, site): repeated identical findings are noise.
  void set_dedup(bool dedup) { dedup_ = dedup; }

 private:
  // Sites below are views: allocation and DMA-map events carry Site names
  // that live for the whole process, so the shadow state copies no text.
  struct PageShadow {
    // Live mappings covering this page: device -> rights (merged).
    uint32_t map_count = 0;
    uint8_t merged_rights = 0;
    std::string_view first_map_site;
  };
  struct LiveObject {
    uint64_t size;
    std::string_view site;
  };
  using LiveObjects = std::map<uint64_t, LiveObject>;  // kva -> object
  // What makes two findings the same: the kind, the report's site and, for
  // access-after-map, read vs write. Checked before any report text is
  // built, so a repeated finding costs a lookup and nothing else.
  using DedupKey = std::tuple<ReportKind, bool, std::string_view>;

  // True when the finding is new (or dedup is off); remembers it.
  bool FirstSighting(ReportKind kind, bool is_write, std::string_view site);
  void AddReport(Report report);
  PageShadow* FindShadow(Kva kva);
  PageShadow* ShadowFor(Kva kva);  // creates the page's entry

  const mem::KernelLayout& layout_;
  FlatMap<uint64_t, PageShadow> shadow_;  // pfn -> state
  LiveObjects live_objects_;
  NodeRecycler<LiveObjects> live_nodes_;  // alloc/free churn reuses nodes
  std::vector<Report> reports_;
  std::set<DedupKey> seen_;
  bool dedup_ = true;
  telemetry::Hub* hub_ = nullptr;
  telemetry::CachedCounter c_reports_{"dkasan.reports"};
  std::array<telemetry::CachedCounter, 4> c_reports_by_kind_{
      telemetry::CachedCounter{"dkasan.reports.alloc-after-map"},
      telemetry::CachedCounter{"dkasan.reports.map-after-alloc"},
      telemetry::CachedCounter{"dkasan.reports.access-after-map"},
      telemetry::CachedCounter{"dkasan.reports.multiple-map"}};
};

}  // namespace spv::dkasan

#endif  // SPV_DKASAN_DKASAN_H_
