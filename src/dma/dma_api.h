// The Linux DMA API (§2.3, §9.1), faithfully including its footguns.
//
// * MapSingle(kva, len) maps every page the buffer touches. The API
//   "insinuates that only the mapped bytes are exposed, when, in fact, the
//   whole page is accessible" — the insinuation is the signature; the
//   exposure is what this layer actually does.
// * UnmapSingle "insinuates that the buffer is not accessible to the device
//   after the call" — false in the configuration that actually ships.
//   Under the default deferred-invalidation policy the PTE is cleared but
//   the invalidation is only *queued*: the IOTLB keeps translating until the
//   flush queue drains (at capacity, after the 10 ms deadline, or manually),
//   so a device with a warm IOTLB entry retains access for the whole window
//   (Fig 6). The IOVA is parked until that drain, then recycled through the
//   per-CPU rcache. Only strict mode revokes access before returning. It is
//   also false under type (c) aliasing, in any mode.
//
// Ownership semantics: a mapped buffer belongs to the device until unmapped.
// The tracker (one flat (device, iova page) index) records every live mapping
// so D-KASAN and the ground-truth analyses can ask "which mappings cover this
// page?".

#ifndef SPV_DMA_DMA_API_H_
#define SPV_DMA_DMA_API_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "base/flat_map.h"
#include "base/maybe_mutex.h"
#include "base/site.h"
#include "base/status.h"
#include "base/types.h"
#include "dma/observer.h"
#include "iommu/iommu.h"
#include "mem/kernel_layout.h"
#include "telemetry/telemetry.h"
#include "trace/tracer.h"

namespace spv::forensics {
class FlightRecorder;  // forensics/flight_recorder.h
}

namespace spv::dma {

class DmaRouter;   // dma/bounce_pool.h
class BouncePool;  // dma/bounce_pool.h

// Matches enum dma_data_direction.
enum class DmaDirection : uint8_t {
  kToDevice,       // TX: device reads -> IOMMU READ
  kFromDevice,     // RX: device writes -> IOMMU WRITE
  kBidirectional,  // e.g. XDP -> IOMMU READ|WRITE
};

iommu::AccessRights RightsFor(DmaDirection dir);
std::string DmaDirectionName(DmaDirection dir);

// How a device's DMA is serviced, per the trust policy's verdict. The mode is
// advisory routing for queue-protocol drivers: MapSingle's per-map bounce
// diversion is unchanged, but drivers that keep *persistent* ring mappings
// ask `DmaApi::service_mode()` and switch protocol accordingly.
enum class ServiceMode : uint8_t {
  kZeroCopy,    // direct mappings, device sees kernel pages (trusted)
  kBounceSync,  // persistent bounce slots + explicit sync_for_cpu/device
};

std::string_view ServiceModeName(ServiceMode mode);

struct DmaMapping {
  DeviceId device;
  Iova iova;       // of the buffer start (page base + sub-page offset)
  Kva kva;         // buffer start
  uint64_t len;    // requested length, NOT the exposed length
  DmaDirection dir;
  Site site;

  uint64_t pages() const { return ((kva.page_offset() + len + kPageSize - 1) >> kPageShift); }
  uint64_t exposed_bytes() const { return pages() << kPageShift; }
};

struct SgEntry {
  Kva kva;
  uint64_t len;
};

class DmaApi {
 public:
  // When `hub` is null the DmaApi lazily owns a private (disabled) Hub so
  // observer dispatch always flows through one bus; core::Machine passes its
  // machine-wide Hub here instead.
  DmaApi(iommu::Iommu& iommu, const mem::KernelLayout& layout,
         telemetry::Hub* hub = nullptr);

  DmaApi(const DmaApi&) = delete;
  DmaApi& operator=(const DmaApi&) = delete;

  // dma_map_single: maps [kva, kva+len) for `device`; returns the IOVA
  // corresponding to `kva` (same sub-page offset). Devices the router flags
  // get a bounce slot instead (§8 [47], see set_policy).
  Result<Iova> MapSingle(DeviceId device, Kva kva, uint64_t len, DmaDirection dir,
                         Site site = "dma_map_single");

  // dma_unmap_single: releases the mapping created for this IOVA.
  Status UnmapSingle(DeviceId device, Iova iova, uint64_t len, DmaDirection dir);

  // Persistent-mapping variant for ring/slot buffers that live across many
  // I/Os (SQ/CQ rings, RX slots). For trusted devices this is MapSingle with
  // a different name — byte-identical zero-copy path. For bounce-routed
  // devices it carves a *persistent* pool run the driver then hands back and
  // forth with SyncSingleForCpu/SyncSingleForDevice (swiotlb-style), instead
  // of the transient map/copy/unmap cycle. Released with UnmapSingle.
  Result<Iova> MapPersistent(DeviceId device, Kva kva, uint64_t len, DmaDirection dir,
                             Site site = "dma_map_persistent");

  // kBounceSync when the installed router bounces `device`, else kZeroCopy
  // (also when no policy is installed). Queue-protocol drivers poll this to
  // pick their ring protocol and to notice live demotions/promotions.
  ServiceMode service_mode(DeviceId device) const;

  // dma_sync_single_for_cpu / _for_device: ownership handoff without
  // unmapping. Drivers with persistent RX mappings (real i40e page reuse)
  // call these instead of unmap — which means the device NEVER loses access
  // to the page, in any IOMMU mode. Functionally a no-op in our coherent
  // simulation, but it validates the mapping and feeds the sanitizer.
  Status SyncSingleForCpu(DeviceId device, Iova iova, uint64_t len, DmaDirection dir);
  Status SyncSingleForDevice(DeviceId device, Iova iova, uint64_t len, DmaDirection dir);

  // Quarantine support (spv::recovery): unmaps every live mapping tracked for
  // `device` — IOMMU first (PTEs cleared, invalidations issued per the active
  // mode), then the tracker entry, with a kDmaUnmap event per mapping tagged
  // `site`. Returns the number of mappings revoked. Safe on a fenced device
  // (OS-side unmaps are exempt from the fence).
  Result<uint64_t> RevokeDeviceMappings(DeviceId device,
                                        Site site = "dma_revoke_device");

  // dma_map_sg / dma_unmap_sg: each entry mapped independently (we model the
  // common non-IOVA-merging path).
  Result<std::vector<Iova>> MapSg(DeviceId device, std::span<const SgEntry> entries,
                                  DmaDirection dir, Site site = "dma_map_sg");
  Status UnmapSg(DeviceId device, std::span<const Iova> iovas,
                 std::span<const SgEntry> entries, DmaDirection dir);

  // ---- Introspection ---------------------------------------------------------

  // Live mappings (by any device) that cover physical page `pfn`.
  std::vector<DmaMapping> MappingsForPfn(Pfn pfn) const;
  std::optional<DmaMapping> FindMapping(DeviceId device, Iova iova) const;
  // Visits every live mapping in ascending (device, iova) order. For audits
  // (Machine::CheckInvariants).
  void ForEachMapping(const std::function<void(const DmaMapping&)>& fn) const;
  uint64_t live_mappings() const {
    std::lock_guard<MaybeMutex> guard(mu_);
    return index_.size();
  }

  // Engages the tracker lock for ExecMode::kThreads (one-way, pre-
  // concurrency). Only the mapping tracker needs it — the IOMMU beneath has
  // its own engaged locks, and observer sinks dispatch on the Hub drainer.
  void EngageLock() { mu_.Engage(); }

  // The CPU the simulated kernel runs map/unmap calls on; forwarded to the
  // IOMMU so IOVA magazine traffic lands in that CPU's caches.
  void set_current_cpu(CpuId cpu) { iommu_.set_current_cpu(cpu); }
  CpuId current_cpu() const { return iommu_.current_cpu(); }

  // Trust-policy routing (spv::policy): with both installed, MapSingle asks
  // `router` per map and diverts flagged devices' transfers through `pool`
  // instead of handing out direct mappings; unmap/sync recognise pool IOVAs
  // first, so in-flight bounces survive a mid-stream trust change. Either
  // nullptr disables routing entirely — one branch on the hot path, no
  // simulated-cycle cost for trusted devices.
  void set_policy(DmaRouter* router, BouncePool* pool) {
    router_ = router;
    bounce_pool_ = pool;
  }
  BouncePool* bounce_pool() { return bounce_pool_; }

  // Observers are bridged onto the telemetry bus (one DmaObserverSink each);
  // the interface is unchanged for callers.
  void AddObserver(DmaObserver* observer);
  void RemoveObserver(DmaObserver* observer);

  // Fired by KernelMemory on every CPU access (KASAN-instrumentation model).
  void NotifyCpuAccess(Kva kva, uint64_t len, bool is_write);

  // The bus every dma event is published to.
  telemetry::Hub& telemetry();

  // Optional causal span tracer (map/unmap lifecycle spans): nullptr
  // detaches; a null or disabled tracer costs one branch per operation.
  void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }
  trace::Tracer* tracer() { return tracer_; }

  // DMA flight recorder (spv::forensics): records every mapping lifecycle
  // edge (map/unmap, direct and bounced) for incident reconstruction. Pure
  // observer — never advances the sim clock; nullptr detaches.
  void set_flight_recorder(forensics::FlightRecorder* recorder) { recorder_ = recorder; }

  const mem::KernelLayout& layout() const { return layout_; }
  iommu::Iommu& iommu() { return iommu_; }

 private:
  struct IovaKey {
    uint32_t device;
    uint64_t iova_page;
    bool operator==(const IovaKey&) const = default;
  };
  struct IovaKeyDigest {
    uint64_t operator()(const IovaKey& k) const {
      return k.iova_page ^ (uint64_t{k.device} << 40);
    }
  };

  void Notify(const DmaMapping& mapping, bool map);

  // The mapping tracker behind MapSingle/UnmapSingle/FindMapping.
  void TrackMapping(const IovaKey& key, const DmaMapping& mapping);
  void ForgetMapping(const IovaKey& key);

  iommu::Iommu& iommu_;
  const mem::KernelLayout& layout_;
  // Guards the mapping tracker (index_) when engaged; map/unmap hold it only
  // around tracker ops, never across IOMMU calls.
  mutable MaybeMutex mu_;
  FlatMap<IovaKey, DmaMapping, IovaKeyDigest> index_{64};
  telemetry::Hub* hub_;
  std::unique_ptr<telemetry::Hub> owned_hub_;  // fallback when none injected
  trace::Tracer* tracer_ = nullptr;
  forensics::FlightRecorder* recorder_ = nullptr;
  DmaRouter* router_ = nullptr;       // trust policy's per-map verdict
  BouncePool* bounce_pool_ = nullptr; // where untrusted transfers divert
  std::vector<std::unique_ptr<DmaObserverSink>> observer_sinks_;
  // Per-op hub metrics (telemetry::CachedMetric: resolved on first bump).
  telemetry::CachedCounter c_maps_{"dma.maps"};
  telemetry::CachedCounter c_unmaps_{"dma.unmaps"};
  telemetry::CachedCounter c_syncs_{"dma.syncs"};
  telemetry::CachedCounter c_cpu_accesses_{"dma.cpu_accesses"};
  telemetry::CachedHistogram h_map_bytes_{"dma.map_bytes"};
  telemetry::CachedHistogram h_exposed_bytes_{"dma.exposed_bytes"};
};

}  // namespace spv::dma

#endif  // SPV_DMA_DMA_API_H_
