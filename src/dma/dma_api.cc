#include "dma/dma_api.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <mutex>
#include <tuple>

#include "dma/bounce_pool.h"
#include "forensics/flight_recorder.h"

namespace spv::dma {
namespace {

bool ByDeviceIova(const DmaMapping& a, const DmaMapping& b) {
  return std::tie(a.device.value, a.iova.value) < std::tie(b.device.value, b.iova.value);
}

}  // namespace

iommu::AccessRights RightsFor(DmaDirection dir) {
  switch (dir) {
    case DmaDirection::kToDevice:
      return iommu::AccessRights::kRead;
    case DmaDirection::kFromDevice:
      return iommu::AccessRights::kWrite;
    case DmaDirection::kBidirectional:
      return iommu::AccessRights::kBidirectional;
  }
  return iommu::AccessRights::kNone;
}

std::string DmaDirectionName(DmaDirection dir) {
  switch (dir) {
    case DmaDirection::kToDevice:
      return "DMA_TO_DEVICE";
    case DmaDirection::kFromDevice:
      return "DMA_FROM_DEVICE";
    case DmaDirection::kBidirectional:
      return "DMA_BIDIRECTIONAL";
  }
  return "?";
}

std::string_view ServiceModeName(ServiceMode mode) {
  switch (mode) {
    case ServiceMode::kZeroCopy:
      return "zero_copy";
    case ServiceMode::kBounceSync:
      return "bounce_sync";
  }
  return "?";
}

DmaApi::DmaApi(iommu::Iommu& iommu, const mem::KernelLayout& layout, telemetry::Hub* hub)
    : iommu_(iommu), layout_(layout), hub_(hub) {}

void DmaApi::TrackMapping(const IovaKey& key, const DmaMapping& mapping) {
  std::lock_guard<MaybeMutex> guard(mu_);
  index_.InsertOrAssign(key, mapping);
}

void DmaApi::ForgetMapping(const IovaKey& key) {
  std::lock_guard<MaybeMutex> guard(mu_);
  index_.Erase(key);
}

telemetry::Hub& DmaApi::telemetry() {
  if (hub_ == nullptr) {
    owned_hub_ = std::make_unique<telemetry::Hub>();
    hub_ = owned_hub_.get();
  }
  return *hub_;
}

Result<Iova> DmaApi::MapSingle(DeviceId device, Kva kva, uint64_t len, DmaDirection dir,
                               Site site) {
  trace::ScopedSpan span(tracer_, "dma.map_single");
  if (len == 0) {
    return InvalidArgument("dma_map_single with zero length");
  }
  // Trust gate: an untrusted device gets no direct mapping at all — its
  // transfer goes through dedicated bounce pages (whole-page exposure and
  // deferred-invalidation windows never arise on that path).
  if (router_ != nullptr && bounce_pool_ != nullptr && router_->ShouldBounce(device)) {
    Result<Iova> bounced = bounce_pool_->Map(device, kva, len, dir, site);
    if (recorder_ != nullptr && bounced.ok()) {
      recorder_->RecordMap(device, *bounced, kva, len, static_cast<uint8_t>(dir),
                           /*bounced=*/true, site);
    }
    return bounced;
  }
  Result<PhysAddr> phys = layout_.DirectMapKvaToPhys(kva);
  if (!phys.ok()) {
    return InvalidArgument("dma_map_single of non-direct-map KVA");
  }
  // The mapping covers *every page the buffer touches*, not just the bytes.
  // Buffers of up to kInlinePages pages list their PFNs on the stack.
  constexpr uint64_t kInlinePages = 16;
  const uint64_t pages = (kva.page_offset() + len + kPageSize - 1) >> kPageShift;
  std::array<Pfn, kInlinePages> inline_pfns;
  std::vector<Pfn> heap_pfns;
  std::span<Pfn> pfns;
  if (pages <= kInlinePages) {
    pfns = std::span<Pfn>(inline_pfns).first(pages);
  } else {
    heap_pfns.resize(pages);
    pfns = heap_pfns;
  }
  for (uint64_t i = 0; i < pages; ++i) {
    pfns[i] = Pfn{phys->pfn().value + i};
  }
  Result<Iova> base = iommu_.MapRange(device, pfns, RightsFor(dir));
  if (!base.ok()) {
    return base.status();
  }
  const Iova iova = *base + kva.page_offset();
  DmaMapping mapping{device, iova, kva, len, dir, site};
  TrackMapping(IovaKey{device.value, base->value >> kPageShift}, mapping);
  if (recorder_ != nullptr) {
    recorder_->RecordMap(device, iova, kva, len, static_cast<uint8_t>(dir),
                         /*bounced=*/false, site);
  }
  Notify(mapping, /*map=*/true);
  return iova;
}

Result<Iova> DmaApi::MapPersistent(DeviceId device, Kva kva, uint64_t len,
                                   DmaDirection dir, Site site) {
  // Bounce-routed devices get a *persistent* pool run: the driver keeps the
  // slot across many I/Os and moves bytes with the syncs, swiotlb-style.
  if (router_ != nullptr && bounce_pool_ != nullptr && router_->ShouldBounce(device)) {
    trace::ScopedSpan span(tracer_, "dma.map_persistent");
    if (len == 0) {
      return InvalidArgument("dma_map_persistent with zero length");
    }
    Result<Iova> bounced = bounce_pool_->MapPersistent(device, kva, len, dir, site);
    if (recorder_ != nullptr && bounced.ok()) {
      recorder_->RecordMap(device, *bounced, kva, len, static_cast<uint8_t>(dir),
                           /*bounced=*/true, site);
    }
    return bounced;
  }
  // Trusted devices: exactly the zero-copy MapSingle path (same site, same
  // telemetry), so nothing changes for them observably.
  return MapSingle(device, kva, len, dir, site);
}

ServiceMode DmaApi::service_mode(DeviceId device) const {
  return router_ != nullptr && bounce_pool_ != nullptr && router_->ShouldBounce(device)
             ? ServiceMode::kBounceSync
             : ServiceMode::kZeroCopy;
}

bool DmaApi::IsBounced(DeviceId device, Iova iova) const {
  return bounce_pool_ != nullptr && bounce_pool_->Owns(device, iova);
}

Status DmaApi::UnmapSingle(DeviceId device, Iova iova, uint64_t len, DmaDirection dir) {
  trace::ScopedSpan span(tracer_, "dma.unmap_single");
  // Pool IOVAs first: the mapping may predate a trust promotion, so the
  // router's *current* verdict must not decide where the unmap goes.
  if (IsBounced(device, iova)) {
    Status status = bounce_pool_->Unmap(device, iova, len, dir);
    if (recorder_ != nullptr && status.ok()) {
      recorder_->RecordUnmap(device, iova, len, static_cast<uint8_t>(dir),
                             /*bounced=*/true);
    }
    return status;
  }
  const IovaKey key{device.value, iova.PageBase().value >> kPageShift};
  DmaMapping mapping;
  {
    std::lock_guard<MaybeMutex> guard(mu_);
    const DmaMapping* found = index_.Find(key);
    if (found == nullptr) {
      return FailedPrecondition("dma_unmap_single of unmapped IOVA");
    }
    mapping = *found;
  }
  if (mapping.len != len || mapping.dir != dir) {
    return InvalidArgument("dma_unmap_single with mismatched length or direction");
  }
  // Unmap in the IOMMU first: if that fails the tracker must still know the
  // mapping, or the IOVA range and its PTEs leak with no record of them.
  SPV_RETURN_IF_ERROR(iommu_.UnmapRange(device, iova.PageBase(), mapping.pages()));
  ForgetMapping(key);
  if (recorder_ != nullptr) {
    recorder_->RecordUnmap(device, iova, len, static_cast<uint8_t>(dir),
                           /*bounced=*/false);
  }
  Notify(mapping, /*map=*/false);
  return OkStatus();
}

Result<uint64_t> DmaApi::RevokeDeviceMappings(DeviceId device, Site site) {
  trace::ScopedSpan span(tracer_, "dma.revoke_device");
  // Snapshot first: unmapping mutates the tracker under iteration otherwise.
  std::vector<DmaMapping> victims;
  ForEachMapping([&](const DmaMapping& mapping) {
    if (mapping.device.value == device.value) {
      victims.push_back(mapping);
    }
  });
  uint64_t revoked = 0;
  for (DmaMapping mapping : victims) {
    mapping.site = site;
    SPV_RETURN_IF_ERROR(iommu_.UnmapRange(device, mapping.iova.PageBase(), mapping.pages()));
    ForgetMapping(IovaKey{device.value, mapping.iova.PageBase().value >> kPageShift});
    if (recorder_ != nullptr) {
      recorder_->RecordUnmap(device, mapping.iova, mapping.len,
                             static_cast<uint8_t>(mapping.dir), /*bounced=*/false);
    }
    Notify(mapping, /*map=*/false);
    ++revoked;
  }
  // In-flight bounces are dropped without copy-out: the device is suspect,
  // so whatever it wrote into the dedicated pages is discarded.
  if (bounce_pool_ != nullptr) {
    revoked += bounce_pool_->ReleaseAll(device);
  }
  return revoked;
}

Status DmaApi::SyncSingleForCpu(DeviceId device, Iova iova, uint64_t len, DmaDirection dir) {
  if (IsBounced(device, iova)) {
    Status status = bounce_pool_->SyncForCpu(device, iova, len, dir);
    if (recorder_ != nullptr && status.ok()) {
      recorder_->RecordSync(device, iova, len, static_cast<uint8_t>(dir),
                            /*for_cpu=*/true, /*bounced=*/true);
    }
    return status;
  }
  std::optional<DmaMapping> mapping = FindMapping(device, iova);
  if (!mapping.has_value() || mapping->dir != dir || mapping->len < len) {
    return FailedPrecondition("dma_sync_single_for_cpu on invalid mapping");
  }
  // CPU takes ownership of the bytes; the translation stays live.
  telemetry::Hub& hub = telemetry();
  if (hub.active()) {
    telemetry::Event event;
    event.kind = telemetry::EventKind::kDmaSync;
    event.severity = telemetry::Severity::kTrace;
    event.device = device.value;
    event.addr = mapping->kva.value;
    event.addr2 = iova.value;
    event.len = len;
    event.origin = this;
    event.site = "dma_sync_single_for_cpu";
    hub.Publish(std::move(event));
    if (hub.enabled()) {
      c_syncs_.Get(hub).Add();
    }
  }
  NotifyCpuAccess(mapping->kva, len, /*is_write=*/false);
  return OkStatus();
}

Status DmaApi::SyncSingleForDevice(DeviceId device, Iova iova, uint64_t len,
                                   DmaDirection dir) {
  if (IsBounced(device, iova)) {
    Status status = bounce_pool_->SyncForDevice(device, iova, len, dir);
    if (recorder_ != nullptr && status.ok()) {
      recorder_->RecordSync(device, iova, len, static_cast<uint8_t>(dir),
                            /*for_cpu=*/false, /*bounced=*/true);
    }
    return status;
  }
  std::optional<DmaMapping> mapping = FindMapping(device, iova);
  if (!mapping.has_value() || mapping->dir != dir || mapping->len < len) {
    return FailedPrecondition("dma_sync_single_for_device on invalid mapping");
  }
  return OkStatus();
}

Result<std::vector<Iova>> DmaApi::MapSg(DeviceId device, std::span<const SgEntry> entries,
                                        DmaDirection dir, Site site) {
  trace::ScopedSpan span(tracer_, "dma.map_sg");
  std::vector<Iova> iovas;
  iovas.reserve(entries.size());
  for (const SgEntry& entry : entries) {
    Result<Iova> iova = MapSingle(device, entry.kva, entry.len, dir, site);
    if (!iova.ok()) {
      // Roll back the partial list.
      for (size_t i = 0; i < iovas.size(); ++i) {
        (void)UnmapSingle(device, iovas[i], entries[i].len, dir);
      }
      return iova.status();
    }
    iovas.push_back(*iova);
  }
  return iovas;
}

Status DmaApi::UnmapSg(DeviceId device, std::span<const Iova> iovas,
                       std::span<const SgEntry> entries, DmaDirection dir) {
  trace::ScopedSpan span(tracer_, "dma.unmap_sg");
  if (iovas.size() != entries.size()) {
    return InvalidArgument("dma_unmap_sg with mismatched list sizes");
  }
  for (size_t i = 0; i < iovas.size(); ++i) {
    SPV_RETURN_IF_ERROR(UnmapSingle(device, iovas[i], entries[i].len, dir));
  }
  return OkStatus();
}

std::vector<DmaMapping> DmaApi::MappingsForPfn(Pfn pfn) const {
  std::lock_guard<MaybeMutex> guard(mu_);
  std::vector<DmaMapping> out;
  const auto collect = [&](const DmaMapping& mapping) {
    auto phys = layout_.DirectMapKvaToPhys(mapping.kva);
    if (!phys.ok()) {
      return;
    }
    const uint64_t first = phys->pfn().value;
    const uint64_t last = first + mapping.pages() - 1;
    if (pfn.value >= first && pfn.value <= last) {
      out.push_back(mapping);
    }
  };
  index_.ForEach([&](const IovaKey&, const DmaMapping& mapping) { collect(mapping); });
  // The flat table iterates in probe order; sort so consumers see a
  // deterministic, ascending (device, iova) result.
  std::sort(out.begin(), out.end(), ByDeviceIova);
  return out;
}

void DmaApi::ForEachMapping(const std::function<void(const DmaMapping&)>& fn) const {
  std::lock_guard<MaybeMutex> guard(mu_);
  // The flat table iterates in probe order; sort for a deterministic visit.
  std::vector<DmaMapping> all;
  index_.ForEach([&](const IovaKey&, const DmaMapping& mapping) { all.push_back(mapping); });
  std::sort(all.begin(), all.end(), ByDeviceIova);
  for (const DmaMapping& mapping : all) {
    fn(mapping);
  }
}

std::optional<DmaMapping> DmaApi::FindMapping(DeviceId device, Iova iova) const {
  {
    std::lock_guard<MaybeMutex> guard(mu_);
    const DmaMapping* found =
        index_.Find(IovaKey{device.value, iova.PageBase().value >> kPageShift});
    if (found != nullptr) {
      return *found;
    }
  }
  // Bounced buffers live in the pool, not the tracker; synthesize the
  // mapping so FindMapping-based ring audits keep working.
  if (IsBounced(device, iova)) {
    return bounce_pool_->Lookup(device, iova);
  }
  return std::nullopt;
}

void DmaApi::AddObserver(DmaObserver* observer) {
  observer_sinks_.push_back(std::make_unique<DmaObserverSink>(this, observer));
  telemetry().AddSink(observer_sinks_.back().get());
}

void DmaApi::RemoveObserver(DmaObserver* observer) {
  for (auto it = observer_sinks_.begin(); it != observer_sinks_.end();) {
    if ((*it)->observer() == observer) {
      telemetry().RemoveSink(it->get());
      it = observer_sinks_.erase(it);
    } else {
      ++it;
    }
  }
}

void DmaApi::NotifyCpuAccess(Kva kva, uint64_t len, bool is_write) {
  telemetry::Hub& hub = telemetry();
  if (!hub.active()) {
    return;
  }
  telemetry::Event event;
  event.kind = telemetry::EventKind::kCpuAccess;
  event.severity = telemetry::Severity::kTrace;
  event.addr = kva.value;
  event.len = len;
  event.flag = is_write;
  event.origin = this;
  hub.Publish(std::move(event));
  if (hub.enabled()) {
    c_cpu_accesses_.Get(hub).Add();
  }
}

void DmaApi::Notify(const DmaMapping& mapping, bool map) {
  telemetry::Hub& hub = telemetry();
  if (!hub.active()) {
    return;
  }
  telemetry::Event event;
  event.kind = map ? telemetry::EventKind::kDmaMap : telemetry::EventKind::kDmaUnmap;
  event.severity = telemetry::Severity::kInfo;
  event.device = mapping.device.value;
  event.addr = mapping.kva.value;
  event.addr2 = mapping.iova.value;
  event.len = mapping.len;
  event.aux = static_cast<uint64_t>(RightsFor(mapping.dir));
  event.origin = this;
  event.site = mapping.site;
  hub.Publish(std::move(event));
  if (hub.enabled()) {
    (map ? c_maps_ : c_unmaps_).Get(hub).Add();
    // Per-device map/unmap accounting (Table-1 style breakdowns). The name is
    // built on the stack: "dma.unmaps.dev10" is past the small-string limit,
    // and the registry lookup takes a view.
    char per_device[32];
    const int len = std::snprintf(per_device, sizeof(per_device), "%s%u",
                                  map ? "dma.maps.dev" : "dma.unmaps.dev", mapping.device.value);
    hub.counter(std::string_view(per_device, static_cast<size_t>(len))).Add();
    if (map) {
      h_map_bytes_.Get(hub).Record(mapping.len);
      h_exposed_bytes_.Get(hub).Record(mapping.exposed_bytes());
    }
  }
}

}  // namespace spv::dma
