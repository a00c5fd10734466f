#include "iommu/iommu.h"

#include <algorithm>
#include <cassert>
#include <mutex>
#include <shared_mutex>

#include "fault/fault.h"
#include "forensics/flight_recorder.h"

namespace spv::iommu {

namespace {

// kIommuFlush's site, "flush_now:<reason>".
Site FlushSite(FlushReason reason) {
  switch (reason) {
    case FlushReason::kManual:
      return "flush_now:manual";
    case FlushReason::kCapacity:
      return "flush_now:capacity";
    case FlushReason::kDeadline:
      return "flush_now:deadline";
  }
  return "flush_now:?";
}

}  // namespace

std::string_view FlushReasonName(FlushReason reason) {
  switch (reason) {
    case FlushReason::kManual:
      return "manual";
    case FlushReason::kCapacity:
      return "capacity";
    case FlushReason::kDeadline:
      return "deadline";
  }
  return "?";
}

Iommu::Iommu(mem::PhysicalMemory& pm, SimClock& clock, Config config)
    : pm_(pm), clock_(clock), config_(config), iotlb_(config.iotlb_capacity) {
  // Sequential mode: one shard == the legacy global flush queue.
  flush_shards_.push_back(std::make_unique<FlushShard>());
}

void Iommu::EngageThreadSafety(uint32_t num_cpus) {
  assert(!threaded_);
  threaded_ = true;
  const uint32_t shards = std::max<uint32_t>(num_cpus, 1);
  assert(flush_shards_.size() == 1 && flush_shards_[0]->queue.empty() &&
         "reshard before any deferred traffic");
  flush_shards_.clear();
  for (uint32_t i = 0; i < shards; ++i) {
    flush_shards_.push_back(std::make_unique<FlushShard>());
    flush_shards_.back()->mu.Engage();
  }
  state_mu_.Engage();
  faults_mu_.Engage();
  iotlb_.EngageLock();
  for (auto& [id, domain] : device_domain_) {
    domain->table.EngageLock();
    domain->iova_alloc.EngageLock();
  }
}

void Iommu::set_telemetry(telemetry::Hub* hub) {
  hub_ = hub;
  iotlb_.set_telemetry(hub);
  for (auto& [id, domain] : device_domain_) {
    domain->iova_alloc.set_telemetry(hub);
    domain->table.set_telemetry(hub);
  }
}

void Iommu::AttachDevice(DeviceId device) {
  std::lock_guard<MaybeSharedMutex> lock(state_mu_);
  if (device_domain_.contains(device.value)) {
    return;
  }
  // A fresh attach (or a supervised re-attach after detach) restores the
  // device to good standing: the revocation memory is cleared.
  fenced_.erase(device.value);
  revoked_.erase(device.value);
  auto domain = std::make_shared<Domain>(config_.fast_path);
  domain->id = next_domain_id_++;
  domain->iova_alloc.set_telemetry(hub_);
  domain->table.set_telemetry(hub_);
  if (threaded_) {
    domain->table.EngageLock();
    domain->iova_alloc.EngageLock();
  }
  device_domain_[device.value] = std::move(domain);
}

Status Iommu::AttachDeviceToDomainOf(DeviceId device, DeviceId domain_owner) {
  std::lock_guard<MaybeSharedMutex> lock(state_mu_);
  auto owner_it = device_domain_.find(domain_owner.value);
  if (owner_it == device_domain_.end()) {
    return NotFound("domain owner not attached");
  }
  if (device_domain_.contains(device.value)) {
    return AlreadyExists("device already attached");
  }
  device_domain_[device.value] = owner_it->second;
  return OkStatus();
}

bool Iommu::IsAttached(DeviceId device) const {
  std::shared_lock<MaybeSharedMutex> lock(state_mu_);
  return device_domain_.contains(device.value);
}

bool Iommu::IsFenced(DeviceId device) const {
  std::shared_lock<MaybeSharedMutex> lock(state_mu_);
  return fenced_.contains(device.value);
}

bool Iommu::IsRevoked(DeviceId device) const {
  std::shared_lock<MaybeSharedMutex> lock(state_mu_);
  return revoked_.contains(device.value);
}

bool Iommu::SameDomain(DeviceId a, DeviceId b) const {
  std::shared_lock<MaybeSharedMutex> lock(state_mu_);
  auto ia = device_domain_.find(a.value);
  auto ib = device_domain_.find(b.value);
  return ia != device_domain_.end() && ib != device_domain_.end() &&
         ia->second == ib->second;
}

Iommu::DeviceRef Iommu::Resolve(DeviceId device) const {
  std::shared_lock<MaybeSharedMutex> lock(state_mu_);
  DeviceRef ref;
  auto it = device_domain_.find(device.value);
  if (it != device_domain_.end()) {
    ref.domain = it->second;
  }
  ref.fenced = fenced_.contains(device.value);
  ref.revoked = revoked_.contains(device.value);
  return ref;
}

Status Iommu::FenceDevice(DeviceId device) {
  DeviceRef ref = Resolve(device);
  if (ref.domain == nullptr) {
    return NotFound("device not attached to IOMMU");
  }
  if (ref.fenced) {
    return OkStatus();  // idempotent: already quarantined
  }
  trace::ScopedSpan span(tracer_, "iommu.fence_device");
  // Order matters: first retire this device's deferred unmaps in *every*
  // CPU's shard (their parked IOVAs come home, their stale IOTLB pages die),
  // then drop every remaining cached translation for the domain so no warm
  // entry survives the fence.
  DrainDeviceInvalidations(device);
  iotlb_.InvalidateDevice(DeviceId{ref.domain->id});
  ref.domain->table.InvalidateWalkCache();
  clock_.Advance(kIotlbInvalidationCycles);
  stats_.invalidation_cycles += kIotlbInvalidationCycles;
  {
    std::lock_guard<MaybeSharedMutex> lock(state_mu_);
    fenced_.insert(device.value);
    revoked_.insert(device.value);
  }
  ++stats_.device_fences;
  if (hub_ != nullptr && hub_->enabled()) {
    hub_->counter("iommu.device_fences").Add();
  }
  return OkStatus();
}

Status Iommu::UnfenceDevice(DeviceId device) {
  std::lock_guard<MaybeSharedMutex> lock(state_mu_);
  if (!device_domain_.contains(device.value)) {
    return NotFound("device not attached to IOMMU");
  }
  fenced_.erase(device.value);
  revoked_.erase(device.value);
  return OkStatus();
}

uint64_t Iommu::DrainDeviceInvalidations(DeviceId device) {
  DeviceRef ref = Resolve(device);
  Domain* state = ref.domain.get();
  uint64_t drained = 0;
  for (auto& shard_ptr : flush_shards_) {
    FlushShard& shard = *shard_ptr;
    std::vector<PendingInvalidation> mine;
    {
      std::lock_guard<MaybeMutex> lock(shard.mu);
      std::vector<PendingInvalidation> keep;
      for (PendingInvalidation& pending : shard.queue) {
        (pending.device.value == device.value ? mine : keep).push_back(pending);
      }
      shard.queue.swap(keep);
    }
    for (const PendingInvalidation& pending : mine) {
      ++drained;
      stats_.drained_device_entries += 1;
      if (state != nullptr) {
        // Kill the stale IOTLB pages *before* the IOVAs become reusable —
        // freeing first would let a recycled IOVA translate through the
        // still-warm stale entry (the exact window quarantine must close).
        for (uint64_t i = 0; i < pending.pages; ++i) {
          iotlb_.InvalidatePage(DeviceId{state->id}, pending.base + (i << kPageShift));
          clock_.Advance(kIotlbInvalidationCycles);
          stats_.invalidation_cycles += kIotlbInvalidationCycles;
          ++stats_.targeted_invalidations;
        }
        (void)state->iova_alloc.Free(pending.base, pending.pages, pending.cpu);
      }
    }
  }
  if (drained != 0 && hub_ != nullptr && hub_->enabled()) {
    hub_->counter("iommu.drained_device_entries").Add(drained);
  }
  return drained;
}

Status Iommu::DetachDevice(DeviceId device) {
  {
    std::shared_lock<MaybeSharedMutex> lock(state_mu_);
    if (!device_domain_.contains(device.value)) {
      // Idempotent for devices we detached earlier; never-attached is an error.
      return revoked_.contains(device.value)
                 ? OkStatus()
                 : NotFound("device not attached to IOMMU");
    }
  }
  trace::ScopedSpan span(tracer_, "iommu.detach_device");
  SPV_RETURN_IF_ERROR(FenceDevice(device));
  {
    // Drop the device's domain membership. A shared domain survives through
    // the other members' shared_ptr refs — their PTEs and IOVA ranges are
    // theirs, not ours to tear down.
    std::lock_guard<MaybeSharedMutex> lock(state_mu_);
    device_domain_.erase(device.value);
    fenced_.erase(device.value);   // no longer attached, nothing left to fence
    revoked_.insert(device.value);  // but the revocation memory persists
  }
  ++stats_.device_detaches;
  if (hub_ != nullptr && hub_->enabled()) {
    hub_->counter("iommu.device_detaches").Add();
  }
  return OkStatus();
}

void Iommu::NoteFencedAccess(DeviceId device, Iova iova, Site what) {
  ++stats_.fenced_accesses;
  if (hub_ != nullptr && hub_->active()) {
    telemetry::Event event;
    event.kind = telemetry::EventKind::kDeviceFencedAccess;
    event.severity = telemetry::Severity::kTrace;
    event.device = device.value;
    event.addr2 = iova.value;
    event.origin = this;
    event.site = what;
    hub_->Publish(std::move(event));
    if (hub_->enabled()) {
      hub_->counter("iommu.fenced_accesses").Add();
    }
  }
}

Result<Iova> Iommu::MapPage(DeviceId device, Pfn pfn, AccessRights rights) {
  const Pfn pfns[] = {pfn};
  return MapRange(device, pfns, rights);
}

Result<Iova> Iommu::MapRange(DeviceId device, std::span<const Pfn> pfns, AccessRights rights) {
  trace::ScopedSpan span(tracer_, "iommu.map_range");
  ProcessDeferredTimer();
  DeviceRef ref = Resolve(device);
  Domain* state = ref.domain.get();
  if (state == nullptr) {
    return ref.revoked ? Revoked("device detached: new mappings revoked")
                       : InvalidArgument("device not attached to IOMMU");
  }
  if (ref.fenced) {
    return Revoked("device quarantined: new mappings revoked");
  }
  if (pfns.empty()) {
    return InvalidArgument("empty pfn list");
  }
  if (!config_.enabled) {
    // Bypass: dma_addr == physical address. Scatter lists must be contiguous
    // (a real no-IOMMU dma_map_sg would yield one segment per entry; our
    // callers map entries separately anyway).
    for (size_t i = 1; i < pfns.size(); ++i) {
      if (pfns[i].value != pfns[0].value + i) {
        return InvalidArgument("bypass mode requires contiguous pfns");
      }
    }
    stats_.maps += pfns.size();
    return Iova{pfns[0].PhysBase()};
  }
  if (fault_ != nullptr && fault_->armed() &&
      fault_->ShouldInject(fault::FaultSite::kIovaAlloc)) {
    return ResourceExhausted("injected: IOVA space exhausted");
  }
  Result<Iova> base = state->iova_alloc.Alloc(pfns.size(), CurrentCpu());
  if (!base.ok()) {
    return base.status();
  }
  for (size_t i = 0; i < pfns.size(); ++i) {
    Status s = (fault_ != nullptr && fault_->armed() &&
                fault_->ShouldInject(fault::FaultSite::kIoPageTableMap))
                   ? ResourceExhausted("injected: I/O page table allocation failure")
                   : state->table.Map(*base + (i << kPageShift), pfns[i], rights);
    if (!s.ok()) {
      // Roll back partial mappings.
      for (size_t j = 0; j < i; ++j) {
        (void)state->table.Unmap(*base + (j << kPageShift));
      }
      (void)state->iova_alloc.Free(*base, pfns.size(), CurrentCpu());
      return s;
    }
  }
  clock_.Advance(kMapPteCycles * pfns.size());
  stats_.maps += pfns.size();
  if (hub_ != nullptr && hub_->enabled()) {
    c_maps_.Get(*hub_).Add(pfns.size());
  }
  return *base;
}

Status Iommu::UnmapPage(DeviceId device, Iova iova) { return UnmapRange(device, iova, 1); }

Status Iommu::UnmapRange(DeviceId device, Iova base, uint64_t pages) {
  trace::ScopedSpan span(tracer_, "iommu.unmap_range");
  ProcessDeferredTimer();
  DeviceRef ref = Resolve(device);
  Domain* state = ref.domain.get();
  if (state == nullptr) {
    // OS-side unmaps on a *fenced* device stay allowed (teardown must make
    // progress), but once detached the translations are gone with the domain.
    return ref.revoked ? Revoked("device detached: mappings already revoked")
                       : InvalidArgument("device not attached to IOMMU");
  }
  if (!config_.enabled) {
    stats_.unmaps += pages;  // nothing to revoke: the device never lost access
    return OkStatus();
  }
  for (uint64_t i = 0; i < pages; ++i) {
    Result<PteEntry> old = state->table.Unmap(base + (i << kPageShift));
    if (!old.ok()) {
      return old.status();
    }
  }
  stats_.unmaps += pages;
  if (hub_ != nullptr && hub_->enabled()) {
    c_unmaps_.Get(*hub_).Add(pages);
  }

  if (config_.mode == InvalidationMode::kStrict) {
    // Synchronous per-page invalidation, then the IOVA is immediately
    // reusable. This is the expensive-but-safe path.
    for (uint64_t i = 0; i < pages; ++i) {
      iotlb_.InvalidatePage(DeviceId{state->id}, base + (i << kPageShift));
      uint64_t cycles = kIotlbInvalidationCycles;
      if (fault_ != nullptr && fault_->armed() &&
          fault_->ShouldInject(fault::FaultSite::kIotlbInvalidation)) {
        // Invalidation stall: the wait-descriptor takes far longer than the
        // nominal cost (a latency spike, not a failure).
        cycles += fault_->magnitude(fault::FaultSite::kIotlbInvalidation,
                                    10 * kIotlbInvalidationCycles);
      }
      clock_.Advance(cycles);
      stats_.invalidation_cycles += cycles;
      ++stats_.targeted_invalidations;
      if (hub_ != nullptr && hub_->active()) {
        telemetry::Event event;
        event.kind = telemetry::EventKind::kIotlbInvalidate;
        event.severity = telemetry::Severity::kTrace;
        event.device = device.value;
        event.addr2 = (base + (i << kPageShift)).value;
        event.len = kPageSize;
        event.aux = kIotlbInvalidationCycles;
        event.origin = this;
        event.site = "unmap_strict";
        hub_->Publish(std::move(event));
        if (hub_->enabled()) {
          c_targeted_invalidations_.Get(*hub_).Add();
          c_invalidation_cycles_.Get(*hub_).Add(kIotlbInvalidationCycles);
        }
      }
    }
    if (recorder_ != nullptr) {
      // Strict flush edge: the translation died with the unmap, so the
      // mapping's stale window is the invalidation latency itself.
      recorder_->RecordFlush(device, base, pages);
    }
    return state->iova_alloc.Free(base, pages, CurrentCpu());
  }

  // Deferred: PTE is gone but the IOTLB may still translate. The IOVA is
  // parked until the flush so it cannot be handed out while stale.
  EnqueueInvalidation(device, base, pages);
  return OkStatus();
}

void Iommu::EnqueueInvalidation(DeviceId device, Iova base, uint64_t pages) {
  const size_t shard_index = ShardIndex();
  FlushShard& shard = *flush_shards_[shard_index];
  bool capacity_hit = false;
  {
    std::lock_guard<MaybeMutex> lock(shard.mu);
    if (shard.queue.empty()) {
      shard.deadline = clock_.now() + config_.flush_interval_cycles;
    }
    shard.queue.push_back(PendingInvalidation{device, base, pages, CurrentCpu()});
    capacity_hit = shard.queue.size() >= config_.flush_queue_capacity;
  }
  if (capacity_hit) {
    DrainShard(shard_index, FlushReason::kCapacity);
  }
}

void Iommu::FlushNow(FlushReason reason) {
  for (size_t i = 0; i < flush_shards_.size(); ++i) {
    DrainShard(i, reason);
  }
}

Status Iommu::SetDeviceFastPath(DeviceId device, bool enabled) {
  DeviceRef ref = Resolve(device);
  if (ref.domain == nullptr) {
    return NotFound("fast-path gate on unattached device");
  }
  ref.domain->iova_alloc.set_cache_bypass(!enabled);
  return OkStatus();
}

bool Iommu::device_fast_path(DeviceId device) const {
  DeviceRef ref = Resolve(device);
  return ref.domain == nullptr || !ref.domain->iova_alloc.cache_bypass();
}

void Iommu::DrainShard(size_t shard_index, FlushReason reason) {
  FlushShard& shard = *flush_shards_[shard_index];
  std::vector<PendingInvalidation> batch;
  {
    std::lock_guard<MaybeMutex> lock(shard.mu);
    if (shard.queue.empty()) {
      return;
    }
    batch.swap(shard.queue);
    shard.deadline = 0;
  }
  trace::ScopedSpan span(tracer_, "iommu.flush_drain");
  // One global invalidation amortizes the whole batch — this is why deferred
  // mode wins on throughput (§5.2.1).
  const uint64_t amortized = batch.size();
  iotlb_.InvalidateAll();
  // A global IOTLB invalidation also drops the intermediate-structure
  // caches, so the page-table walk caches start cold. The shared lock is
  // taken before each table's own lock, the documented order.
  {
    std::shared_lock<MaybeSharedMutex> lock(state_mu_);
    for (auto& [id, domain] : device_domain_) {
      domain->table.InvalidateWalkCache();
    }
  }
  uint64_t flush_cycles = kIotlbInvalidationCycles;
  if (fault_ != nullptr && fault_->armed() &&
      fault_->ShouldInject(fault::FaultSite::kIotlbInvalidation)) {
    flush_cycles += fault_->magnitude(fault::FaultSite::kIotlbInvalidation,
                                      10 * kIotlbInvalidationCycles);
  }
  clock_.Advance(flush_cycles);
  stats_.invalidation_cycles += flush_cycles;
  ++stats_.flushes;
  switch (reason) {
    case FlushReason::kManual:
      ++stats_.flush_manual_drains;
      break;
    case FlushReason::kCapacity:
      ++stats_.flush_capacity_drains;
      break;
    case FlushReason::kDeadline:
      ++stats_.flush_deadline_drains;
      break;
  }
  if (hub_ != nullptr && hub_->active()) {
    telemetry::Event event;
    event.kind = telemetry::EventKind::kIommuFlush;
    event.severity = telemetry::Severity::kInfo;
    event.aux = amortized;  // queued unmaps retired by this one invalidation
    event.origin = this;
    event.site = FlushSite(reason);
    hub_->Publish(std::move(event));
    if (hub_->enabled()) {
      c_flushes_.Get(*hub_).Add();
      telemetry::CachedCounter& by_reason =
          reason == FlushReason::kManual     ? c_flush_drain_manual_
          : reason == FlushReason::kCapacity ? c_flush_drain_capacity_
                                             : c_flush_drain_deadline_;
      by_reason.Get(*hub_).Add();
      c_invalidation_cycles_.Get(*hub_).Add(kIotlbInvalidationCycles);
      h_flush_batch_.Get(*hub_).Record(amortized);
    }
  }
  for (const PendingInvalidation& pending : batch) {
    if (recorder_ != nullptr) {
      // Deferred flush edge: this drain is what finally closes the stale
      // window the queued unmap opened.
      recorder_->RecordFlush(pending.device, pending.base, pending.pages);
    }
    DeviceRef ref = Resolve(pending.device);
    if (ref.domain != nullptr) {
      (void)ref.domain->iova_alloc.Free(pending.base, pending.pages, pending.cpu);
    }
  }
  // Hand the drained buffer back so the next batch reuses its capacity
  // (unless unmaps on another thread already refilled the queue).
  batch.clear();
  std::lock_guard<MaybeMutex> lock(shard.mu);
  if (shard.queue.empty() && shard.queue.capacity() < batch.capacity()) {
    shard.queue.swap(batch);
  }
}

void Iommu::ProcessDeferredTimer() {
  const size_t shard_index = ShardIndex();
  FlushShard& shard = *flush_shards_[shard_index];
  bool expired = false;
  {
    std::lock_guard<MaybeMutex> lock(shard.mu);
    expired = !shard.queue.empty() && clock_.now() >= shard.deadline;
  }
  if (expired) {
    DrainShard(shard_index, FlushReason::kDeadline);
  }
}

Status Iommu::DeviceRead(DeviceId device, Iova iova, std::span<uint8_t> out) {
  return Access(device, iova, AccessOp::kRead, out, {});
}

Status Iommu::DeviceWrite(DeviceId device, Iova iova, std::span<const uint8_t> data) {
  return Access(device, iova, AccessOp::kWrite, {}, data);
}

Status Iommu::Access(DeviceId device, Iova iova, AccessOp op, std::span<uint8_t> read_out,
                     std::span<const uint8_t> write_data) {
  // The "use" step of map -> use -> unmap: translation cycles (IOTLB hit or
  // page walk) accrue to this span in cycle-attribution profiles.
  trace::ScopedSpan span(tracer_, "iommu.device_access");
  ProcessDeferredTimer();
  DeviceRef ref = Resolve(device);
  Domain* state = ref.domain.get();
  if (state == nullptr) {
    if (ref.revoked) {
      NoteFencedAccess(device, iova, "DMA after detach");
      return Revoked("device detached: DMA revoked");
    }
    return InvalidArgument("device not attached to IOMMU");
  }
  if (ref.fenced) {
    NoteFencedAccess(device, iova, "DMA while fenced");
    return Revoked("device quarantined: DMA fenced");
  }
  ++stats_.device_accesses;
  if (hub_ != nullptr && hub_->enabled()) {
    c_device_accesses_.Get(*hub_).Add();
  }

  if (!config_.enabled) {
    // No translation, no checks: the device masters the bus directly.
    const PhysAddr phys{iova.value};
    return op == AccessOp::kRead ? pm_.Read(phys, read_out) : pm_.Write(phys, write_data);
  }

  const uint64_t total = op == AccessOp::kRead ? read_out.size() : write_data.size();
  uint64_t done = 0;
  while (done < total) {
    const Iova cursor = iova + done;
    const uint64_t in_page = std::min(total - done, kPageSize - cursor.page_offset());
    Result<PteEntry> entry = TranslateForDevice(device, *state, cursor.PageBase(), op);
    if (!entry.ok()) {
      return entry.status();
    }
    const PhysAddr phys = PhysAddr::FromPfn(entry->pfn, cursor.page_offset());
    if (recorder_ != nullptr) {
      recorder_->RecordAccess(device, cursor, phys.value, in_page,
                              op == AccessOp::kWrite);
    }
    if (op == AccessOp::kRead) {
      SPV_RETURN_IF_ERROR(pm_.Read(phys, read_out.subspan(done, in_page)));
    } else {
      SPV_RETURN_IF_ERROR(pm_.Write(phys, write_data.subspan(done, in_page)));
    }
    done += in_page;
  }
  return OkStatus();
}

Result<PteEntry> Iommu::TranslateForDevice(DeviceId device, Domain& state, Iova page_iova,
                                           AccessOp op) {
  // IOTLB first. A hit is authoritative even if the PTE has since been
  // cleared — the hardware does not re-walk on hits. This single line is the
  // deferred-invalidation vulnerability.
  std::optional<PteEntry> cached = iotlb_.Lookup(DeviceId{state.id}, page_iova);
  if (cached.has_value()) {
    clock_.Advance(kIotlbHitCycles);
    if (!Permits(cached->rights, op)) {
      Fault(device, page_iova, op, "access rights violation (cached translation)");
      return PermissionDenied("IOMMU fault: rights violation");
    }
    if (!state.table.Lookup(page_iova).has_value()) {
      ++stats_.stale_iotlb_accesses;  // translated with no live PTE
      if (recorder_ != nullptr) {
        recorder_->RecordStaleHit(device, page_iova,
                                  PhysAddr::FromPfn(cached->pfn, 0).value);
      }
      if (hub_ != nullptr && hub_->active()) {
        telemetry::Event event;
        event.kind = telemetry::EventKind::kStaleIotlbHit;
        event.severity = telemetry::Severity::kCritical;
        event.device = device.value;
        event.addr2 = page_iova.value;
        event.len = kPageSize;
        event.flag = op == AccessOp::kWrite;
        event.origin = this;
        event.site = "stale translation served from IOTLB";
        hub_->Publish(std::move(event));
        if (hub_->enabled()) {
          hub_->counter("iommu.stale_iotlb_accesses").Add();
        }
      }
    }
    return *cached;
  }

  int walk_levels = 0;
  std::optional<PteEntry> pte = state.table.Lookup(page_iova, &walk_levels);
  clock_.Advance(kPageWalkCyclesPerLevel * static_cast<uint64_t>(std::max(walk_levels, 1)));
  if (!pte.has_value()) {
    Fault(device, page_iova, op, "translation not present");
    return PermissionDenied("IOMMU fault: not present");
  }
  iotlb_.Insert(DeviceId{state.id}, page_iova, *pte);
  if (!Permits(pte->rights, op)) {
    Fault(device, page_iova, op, "access rights violation");
    return PermissionDenied("IOMMU fault: rights violation");
  }
  return *pte;
}

void Iommu::Fault(DeviceId device, Iova iova, AccessOp op, Site reason) {
  if (recorder_ != nullptr) {
    recorder_->RecordFault(device, iova, kPageSize, op == AccessOp::kWrite);
  }
  if (hub_ != nullptr && hub_->active()) {
    telemetry::Event event;
    event.kind = telemetry::EventKind::kIommuFault;
    event.severity = telemetry::Severity::kWarn;
    event.device = device.value;
    event.addr2 = iova.value;
    event.flag = op == AccessOp::kWrite;
    event.origin = this;
    event.site = reason;
    hub_->Publish(std::move(event));
    if (hub_->enabled()) {
      hub_->counter("iommu.faults").Add();
    }
  }
  // Bound the fault log; a scanning attacker can generate millions.
  constexpr size_t kMaxFaults = 4096;
  std::lock_guard<MaybeMutex> lock(faults_mu_);
  if (faults_.size() < kMaxFaults) {
    faults_.push_back(IommuFault{device, iova, op, clock_.now(), reason});
  }
}

std::vector<Iova> Iommu::IovasForPfn(DeviceId device, Pfn pfn) const {
  DeviceRef ref = Resolve(device);
  if (ref.domain == nullptr) {
    return {};
  }
  return ref.domain->table.FindIovasForPfn(pfn);
}

std::optional<PteEntry> Iommu::Peek(DeviceId device, Iova iova) const {
  DeviceRef ref = Resolve(device);
  if (ref.domain == nullptr) {
    return std::nullopt;
  }
  return ref.domain->table.PeekTranslation(iova.PageBase());
}

const IovaAllocator* Iommu::iova_allocator(DeviceId device) const {
  DeviceRef ref = Resolve(device);
  return ref.domain == nullptr ? nullptr : &ref.domain->iova_alloc;
}

const IoPageTable* Iommu::page_table(DeviceId device) const {
  DeviceRef ref = Resolve(device);
  return ref.domain == nullptr ? nullptr : &ref.domain->table;
}

std::vector<DeviceId> Iommu::attached_devices() const {
  std::shared_lock<MaybeSharedMutex> lock(state_mu_);
  std::vector<DeviceId> out;
  out.reserve(device_domain_.size());
  for (const auto& [id, domain] : device_domain_) {
    out.push_back(DeviceId{id});
  }
  std::sort(out.begin(), out.end(),
            [](DeviceId a, DeviceId b) { return a.value < b.value; });
  return out;
}

uint32_t Iommu::domain_id(DeviceId device) const {
  DeviceRef ref = Resolve(device);
  return ref.domain == nullptr ? 0 : ref.domain->id;
}

uint64_t Iommu::pending_invalidation_count() const {
  uint64_t total = 0;
  for (const auto& shard : flush_shards_) {
    std::lock_guard<MaybeMutex> lock(shard->mu);
    total += shard->queue.size();
  }
  return total;
}

uint64_t Iommu::pending_invalidation_count(CpuId cpu) const {
  const FlushShard& shard =
      *flush_shards_[flush_shards_.size() <= 1 ? 0 : cpu.value % flush_shards_.size()];
  std::lock_guard<MaybeMutex> lock(shard.mu);
  return shard.queue.size();
}

std::vector<Iommu::PendingRange> Iommu::pending_invalidations() const {
  std::vector<PendingRange> out;
  for (const auto& shard : flush_shards_) {
    std::lock_guard<MaybeMutex> lock(shard->mu);
    for (const PendingInvalidation& pending : shard->queue) {
      out.push_back(PendingRange{pending.device, pending.base, pending.pages});
    }
  }
  return out;
}

Status Iommu::AuditCrossCpu() const {
  // Shard liveness: a non-empty shard must have an armed deadline (otherwise
  // its entries can never deadline-drain), and every pending range must still
  // be parked (live) in its domain's allocator — parked IOVAs are freed only
  // at drain, so a pending range absent from the live set has leaked or been
  // handed out while stale.
  for (size_t i = 0; i < flush_shards_.size(); ++i) {
    const FlushShard& shard = *flush_shards_[i];
    std::lock_guard<MaybeMutex> lock(shard.mu);
    if (!shard.queue.empty() && shard.deadline == 0) {
      return Internal("flush shard " + std::to_string(i) +
                           " non-empty with unarmed deadline");
    }
    for (const PendingInvalidation& pending : shard.queue) {
      DeviceRef ref = Resolve(pending.device);
      if (ref.domain == nullptr) {
        continue;  // detached while pending: DrainDeviceInvalidations missed it
      }
      const uint64_t base_page = pending.base.value >> kPageShift;
      bool parked = false;
      for (const IovaAllocator::LiveRange& range : ref.domain->iova_alloc.live_ranges()) {
        if (base_page >= range.base_page && base_page < range.base_page + range.pages) {
          parked = true;
          break;
        }
      }
      if (!parked) {
        return Internal("pending invalidation not parked in live set (shard " +
                             std::to_string(i) + ")");
      }
    }
  }
  // Magazine ownership: per-domain audit of every CPU magazine and the depot.
  std::vector<std::shared_ptr<Domain>> domains;
  {
    std::shared_lock<MaybeSharedMutex> lock(state_mu_);
    domains.reserve(device_domain_.size());
    for (const auto& [id, domain] : device_domain_) {
      domains.push_back(domain);
    }
  }
  for (const auto& domain : domains) {
    SPV_RETURN_IF_ERROR(domain->iova_alloc.AuditCaches());
  }
  return OkStatus();
}

}  // namespace spv::iommu
