#include "recovery/recovery.h"

#include <algorithm>

namespace spv::recovery {

std::string_view DeviceStateName(DeviceState state) {
  switch (state) {
    case DeviceState::kHealthy:
      return "healthy";
    case DeviceState::kQuarantined:
      return "quarantined";
    case DeviceState::kProbation:
      return "probation";
    case DeviceState::kDetached:
      return "detached";
  }
  return "?";
}

RecoveryManager::RecoveryManager(iommu::Iommu& iommu, dma::DmaApi& dma, SimClock& clock,
                                 telemetry::Hub& hub, Config config)
    : iommu_(iommu),
      dma_(dma),
      clock_(clock),
      hub_(hub),
      config_(config),
      scorer_(config.health) {
  if (config_.enabled) {
    hub_.AddSink(&scorer_);
  }
}

RecoveryManager::~RecoveryManager() {
  if (config_.enabled) {
    hub_.RemoveSink(&scorer_);
  }
}

void RecoveryManager::RegisterDevice(DeviceId device, SupervisedDriver* driver,
                                     const RecoveryConfig* tune) {
  Supervised& entry = devices_[device.value];
  entry.driver = driver;
  if (tune != nullptr) {
    entry.tune = *tune;
  }
  scorer_.Track(device);
  if (tune != nullptr) {
    scorer_.SetDeviceConfig(device, tune->health);
  }
}

const RecoveryConfig& RecoveryManager::effective_config(DeviceId device) const {
  auto it = devices_.find(device.value);
  return it == devices_.end() ? config_ : TuneFor(it->second);
}

void RecoveryManager::Emit(telemetry::EventKind kind, telemetry::Severity severity,
                           DeviceId device, uint64_t aux, telemetry::EventSite site) {
  if (!hub_.active()) {
    return;
  }
  telemetry::Event event;
  event.kind = kind;
  event.severity = severity;
  event.device = device.value;
  event.aux = aux;
  event.origin = this;
  event.site = std::move(site);
  hub_.Publish(std::move(event));
}

Status RecoveryManager::Quarantine(DeviceId device, std::string_view reason) {
  auto it = devices_.find(device.value);
  if (it == devices_.end()) {
    return NotFound("device not under recovery supervision");
  }
  return DoQuarantine(device, it->second, reason);
}

Status RecoveryManager::DoQuarantine(DeviceId device, Supervised& entry,
                                     std::string_view reason) {
  if (entry.state == DeviceState::kQuarantined || entry.state == DeviceState::kDetached) {
    return OkStatus();  // idempotent: already out of service
  }
  trace::ScopedSpan span(tracer_, "recovery.quarantine");
  const uint64_t start = clock_.now();

  // Ordering is the whole point:
  //  (1) fence — device-side DMA and new maps now fail kRevoked, and the
  //      device's already-queued flush entries are drained (stale IOTLB pages
  //      invalidated before their IOVAs become reusable);
  //  (2) ring teardown — the driver's unmaps are OS-side and exempt from the
  //      fence; buffers return to their pools, nothing leaks;
  //  (3) sweep the tracker — any mapping the driver did not own (a stack
  //      buffer, a test mapping) is force-unmapped;
  //  (4) drain again — in deferred mode steps (2)/(3) queued fresh
  //      invalidations owned by this device; they must not outlive it.
  SPV_RETURN_IF_ERROR(iommu_.FenceDevice(device));
  if (entry.driver != nullptr) {
    SPV_RETURN_IF_ERROR(entry.driver->Shutdown());
  }
  Result<uint64_t> revoked = dma_.RevokeDeviceMappings(device, "recovery_quarantine");
  if (!revoked.ok()) {
    return revoked.status();
  }
  iommu_.DrainDeviceInvalidations(device);

  const RecoveryConfig& tune = TuneFor(entry);
  entry.state = DeviceState::kQuarantined;
  entry.quarantine_start = start;
  // First quarantine waits the base backoff; every re-quarantine after a
  // failed probation multiplies it (exponential backoff on a flapping device).
  entry.current_backoff =
      entry.reattach_attempts == 0
          ? tune.reattach_backoff_cycles
          : static_cast<uint64_t>(static_cast<double>(entry.current_backoff) *
                                  tune.backoff_multiplier);
  entry.next_reattach_cycle = clock_.now() + entry.current_backoff;
  ++entry.quarantines;
  ++total_quarantines_;
  Emit(telemetry::EventKind::kDeviceQuarantined, telemetry::Severity::kWarn, device,
       *revoked, telemetry::EventSite::Own(reason));
  if (hub_.enabled()) {
    hub_.counter("recovery.quarantines").Add();
    hub_.histogram("recovery.quarantine_latency_cycles").Record(clock_.now() - start);
    hub_.histogram("recovery.revoked_mappings").Record(*revoked);
  }
  return OkStatus();
}

void RecoveryManager::DoReattach(DeviceId device, Supervised& entry) {
  const RecoveryConfig& tune = TuneFor(entry);
  ++entry.reattach_attempts;
  if (entry.reattach_attempts > tune.max_reattach_attempts) {
    DoDetach(device, entry, "retry budget exhausted");
    return;
  }
  trace::ScopedSpan span(tracer_, "recovery.reattach");
  (void)iommu_.UnfenceDevice(device);
  if (entry.driver != nullptr) {
    // Bring the driver's rings/queues back up. Failures here are not fatal:
    // drivers keep retrying internally, and a still-broken device re-breaches
    // during probation anyway.
    (void)entry.driver->Resume();
  }
  entry.quarantined_cycles += clock_.now() - entry.quarantine_start;
  entry.state = DeviceState::kProbation;
  entry.probation_until = clock_.now() + tune.probation_cycles;
  // Probation starts from a clean score; the breach latch re-arms.
  scorer_.Reset(device);
  Emit(telemetry::EventKind::kDeviceReattached, telemetry::Severity::kInfo, device,
       entry.reattach_attempts, "supervised re-attach");
  if (hub_.enabled()) {
    hub_.counter("recovery.reattach_attempts").Add();
    hub_.histogram("recovery.downtime_cycles")
        .Record(clock_.now() - entry.quarantine_start);
  }
}

Status RecoveryManager::Detach(DeviceId device, std::string_view reason) {
  auto it = devices_.find(device.value);
  if (it == devices_.end()) {
    return NotFound("device not under recovery supervision");
  }
  if (it->second.state == DeviceState::kDetached) {
    return OkStatus();  // idempotent
  }
  // A healthy device must pass through quarantine first so its mappings and
  // rings are torn down before the domain disappears.
  SPV_RETURN_IF_ERROR(DoQuarantine(device, it->second, reason));
  DoDetach(device, it->second, reason);
  return OkStatus();
}

void RecoveryManager::DoDetach(DeviceId device, Supervised& entry,
                               std::string_view reason) {
  trace::ScopedSpan span(tracer_, "recovery.detach");
  (void)iommu_.DetachDevice(device);
  if (entry.state == DeviceState::kQuarantined) {
    entry.quarantined_cycles += clock_.now() - entry.quarantine_start;
  }
  entry.state = DeviceState::kDetached;
  scorer_.Untrack(device);
  ++total_detaches_;
  Emit(telemetry::EventKind::kDeviceDetached, telemetry::Severity::kCritical, device,
       entry.reattach_attempts, telemetry::EventSite::Own(reason));
  if (hub_.enabled()) {
    hub_.counter("recovery.permanent_detaches").Add();
  }
}

uint32_t RecoveryManager::Poll() {
  if (!config_.enabled) {
    return 0;
  }
  uint32_t transitions = 0;
  // (1) Health breaches recorded since the last poll. Probation breaches
  // re-quarantine with the retry budget intact — that is what bounds a
  // flapping device.
  for (DeviceId device : scorer_.TakeBreaches()) {
    auto it = devices_.find(device.value);
    if (it == devices_.end()) {
      continue;
    }
    Supervised& entry = it->second;
    if (entry.state == DeviceState::kHealthy || entry.state == DeviceState::kProbation) {
      const double score = scorer_.ScoreAt(device, clock_.now());
      Emit(telemetry::EventKind::kHealthBreach, telemetry::Severity::kWarn, device,
           static_cast<uint64_t>(score), "health threshold crossed");
      if (hub_.enabled()) {
        hub_.counter("recovery.health_breaches").Add();
      }
      if (DoQuarantine(device, entry, "health breach").ok()) {
        ++transitions;
      }
    }
  }
  // (2) Due re-attaches and (3) probation promotions, in device-id order.
  const uint64_t now = clock_.now();
  for (auto& [id, entry] : devices_) {
    const DeviceId device{id};
    if (entry.state == DeviceState::kQuarantined && now >= entry.next_reattach_cycle) {
      DoReattach(device, entry);
      ++transitions;
    } else if (entry.state == DeviceState::kProbation && now >= entry.probation_until) {
      entry.state = DeviceState::kHealthy;
      entry.reattach_attempts = 0;  // a clean probation restores the budget
      scorer_.Reset(device);
      ++transitions;
    }
  }
  return transitions;
}

RecoveryManager::DeviceStatus RecoveryManager::device_status(DeviceId device) const {
  auto it = devices_.find(device.value);
  if (it == devices_.end()) {
    return DeviceStatus{};
  }
  DeviceStatus out;
  out.state = it->second.state;
  out.reattach_attempts = it->second.reattach_attempts;
  out.quarantines = it->second.quarantines;
  out.quarantined_cycles = it->second.quarantined_cycles;
  if (it->second.state == DeviceState::kQuarantined) {
    out.quarantined_cycles += clock_.now() - it->second.quarantine_start;
  }
  return out;
}

DeviceState RecoveryManager::state(DeviceId device) const {
  auto it = devices_.find(device.value);
  return it == devices_.end() ? DeviceState::kHealthy : it->second.state;
}

uint32_t RecoveryManager::available_devices() const {
  uint32_t count = 0;
  for (const auto& [id, entry] : devices_) {
    if (entry.state == DeviceState::kHealthy || entry.state == DeviceState::kProbation) {
      ++count;
    }
  }
  return count;
}

}  // namespace spv::recovery
