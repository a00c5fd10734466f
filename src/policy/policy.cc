#include "policy/policy.h"

#include <utility>

namespace spv::policy {

std::string_view TrustStateName(TrustState state) {
  switch (state) {
    case TrustState::kUntrusted:
      return "untrusted";
    case TrustState::kProbation:
      return "probation";
    case TrustState::kTrusted:
      return "trusted";
  }
  return "?";
}

void PolicyEngine::TrustSink::OnEvent(const telemetry::Event& event) {
  if (!engine_.config_.enabled || event.device == 0) {
    return;  // unattributed signals cannot indict a device
  }
  switch (event.kind) {
    case telemetry::EventKind::kDeviceQuarantined:
    case telemetry::EventKind::kHealthBreach:
    case telemetry::EventKind::kDkasanReport:
    case telemetry::EventKind::kSpadeFinding:
    case telemetry::EventKind::kStaleIotlbHit:
      if (engine_.devices_.count(event.device) != 0) {
        engine_.pending_demotions_.emplace_back(event.device, event.kind);
      }
      break;
    default:
      break;
  }
}

PolicyEngine::PolicyEngine(iommu::Iommu& iommu, dma::BouncePool& pool, SimClock& clock,
                           telemetry::Hub& hub, Config config)
    : iommu_(iommu),
      pool_(pool),
      clock_(clock),
      hub_(hub),
      config_(std::move(config)),
      sink_(*this) {
  if (config_.enabled) {
    hub_.AddSink(&sink_);
  }
}

PolicyEngine::~PolicyEngine() {
  if (config_.enabled) {
    hub_.RemoveSink(&sink_);
  }
}

const Quirk* PolicyEngine::FindQuirk(const DeviceIdentity& identity) const {
  for (const Quirk& quirk : config_.quirks) {
    const bool model_ok =
        quirk.match_model.empty() || quirk.match_model == identity.model;
    const bool class_ok =
        quirk.match_class.empty() || quirk.match_class == identity.device_class;
    if (model_ok && class_ok) {
      return &quirk;
    }
  }
  return nullptr;
}

recovery::DmaPolicyLimits PolicyEngine::ProbationLimitsFor(const Device& entry) const {
  if (entry.quirk != nullptr && (entry.quirk->probation_limits.poll_deadline_cycles != 0 ||
                                 entry.quirk->probation_limits.ring_limit != 0)) {
    return entry.quirk->probation_limits;
  }
  return config_.probation_limits;
}

void PolicyEngine::ApplyTrust(DeviceId device, Device& entry, TrustState next,
                              std::string_view reason, bool is_promotion) {
  (void)reason;
  (void)is_promotion;
  entry.trust = next;
  // Fast-path privileges are earned: only kTrusted rides the IOVA rcache.
  (void)iommu_.SetDeviceFastPath(device, next == TrustState::kTrusted);
  if (entry.driver != nullptr) {
    // Probation tightens service; any other state restores driver defaults
    // (untrusted devices are already confined by the bounce route).
    entry.driver->ApplyDmaPolicy(next == TrustState::kProbation
                                     ? ProbationLimitsFor(entry)
                                     : recovery::DmaPolicyLimits{});
  }
}

void PolicyEngine::Publish(telemetry::EventKind kind, DeviceId device, TrustState next,
                           bool refused, std::string_view reason) {
  if (!hub_.active()) {
    return;
  }
  telemetry::Event event;
  event.kind = kind;
  event.severity = (kind == telemetry::EventKind::kTrustDemoted || refused)
                       ? telemetry::Severity::kWarn
                       : telemetry::Severity::kInfo;
  event.device = device.value;
  event.aux = static_cast<uint64_t>(next);
  event.flag = refused;
  event.origin = this;
  event.site = telemetry::EventSite::Own(reason);  // the caller's text
  hub_.Publish(std::move(event));
  if (hub_.enabled()) {
    if (refused) {
      hub_.counter("policy.promotions_blocked").Add();
    } else {
      hub_.counter(kind == telemetry::EventKind::kTrustPromoted ? "policy.promotions"
                                                                : "policy.demotions")
          .Add();
    }
  }
}

Status PolicyEngine::RegisterDevice(DeviceId device, DeviceIdentity identity,
                                    recovery::SupervisedDriver* driver) {
  if (!config_.enabled) {
    return FailedPrecondition("trust policy disabled");
  }
  if (devices_.count(device.value) != 0) {
    return FailedPrecondition("device already under trust policy");
  }
  Device entry;
  entry.identity = std::move(identity);
  entry.quirk = FindQuirk(entry.identity);
  entry.driver = driver;
  uint64_t pages = config_.bounce_pages;
  if (entry.quirk != nullptr && entry.quirk->bounce_pages != 0) {
    pages = entry.quirk->bounce_pages;
  }
  // Every device gets a pool at registration, trusted or not: a demotion
  // must be able to divert traffic immediately, without allocating under
  // pressure from the very device being contained.
  SPV_RETURN_IF_ERROR(pool_.AttachDevice(device, pages));
  const TrustState initial =
      entry.quirk != nullptr ? entry.quirk->initial_trust : config_.default_trust;
  auto [it, inserted] = devices_.emplace(device.value, std::move(entry));
  ApplyTrust(device, it->second, initial, "attach", /*is_promotion=*/false);
  if (hub_.enabled()) {
    hub_.counter("policy.registered").Add();
  }
  return OkStatus();
}

Status PolicyEngine::UnregisterDevice(DeviceId device) {
  auto it = devices_.find(device.value);
  if (it == devices_.end()) {
    return NotFound("device not under trust policy");
  }
  pool_.ReleaseAll(device);
  SPV_RETURN_IF_ERROR(pool_.DetachDevice(device));
  devices_.erase(it);
  return OkStatus();
}

Status PolicyEngine::Promote(DeviceId device, std::string_view reason) {
  auto it = devices_.find(device.value);
  if (it == devices_.end()) {
    return NotFound("device not under trust policy");
  }
  Device& entry = it->second;
  if (entry.trust == TrustState::kTrusted) {
    return FailedPrecondition("device already fully trusted");
  }
  const TrustState next = entry.trust == TrustState::kUntrusted ? TrustState::kProbation
                                                                : TrustState::kTrusted;
  if (clock_.now() < entry.cooldown_until) {
    // Hysteresis: a recently demoted device cannot climb back yet, no matter
    // how clean it looks — this is what stops bounce/zero-copy oscillation.
    // The refused event carries the rung the device *asked for*.
    ++entry.promotions_blocked;
    ++total_promotions_blocked_;
    Publish(telemetry::EventKind::kTrustPromoted, device, next,
            /*refused=*/true, reason);
    return FailedPrecondition("promotion refused: hysteresis cooldown");
  }
  ApplyTrust(device, entry, next, reason, /*is_promotion=*/true);
  ++entry.promotions;
  Publish(telemetry::EventKind::kTrustPromoted, device, next, /*refused=*/false, reason);
  return OkStatus();
}

Status PolicyEngine::Demote(DeviceId device, std::string_view reason) {
  auto it = devices_.find(device.value);
  if (it == devices_.end()) {
    return NotFound("device not under trust policy");
  }
  Device& entry = it->second;
  // Arm/refresh the cooldown even when already untrusted: fresh evidence
  // extends the sentence.
  entry.cooldown_until = clock_.now() + config_.promotion_cooldown_cycles;
  if (entry.trust == TrustState::kUntrusted) {
    return OkStatus();
  }
  ApplyTrust(device, entry, TrustState::kUntrusted, reason, /*is_promotion=*/false);
  ++entry.demotions;
  ++total_demotions_;
  Publish(telemetry::EventKind::kTrustDemoted, device, TrustState::kUntrusted,
          /*refused=*/false, reason);
  return OkStatus();
}

uint32_t PolicyEngine::Poll() {
  if (!config_.enabled || pending_demotions_.empty()) {
    return 0;
  }
  // Latched triggers, applied outside the bus callback. The vector is taken
  // first: Demote publishes events, and the sink must not observe its own
  // engine mid-transition.
  std::vector<std::pair<uint32_t, telemetry::EventKind>> triggers;
  triggers.swap(pending_demotions_);
  uint32_t demoted = 0;
  for (const auto& [device, kind] : triggers) {
    auto it = devices_.find(device);
    if (it == devices_.end()) {
      continue;  // unplugged since the trigger latched
    }
    const bool was_direct = it->second.trust != TrustState::kUntrusted;
    if (Demote(DeviceId{device}, telemetry::EventKindName(kind)).ok() && was_direct) {
      ++demoted;
    }
  }
  return demoted;
}

bool PolicyEngine::ShouldBounce(DeviceId device) const {
  if (!config_.enabled) {
    return false;
  }
  auto it = devices_.find(device.value);
  return it != devices_.end() && it->second.trust == TrustState::kUntrusted;
}

TrustState PolicyEngine::state(DeviceId device) const {
  auto it = devices_.find(device.value);
  // Unregistered devices are outside the policy's remit; they behave as
  // trusted (ShouldBounce=false) so pre-policy setups are unchanged.
  return it == devices_.end() ? TrustState::kTrusted : it->second.trust;
}

PolicyEngine::DeviceStatus PolicyEngine::device_status(DeviceId device) const {
  auto it = devices_.find(device.value);
  if (it == devices_.end()) {
    return DeviceStatus{TrustState::kTrusted, 0, 0, 0, 0};
  }
  const Device& entry = it->second;
  DeviceStatus out;
  out.trust = entry.trust;
  out.demotions = entry.demotions;
  out.promotions = entry.promotions;
  out.promotions_blocked = entry.promotions_blocked;
  const uint64_t now = clock_.now();
  out.cooldown_remaining = entry.cooldown_until > now ? entry.cooldown_until - now : 0;
  return out;
}

std::string PolicyEngine::PostureJson(const std::string& indent) const {
  // HSI-style posture: one deterministic JSON object answering "how exposed
  // is this machine". Key order is fixed; devices_ is an ordered map.
  std::string out;
  const std::string i1 = indent + "  ";
  const std::string i2 = indent + "    ";
  const std::string i3 = indent + "      ";
  out += indent + "{\n";
  out += i1 + "\"invalidation\": \"" + iommu::InvalidationModeName(iommu_.mode()) + "\",\n";
  out += i1 + std::string("\"strict_invalidation\": ") +
         (iommu_.mode() == iommu::InvalidationMode::kStrict ? "true" : "false") + ",\n";
  const iommu::FastPathConfig& fp = iommu_.fast_path();
  out += i1 + std::string("\"iova_rcache\": ") + (fp.rcache_enabled ? "true" : "false") +
         ",\n";
  out += i1 + std::string("\"policy_enabled\": ") + (config_.enabled ? "true" : "false") +
         ",\n";
  out += i1 + "\"default_trust\": \"" + std::string(TrustStateName(config_.default_trust)) +
         "\",\n";
  out += i1 + std::string("\"recovery_supervision\": ") +
         (recovery_ != nullptr && recovery_->enabled() ? "true" : "false") + ",\n";
  out += i1 + "\"promotion_cooldown_cycles\": " +
         std::to_string(config_.promotion_cooldown_cycles) + ",\n";
  out += i1 + "\"total_demotions\": " + std::to_string(total_demotions_) + ",\n";
  out += i1 + "\"total_promotions_blocked\": " + std::to_string(total_promotions_blocked_) +
         ",\n";
  out += i1 + "\"devices\": [";
  bool first = true;
  for (const auto& [id, entry] : devices_) {
    const DeviceId device{id};
    out += first ? "\n" : ",\n";
    first = false;
    out += i2 + "{\n";
    out += i3 + "\"id\": " + std::to_string(id) + ",\n";
    out += i3 + "\"model\": \"" + telemetry::JsonEscape(entry.identity.model) + "\",\n";
    out += i3 + "\"class\": \"" + telemetry::JsonEscape(entry.identity.device_class) +
           "\",\n";
    out += i3 + "\"trust\": \"" + std::string(TrustStateName(entry.trust)) + "\",\n";
    out += i3 + std::string("\"fast_path\": ") +
           (iommu_.device_fast_path(device) ? "true" : "false") + ",\n";
    out += i3 + "\"bounce_pool_pages\": " + std::to_string(pool_.pool_pages(device)) +
           ",\n";
    out += i3 + "\"active_bounces\": " + std::to_string(pool_.active_bounces(device)) +
           ",\n";
    // Degraded-service stats: which protocol the device would run under
    // right now, and how much sync-ring traffic it has actually served.
    const dma::ServiceMode mode =
        ShouldBounce(device) ? dma::ServiceMode::kBounceSync : dma::ServiceMode::kZeroCopy;
    out += i3 + "\"service_mode\": \"" + std::string(dma::ServiceModeName(mode)) + "\",\n";
    out += i3 + "\"persistent_bounces\": " +
           std::to_string(pool_.persistent_bounces(device)) + ",\n";
    out += i3 + "\"bounce_syncs_for_cpu\": " + std::to_string(pool_.syncs_for_cpu(device)) +
           ",\n";
    out += i3 + "\"bounce_syncs_for_device\": " +
           std::to_string(pool_.syncs_for_device(device)) + ",\n";
    out += i3 + "\"demotions\": " + std::to_string(entry.demotions) + ",\n";
    out += i3 + "\"promotions\": " + std::to_string(entry.promotions) + ",\n";
    out += i3 + "\"promotions_blocked\": " + std::to_string(entry.promotions_blocked) +
           ",\n";
    const uint64_t now = clock_.now();
    out += i3 + "\"cooldown_remaining_cycles\": " +
           std::to_string(entry.cooldown_until > now ? entry.cooldown_until - now : 0) +
           ",\n";
    if (recovery_ != nullptr) {
      const recovery::RecoveryManager::DeviceStatus rs = recovery_->device_status(device);
      out += i3 + "\"recovery_state\": \"" +
             std::string(recovery::DeviceStateName(rs.state)) + "\",\n";
      out += i3 + "\"quarantines\": " + std::to_string(rs.quarantines) + "\n";
    } else {
      out += i3 + "\"recovery_state\": \"unsupervised\",\n";
      out += i3 + "\"quarantines\": 0\n";
    }
    out += i2 + "}";
  }
  out += first ? "]\n" : "\n" + i1 + "]\n";
  out += indent + "}";
  return out;
}

}  // namespace spv::policy
