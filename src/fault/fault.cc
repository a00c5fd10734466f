#include "fault/fault.h"

#include <mutex>
#include <string>

#include "base/rng.h"

namespace spv::fault {

namespace {

struct SiteName {
  FaultSite site;
  std::string_view name;
  Site event_site;  // kFaultInjected's site, "fault:<name>"
};

// Declaration order; names are the counter/export vocabulary
// (fault.injected.<name>).
constexpr SiteName kSiteNames[] = {
    {FaultSite::kPageAlloc, "page_alloc", "fault:page_alloc"},
    {FaultSite::kSlabAlloc, "slab_alloc", "fault:slab_alloc"},
    {FaultSite::kPageFragAlloc, "page_frag_alloc", "fault:page_frag_alloc"},
    {FaultSite::kIovaAlloc, "iova_alloc", "fault:iova_alloc"},
    {FaultSite::kIoPageTableMap, "io_page_table_map", "fault:io_page_table_map"},
    {FaultSite::kIotlbInvalidation, "iotlb_invalidation", "fault:iotlb_invalidation"},
    {FaultSite::kNicRxDrop, "nic_rx_drop", "fault:nic_rx_drop"},
    {FaultSite::kNicRxTruncate, "nic_rx_truncate", "fault:nic_rx_truncate"},
    {FaultSite::kNicRxCorrupt, "nic_rx_corrupt", "fault:nic_rx_corrupt"},
    {FaultSite::kNicDescWriteback, "nic_desc_writeback", "fault:nic_desc_writeback"},
    {FaultSite::kNicRxRefillStarve, "nic_rx_refill_starve", "fault:nic_rx_refill_starve"},
    {FaultSite::kNicTxCompletionLoss, "nic_tx_completion_loss",
     "fault:nic_tx_completion_loss"},
    {FaultSite::kNicDeviceStall, "nic_device_stall", "fault:nic_device_stall"},
    {FaultSite::kNvmeSqFetchCorrupt, "nvme_sq_fetch_corrupt", "fault:nvme_sq_fetch_corrupt"},
    {FaultSite::kNvmePrpWild, "nvme_prp_wild", "fault:nvme_prp_wild"},
    {FaultSite::kNvmeCqPhaseFlip, "nvme_cq_phase_flip", "fault:nvme_cq_phase_flip"},
    {FaultSite::kNvmeDoorbellStorm, "nvme_doorbell_storm", "fault:nvme_doorbell_storm"},
    {FaultSite::kNvmeCompletionDrop, "nvme_completion_drop", "fault:nvme_completion_drop"},
    {FaultSite::kNvmeShortTransfer, "nvme_short_transfer", "fault:nvme_short_transfer"},
};

Site FaultEventSite(FaultSite site) {
  for (const SiteName& entry : kSiteNames) {
    if (entry.site == site) {
      return entry.event_site;
    }
  }
  return "fault:?";
}
static_assert(std::size(kSiteNames) == kNumFaultSites);

// One SplitMix64 step over caller-held state (the class keeps its state
// private, and we need to persist it between draws).
uint64_t NextU64(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double NextDouble(uint64_t& state) {
  return static_cast<double>(NextU64(state) >> 11) * 0x1.0p-53;
}

}  // namespace

std::string_view FaultSiteName(FaultSite site) {
  for (const SiteName& entry : kSiteNames) {
    if (entry.site == site) {
      return entry.name;
    }
  }
  return "?";
}

std::optional<FaultSite> FaultSiteFromName(std::string_view name) {
  for (const SiteName& entry : kSiteNames) {
    if (entry.name == name) {
      return entry.site;
    }
  }
  return std::nullopt;
}

FaultPlan& FaultPlan::Probability(FaultSite site, double p, uint64_t max_injections) {
  FaultTrigger& trigger = At(site);
  trigger.mode = FaultTrigger::Mode::kProbability;
  trigger.probability = p;
  trigger.max_injections = max_injections;
  return *this;
}

FaultPlan& FaultPlan::EveryNth(FaultSite site, uint64_t n, uint64_t max_injections) {
  FaultTrigger& trigger = At(site);
  trigger.mode = FaultTrigger::Mode::kEveryNth;
  trigger.n = n == 0 ? 1 : n;
  trigger.max_injections = max_injections;
  return *this;
}

FaultPlan& FaultPlan::OneShot(FaultSite site, uint64_t at_arm) {
  FaultTrigger& trigger = At(site);
  trigger.mode = FaultTrigger::Mode::kOneShot;
  trigger.n = at_arm == 0 ? 1 : at_arm;
  trigger.max_injections = 1;
  return *this;
}

FaultPlan& FaultPlan::Magnitude(FaultSite site, uint64_t magnitude) {
  At(site).magnitude = magnitude;
  return *this;
}

bool FaultPlan::empty() const {
  for (const FaultTrigger& trigger : triggers_) {
    if (trigger.mode != FaultTrigger::Mode::kNever) {
      return false;
    }
  }
  return true;
}

void FaultEngine::Arm(const FaultPlan& plan, uint64_t seed) {
  plan_ = plan;
  stats_ = {};
  // One independent stream per site: the golden-ratio-spaced seeds keep the
  // streams decorrelated even for adjacent site indices.
  SplitMix64 seeder{seed ^ 0x6661756c74ULL};  // "fault"
  for (uint64_t& state : rng_) {
    state = seeder.Next();
  }
  armed_ = !plan_.empty();
}

bool FaultEngine::ShouldInject(FaultSite site) {
  if (!armed_) {
    return false;
  }
  std::lock_guard<MaybeMutex> guard(mu_);
  const size_t index = static_cast<size_t>(site);
  const FaultTrigger& trigger = plan_.trigger(site);
  SiteStats& stats = stats_[index];
  ++stats.arms;
  if (stats.injections >= trigger.max_injections) {
    return false;
  }
  bool fire = false;
  switch (trigger.mode) {
    case FaultTrigger::Mode::kNever:
      break;
    case FaultTrigger::Mode::kProbability:
      fire = NextDouble(rng_[index]) < trigger.probability;
      break;
    case FaultTrigger::Mode::kEveryNth:
      fire = stats.arms % trigger.n == 0;
      break;
    case FaultTrigger::Mode::kOneShot:
      fire = stats.arms == trigger.n;
      break;
  }
  if (!fire) {
    return false;
  }
  ++stats.injections;
  if (hub_ != nullptr && hub_->active()) {
    telemetry::Event event;
    event.kind = telemetry::EventKind::kFaultInjected;
    event.severity = telemetry::Severity::kWarn;
    event.aux = static_cast<uint64_t>(site);
    event.len = trigger.magnitude;
    event.origin = this;
    event.site = FaultEventSite(site);
    hub_->Publish(std::move(event));
    if (hub_->enabled()) {
      hub_->counter(std::string("fault.injected.") + std::string(FaultSiteName(site)))
          .Add();
    }
  }
  return true;
}

uint64_t FaultEngine::magnitude(FaultSite site, uint64_t fallback) const {
  const uint64_t m = plan_.trigger(site).magnitude;
  return m == 0 ? fallback : m;
}

uint64_t FaultEngine::total_injections() const {
  uint64_t total = 0;
  for (const SiteStats& stats : stats_) {
    total += stats.injections;
  }
  return total;
}

}  // namespace spv::fault
