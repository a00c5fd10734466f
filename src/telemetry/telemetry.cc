#include "telemetry/telemetry.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <ostream>

#include "base/exec.h"

namespace spv::telemetry {

namespace {

struct KindName {
  EventKind kind;
  Site name;
};

// Kept in declaration order; names are the stable export vocabulary.
constexpr KindName kKindNames[] = {
    {EventKind::kDmaMap, "dma_map"},
    {EventKind::kDmaUnmap, "dma_unmap"},
    {EventKind::kDmaSync, "dma_sync"},
    {EventKind::kCpuAccess, "cpu_access"},
    {EventKind::kIotlbInvalidate, "iotlb_invalidate"},
    {EventKind::kIommuFlush, "iommu_flush"},
    {EventKind::kIommuFault, "iommu_fault"},
    {EventKind::kStaleIotlbHit, "stale_iotlb_hit"},
    {EventKind::kSlabAlloc, "slab_alloc"},
    {EventKind::kSlabFree, "slab_free"},
    {EventKind::kFragAlloc, "frag_alloc"},
    {EventKind::kFragFree, "frag_free"},
    {EventKind::kNicRx, "nic_rx"},
    {EventKind::kNicTx, "nic_tx"},
    {EventKind::kNicTxReset, "nic_tx_reset"},
    {EventKind::kXdpDrop, "xdp_drop"},
    {EventKind::kXdpTx, "xdp_tx"},
    {EventKind::kStackDeliver, "stack_deliver"},
    {EventKind::kStackForward, "stack_forward"},
    {EventKind::kStackDrop, "stack_drop"},
    {EventKind::kStackSend, "stack_send"},
    {EventKind::kStackEcho, "stack_echo"},
    {EventKind::kAttackStage, "attack_stage"},
    {EventKind::kDkasanReport, "dkasan_report"},
    {EventKind::kSpadeFinding, "spade_finding"},
    {EventKind::kFaultInjected, "fault_injected"},
    {EventKind::kFaultRecovered, "fault_recovered"},
    {EventKind::kNicRxError, "nic_rx_error"},
    {EventKind::kSpanOpen, "span_open"},
    {EventKind::kSpanClose, "span_close"},
    {EventKind::kWindowOpen, "window_open"},
    {EventKind::kWindowClose, "window_close"},
    {EventKind::kHealthBreach, "health_breach"},
    {EventKind::kDeviceQuarantined, "device_quarantined"},
    {EventKind::kDeviceReattached, "device_reattached"},
    {EventKind::kDeviceDetached, "device_detached"},
    {EventKind::kDeviceFencedAccess, "device_fenced_access"},
    {EventKind::kNicPollDeadline, "nic_poll_deadline"},
    {EventKind::kNvmeSubmit, "nvme_submit"},
    {EventKind::kNvmeComplete, "nvme_complete"},
    {EventKind::kNvmeCompletionError, "nvme_completion_error"},
    {EventKind::kNvmeQueueReset, "nvme_queue_reset"},
    {EventKind::kNvmePollDeadline, "nvme_poll_deadline"},
    {EventKind::kTrustPromoted, "trust_promoted"},
    {EventKind::kTrustDemoted, "trust_demoted"},
    {EventKind::kBounceMap, "bounce_map"},
    {EventKind::kBounceUnmap, "bounce_unmap"},
    {EventKind::kIncidentOpen, "incident_open"},
    {EventKind::kIncidentReport, "incident_report"},
    {EventKind::kBounceSyncCpu, "bounce_sync_cpu"},
    {EventKind::kBounceSyncDevice, "bounce_sync_device"},
};

constexpr std::string_view kSeverityNames[] = {"trace", "info", "warn", "critical"};

}  // namespace

std::string_view SeverityName(Severity severity) {
  const auto index = static_cast<size_t>(severity);
  return index < std::size(kSeverityNames) ? kSeverityNames[index] : "?";
}

std::optional<Severity> SeverityFromName(std::string_view name) {
  for (size_t i = 0; i < std::size(kSeverityNames); ++i) {
    if (kSeverityNames[i] == name) {
      return static_cast<Severity>(i);
    }
  }
  return std::nullopt;
}

std::string_view EventKindName(EventKind kind) { return EventKindSite(kind); }

Site EventKindSite(EventKind kind) {
  for (const KindName& entry : kKindNames) {
    if (entry.kind == kind) {
      return entry.name;
    }
  }
  return "?";
}

std::optional<EventKind> EventKindFromName(std::string_view name) {
  for (const KindName& entry : kKindNames) {
    if (entry.name == name) {
      return entry.kind;
    }
  }
  return std::nullopt;
}

// ---- EventSite -----------------------------------------------------------------

EventSite EventSite::Own(std::initializer_list<std::string_view> parts) {
  size_t size = 0;
  for (std::string_view part : parts) {
    size += part.size();
  }
  EventSite site;
  if (size == 0) {
    return site;
  }
  std::shared_ptr<char[]> text = std::make_shared_for_overwrite<char[]>(size);
  char* at = text.get();
  for (std::string_view part : parts) {
    std::memcpy(at, part.data(), part.size());
    at += part.size();
  }
  site.view_ = std::string_view(text.get(), size);
  site.text_ = std::move(text);
  return site;
}

std::ostream& operator<<(std::ostream& out, const EventSite& site) { return out << site.view_; }

// ---- Histogram -----------------------------------------------------------------

void Histogram::Record(uint64_t v) {
  while (record_lock_.test_and_set(std::memory_order_acquire)) {
  }
  ++buckets_[static_cast<size_t>(std::bit_width(v))];
  ++count_;
  sum_ += v;
  min_ = std::min(min_, v);
  max_ = std::max(max_, v);
  record_lock_.clear(std::memory_order_release);
}

double Histogram::Mean() const {
  return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
}

uint64_t Histogram::PercentileUpperBound(double p) const {
  if (count_ == 0) {
    return 0;
  }
  p = std::clamp(p, 0.0, 100.0);
  // Rank of the percentile sample (1-based, ceiling — the "nearest rank"
  // definition, deterministic for integer counts).
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>((p / 100.0) * static_cast<double>(count_) + 0.9999999));
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      return i == 0 ? 0 : (i >= 64 ? UINT64_MAX : (uint64_t{1} << i) - 1);
    }
  }
  return max_;
}

Histogram::Summary Histogram::Summarize() const {
  Summary s;
  s.count = count_;
  s.sum = sum_;
  s.min = min();
  s.max = max_;
  s.mean = Mean();
  s.p50 = PercentileUpperBound(50.0);
  s.p90 = PercentileUpperBound(90.0);
  s.p99 = PercentileUpperBound(99.0);
  return s;
}

std::vector<Histogram::Bucket> Histogram::NonZeroBuckets() const {
  std::vector<Bucket> out;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] != 0) {
      const uint64_t upper = i == 0 ? 0 : (i >= 64 ? UINT64_MAX : (uint64_t{1} << i) - 1);
      out.push_back(Bucket{upper, buckets_[i]});
    }
  }
  return out;
}

// ---- TraceRing -----------------------------------------------------------------

TraceRing::TraceRing(size_t capacity) : capacity_(std::max<size_t>(capacity, 1)) {}

bool TraceRing::Push(const Event& event) {
  if (event.severity < min_severity_) {
    ++filtered_;
    return false;
  }
  Event* slot;
  if (slots_.size() < capacity_) {
    if (slots_.capacity() < capacity_) {
      slots_.reserve(capacity_);
    }
    slot = &slots_.emplace_back(event);
  } else {
    // Overwriting a live record: account the loss under the severity of what
    // is being lost, not of what is being written.
    slot = &slots_[next_seq_ % capacity_];
    ++dropped_by_severity_[static_cast<size_t>(slot->severity)];
    *slot = event;
  }
  slot->seq = next_seq_;
  ++next_seq_;
  return true;
}

uint64_t TraceRing::dropped() const {
  uint64_t total = 0;
  for (uint64_t d : dropped_by_severity_) {
    total += d;
  }
  return total;
}

std::vector<Event> TraceRing::Snapshot() const {
  std::vector<Event> out;
  out.reserve(size());
  const uint64_t first = next_seq_ > capacity_ ? next_seq_ - capacity_ : 0;
  for (uint64_t seq = first; seq < next_seq_; ++seq) {
    out.push_back(slots_[seq % capacity_]);
  }
  return out;
}

void TraceRing::Clear() {
  slots_.clear();
  next_seq_ = 0;
  filtered_ = 0;
  dropped_by_severity_.fill(0);
}

// ---- Hub -----------------------------------------------------------------------

Hub::Hub() : Hub(Config{}) {}

Hub::Hub(Config config) : enabled_(config.enabled), ring_(config.ring_capacity) {
  ring_.set_min_severity(config.min_severity);
}

Hub::~Hub() { StopDrainer(); }

void Hub::Publish(Event event) {
  if (clock_ != nullptr && event.cycle == 0) {
    // Producer-side stamp: in MT mode this reads the calling sim CPU's own
    // clock (thread-local routing), so timestamps stay meaningful even
    // though the drainer dispatches later.
    event.cycle = clock_->now();
  }
  if (mt_) {
    auto& ring = *mt_rings_[CurrentCpu().value % mt_rings_.size()];
    if (!ring.TryPush(std::move(event))) {
      mt_dropped_.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }
  Dispatch(std::move(event));
}

void Hub::Dispatch(Event event) {
  if (event.span == 0) {
    event.span = current_span_;
  }
  if (enabled_) {
    ring_.Push(event);  // stamps seq on its own slot; sinks see seq 0
  }
  for (EventSink* sink : sinks_) {
    sink->OnEvent(event);
  }
}

void Hub::EnableMt(uint32_t num_producers) {
  assert(!mt_ && "EnableMt is one-way and must precede worker start");
  // Sized for bursts: a worker can publish a few events per simulated op and
  // the drainer may lag a whole scheduling quantum on a loaded host.
  constexpr size_t kPerProducerRing = 16384;
  mt_rings_.clear();
  const uint32_t producers = std::max<uint32_t>(num_producers, 1);
  mt_rings_.reserve(producers);
  for (uint32_t i = 0; i < producers; ++i) {
    mt_rings_.push_back(std::make_unique<SpscRing<Event>>(kPerProducerRing));
  }
  registry_mu_.Engage();
  mt_ = true;
}

size_t Hub::DrainMtRings() {
  size_t drained = 0;
  Event event;
  for (auto& ring : mt_rings_) {
    while (ring->TryPop(&event)) {
      Dispatch(std::move(event));
      ++drained;
    }
  }
  return drained;
}

void Hub::StartDrainer() {
  if (!mt_ || drainer_.joinable()) {
    return;
  }
  drainer_stop_.store(false, std::memory_order_release);
  drainer_ = std::thread([this] {
    while (!drainer_stop_.load(std::memory_order_acquire)) {
      if (DrainMtRings() == 0) {
        std::this_thread::yield();
      }
    }
  });
}

void Hub::StopDrainer() {
  if (!drainer_.joinable()) {
    return;
  }
  drainer_stop_.store(true, std::memory_order_release);
  drainer_.join();
  // Producers have joined before StopDrainer (RunOnCpus ordering), so this
  // final sweep leaves every ring empty.
  DrainMtRings();
}

void Hub::AddSink(EventSink* sink) {
  assert(sink != nullptr);
  sinks_.push_back(sink);
}

void Hub::RemoveSink(EventSink* sink) {
  sinks_.erase(std::remove(sinks_.begin(), sinks_.end(), sink), sinks_.end());
}

Counter& Hub::counter(std::string_view name) {
  std::lock_guard<MaybeMutex> guard(registry_mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), Counter{}).first;
  }
  return it->second;
}

Histogram& Hub::histogram(std::string_view name) {
  std::lock_guard<MaybeMutex> guard(registry_mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), Histogram{}).first;
  }
  return it->second;
}

uint64_t Hub::counter_value(std::string_view name) const {
  std::lock_guard<MaybeMutex> guard(registry_mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.value();
}

}  // namespace spv::telemetry
