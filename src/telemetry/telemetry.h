// spv::telemetry — the one instrumentation spine of the simulated host.
//
// Every layer (IOMMU, IOTLB, DMA API, slab, page_frag, NIC driver, network
// stack, attacks, D-KASAN, SPADE) publishes events through a single Hub
// instead of keeping private tallies. The Hub provides:
//
//   * typed Counters and log2-bucketed Histograms, registered by name in a
//     deterministic (sorted) registry;
//   * a fixed-capacity single-writer trace ring of timestamped Events with
//     severity filtering and drop accounting — overwritten slots are counted,
//     never silently lost;
//   * deterministic JSON / CSV exporters (sorted names, fixed field order, no
//     wall-clock time) that benches consume instead of ad-hoc tallies, and
//     that tools/trace_cli replays as a timeline.
//
// The Hub is also the fan-out path for functional observers: the classic
// DmaObserver / SlabObserver interfaces are bridged onto EventSinks (see
// dma/observer.h, slab/observer.h), so D-KASAN and telemetry ride the same
// dispatch. Sinks always receive events; *recording* (ring + counters) is
// gated by `enabled` so a disabled Hub with no sinks costs one branch per
// emit site (components guard with `active()` before building an Event).
//
// An observed event costs no heap. Event::site is an EventSite: a borrowed
// view of a name that lives for the process (a string literal or a
// spv::Site, such as the per-queue names drivers intern at construction),
// so publishing, recording in the ring and fanning out copy two words. Only
// text built from run-time values — attack-stage narration, D-KASAN report
// lines, SPADE findings, operator-supplied reasons, rows parsed back from a
// CSV — owns storage, through EventSite::Own(); see DESIGN.md §6.

#ifndef SPV_TELEMETRY_TELEMETRY_H_
#define SPV_TELEMETRY_TELEMETRY_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "base/clock.h"
#include "base/maybe_mutex.h"
#include "base/site.h"
#include "base/spsc_ring.h"

namespace spv::telemetry {

// ---- Events --------------------------------------------------------------------

enum class Severity : uint8_t {
  kTrace = 0,     // high-frequency plumbing (CPU accesses, slab traffic)
  kInfo = 1,      // normal operation milestones (maps, packets, flushes)
  kWarn = 2,      // suspicious (IOMMU faults, TX resets, attack stages)
  kCritical = 3,  // security findings (stale IOTLB hits, D-KASAN reports)
};

std::string_view SeverityName(Severity severity);
std::optional<Severity> SeverityFromName(std::string_view name);

enum class EventKind : uint8_t {
  // DMA API layer.
  kDmaMap,
  kDmaUnmap,
  kDmaSync,
  kCpuAccess,
  // IOMMU / IOTLB.
  kIotlbInvalidate,
  kIommuFlush,
  kIommuFault,
  kStaleIotlbHit,
  // Allocators.
  kSlabAlloc,
  kSlabFree,
  kFragAlloc,
  kFragFree,
  // NIC driver / network stack.
  kNicRx,
  kNicTx,
  kNicTxReset,
  kXdpDrop,
  kXdpTx,
  kStackDeliver,
  kStackForward,
  kStackDrop,
  kStackSend,
  kStackEcho,
  // Analyses and attack harnesses.
  kAttackStage,
  kDkasanReport,
  kSpadeFinding,
  // Fault injection (spv::fault) and the recovery paths it exercises.
  kFaultInjected,   // the engine fired a fault at an instrumented site
  kFaultRecovered,  // a consumer recovered (refill retry, TX requeue, ...)
  kNicRxError,      // driver dropped a completion (bad length, device fault)
  // Causal span layer (spv::trace). Span events carry their own id in
  // `span`, the parent id in `addr`, and the span name in `site`.
  kSpanOpen,
  kSpanClose,
  // Vulnerability windows (trace::WindowTracker). `addr2` is the IOVA page,
  // `aux` the open duration in cycles on close.
  kWindowOpen,
  kWindowClose,
  // Device lifecycle supervision (spv::recovery). `device` names the device;
  // `aux` carries the health score (breach) or the re-attach attempt count.
  kHealthBreach,        // health score crossed the quarantine threshold
  kDeviceQuarantined,   // mappings revoked, DMA fenced, rings torn down
  kDeviceReattached,    // supervised re-attach placed the device on probation
  kDeviceDetached,      // retry budget exhausted; permanently detached
  kDeviceFencedAccess,  // a fenced device attempted DMA (post-quarantine)
  kNicPollDeadline,     // a driver polling loop hit its bounded deadline
  // NVMe block driver / controller (spv::nvme). `aux` carries the CID on
  // submit/complete; `len` the transfer bytes.
  kNvmeSubmit,           // SQE written and the SQ doorbell rung
  kNvmeComplete,         // a valid CQE matched an outstanding command
  kNvmeCompletionError,  // CQE rejected (bad CID / phase / status / short)
  kNvmeQueueReset,       // watchdog flushed an IO queue and re-initialized it
  kNvmePollDeadline,     // a CQ polling loop hit its bounded deadline
  // Device trust policy (spv::policy). `aux` carries the new TrustState on
  // transitions; `flag` marks a refusal (hysteresis cooldown) on promote.
  kTrustPromoted,   // device moved up the trust ladder (or a refusal, flag=1)
  kTrustDemoted,    // device dropped back behind bounce buffers
  // Bounce-buffer pool (dma::BouncePool). `addr` is the original KVA, `addr2`
  // the bounce IOVA; `aux` carries the copy cycles spent.
  kBounceMap,
  kBounceUnmap,
  // Incident forensics (spv::forensics). `aux` carries the inferred attack
  // class on kIncidentReport; `site` the trigger / classification name.
  kIncidentOpen,    // a trigger event froze the flight-recorder evidence
  kIncidentReport,  // the incident report was sealed and classified
  // Sync-mode bounce rings (degraded service). Same field layout as
  // kBounceMap/kBounceUnmap: `addr` the original KVA, `addr2` the bounce
  // IOVA, `aux` the copy cycles spent by the sync.
  kBounceSyncCpu,     // bounce slot copied out so the CPU sees device writes
  kBounceSyncDevice,  // bounce slot scrubbed/copied in and re-armed for DMA
};

std::string_view EventKindName(EventKind kind);
// The same name as a Site, for events that carry a kind name as their site.
Site EventKindSite(EventKind kind);
std::optional<EventKind> EventKindFromName(std::string_view name);

// The site an Event carries.
//
//  * A name that lives for the process — a string literal or any spv::Site —
//    is borrowed: the EventSite is a view, and copying it copies two words.
//  * Run-time text is wrapped with Own(), which copies it once into a
//    shared, immutable buffer. Every copy of the event (the trace ring slot,
//    the kThreads SPSC hop, a Snapshot, a D-KASAN or forensics record) shares
//    that buffer, so the text outlives its emitter. Own() is for text that
//    differs from event to event (it carries addresses or counts); it never
//    goes through Site::Intern, whose table is never freed.
//
// A std::string or std::string_view does not convert, so an emitter cannot
// put a view of a temporary on the bus by accident.
class EventSite {
 public:
  EventSite() = default;
  EventSite(Site site) : view_(site) {}  // NOLINT(google-explicit-constructor)
  template <size_t N>
  EventSite(const char (&literal)[N])  // NOLINT(google-explicit-constructor)
      : view_(literal) {}

  // Owned run-time text: the concatenation of `parts`, in one allocation.
  static EventSite Own(std::initializer_list<std::string_view> parts);
  static EventSite Own(std::string_view text) { return Own({text}); }

  std::string_view view() const { return view_; }
  operator std::string_view() const { return view_; }  // NOLINT
  bool empty() const { return view_.empty(); }
  // True when this site owns run-time text rather than borrowing a name.
  bool owned() const { return text_ != nullptr; }

  friend bool operator==(const EventSite& site, std::string_view name) {
    return site.view_ == name;
  }
  friend std::ostream& operator<<(std::ostream& out, const EventSite& site);

 private:
  std::string_view view_;
  std::shared_ptr<const char[]> text_;  // null for a borrowed name
};

// One timestamped record. Field meaning is kind-specific but consistent:
// `addr` is the primary (kernel-virtual) address, `addr2` the secondary
// address (usually the IOVA), `aux` carries rights / kinds / counts and
// `flag` a kind-specific boolean (is_write, success, ...).
struct Event {
  uint64_t seq = 0;    // stamped by the trace ring; monotonic, never reset
  uint64_t cycle = 0;  // SimClock time, stamped by the Hub when bound
  EventKind kind = EventKind::kDmaMap;
  Severity severity = Severity::kInfo;
  uint32_t device = 0;
  uint64_t addr = 0;
  uint64_t addr2 = 0;
  uint64_t len = 0;
  uint64_t aux = 0;
  bool flag = false;
  // Causal span id (spv::trace). 0 = no enclosing span. Stamped by the Hub
  // from its current-span register when the emitter leaves it 0.
  uint64_t span = 0;
  // The emitting component, for observer bridging (never exported). Lets one
  // Hub serve several DmaApis / pools without cross-talk between bridges.
  const void* origin = nullptr;
  // Call site or free-form detail: a borrowed name, or owned run-time text
  // (see EventSite). Slab, frag and DMA-map events always borrow, so
  // observers may keep those views for as long as the process runs.
  EventSite site;
};

// A consumer on the bus. Sinks see every published Event regardless of the
// Hub's enabled flag — functional consumers (D-KASAN) must not go blind when
// recording is off.
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void OnEvent(const Event& event) = 0;
};

// ---- Metrics -------------------------------------------------------------------

// Counters are relaxed atomics so cached Counter* pointers (the idiom every
// hot component uses) stay valid bump targets from concurrent sim CPUs in
// ExecMode::kThreads. Relaxed is enough: counters are statistics, read only
// at quiescence or for monotonic progress checks.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter& other) : value_(other.value()) {}
  Counter& operator=(const Counter& other) {
    value_.store(other.value(), std::memory_order_relaxed);
    return *this;
  }

  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Set(uint64_t v) { value_.store(v, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// log2-bucketed histogram: bucket i counts samples whose bit width is i
// (bucket 0 holds v == 0). Upper bound of bucket i>0 is 2^i - 1.
class Histogram {
 public:
  static constexpr size_t kBuckets = 65;

  void Record(uint64_t v);

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t min() const { return count_ ? min_ : 0; }
  uint64_t max() const { return max_; }
  double Mean() const;
  // Upper bound of the bucket containing the p-th percentile (p in [0,100]).
  uint64_t PercentileUpperBound(double p) const;

  // The summary quantiles every consumer wants, derived once here instead of
  // re-derived by hand in each bench. Quantiles are bucket upper bounds
  // (nearest-rank over the log2 buckets), matching PercentileUpperBound.
  struct Summary {
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t min = 0;
    uint64_t max = 0;
    double mean = 0.0;
    uint64_t p50 = 0;
    uint64_t p90 = 0;
    uint64_t p99 = 0;
  };
  Summary Summarize() const;

  struct Bucket {
    uint64_t upper_bound;
    uint64_t count;
  };
  std::vector<Bucket> NonZeroBuckets() const;

  Histogram() = default;
  // Copyable for map emplacement; the spinlock is per-instance state, not data.
  Histogram(const Histogram& other)
      : buckets_(other.buckets_),
        count_(other.count_),
        sum_(other.sum_),
        min_(other.min_),
        max_(other.max_) {}

 private:
  // Record is a multi-field update; a spinlock keeps concurrent recorders
  // (kThreads mode) consistent at ~1 uncontended RMW of cost. Readers run at
  // quiescence (after workers join), so the read side stays lock-free.
  std::array<uint64_t, kBuckets> buckets_{};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = UINT64_MAX;
  uint64_t max_ = 0;
  std::atomic_flag record_lock_ = ATOMIC_FLAG_INIT;
};

// ---- Trace ring ----------------------------------------------------------------

// Fixed-capacity single-writer ring. The slot array is reserved once, at the
// first push, so an idle ring costs no memory and a filling ring never
// relocates its slots; slots are appended until the ring is full and from
// then on the push path overwrites in place (slot index is seq % capacity)
// and accounts the oldest record as dropped. Reserving writes no slot, so
// the pages behind the array are touched only as records land. A severity
// floor filters before recording.
class TraceRing {
 public:
  explicit TraceRing(size_t capacity);

  void set_min_severity(Severity severity) { min_severity_ = severity; }
  Severity min_severity() const { return min_severity_; }

  // Returns true if the event was recorded (not severity-filtered).
  bool Push(const Event& event);

  // Live records, oldest first.
  std::vector<Event> Snapshot() const;

  size_t capacity() const { return capacity_; }
  size_t size() const { return slots_.size(); }
  uint64_t recorded() const { return next_seq_; }
  // Overwritten (lost) records, total and per overwritten-record severity.
  // A full ring churning kTrace events must not mask the loss of a kCritical
  // security finding, so drops are accounted by what was overwritten.
  uint64_t dropped() const;
  uint64_t dropped(Severity severity) const {
    return dropped_by_severity_[static_cast<size_t>(severity)];
  }
  uint64_t filtered() const { return filtered_; }

  void Clear();

 private:
  size_t capacity_;
  std::vector<Event> slots_;  // reserved to capacity_ at the first push, then wraps
  uint64_t next_seq_ = 0;  // count of accepted events; next slot = seq % capacity
  uint64_t filtered_ = 0;
  std::array<uint64_t, 4> dropped_by_severity_{};
  Severity min_severity_ = Severity::kTrace;
};

// ---- Hub -----------------------------------------------------------------------

class Hub {
 public:
  struct Config {
    bool enabled = false;  // recording off by default: zero-cost instrumentation
    size_t ring_capacity = 4096;
    Severity min_severity = Severity::kTrace;
  };

  Hub();  // all-default Config
  explicit Hub(Config config);
  ~Hub();

  Hub(const Hub&) = delete;
  Hub& operator=(const Hub&) = delete;

  // Events are stamped with clock->now() once a clock is bound.
  void BindClock(const SimClock* clock) { clock_ = clock; }

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  // True if Publish would do any work — emit sites guard Event construction
  // with this so a disabled Hub with no sinks costs one branch.
  bool active() const { return enabled_ || !sinks_.empty(); }

  // Records (when enabled), then fans out to every sink (always). In MT mode
  // (EnableMt) the calling sim CPU instead stamps the cycle from its per-CPU
  // clock and pushes into its own SPSC ring — wait-free — and the single
  // drainer performs the recording/fan-out with the sequential code path.
  void Publish(Event event);

  // ---- kThreads support ----------------------------------------------------------
  // One SPSC ring per producer (sim CPU); a single drainer merges them into
  // the ordinary dispatch path, so the trace ring and sinks stay
  // single-writer. Full rings drop (with accounting) rather than block: the
  // telemetry hot path must stay wait-free under contention.

  // Must be called at machine bring-up, before any worker thread publishes.
  void EnableMt(uint32_t num_producers);
  bool mt() const { return mt_; }

  // Drainer lifecycle; Machine::RunOnCpus brackets parallel sections with
  // these. StopDrainer performs a final drain, so after it returns every
  // published event has been recorded or accounted as dropped.
  void StartDrainer();
  void StopDrainer();
  // Consumer-side merge of all producer rings; returns events dispatched.
  // Single-consumer: only the drainer thread (or the coordinator while no
  // drainer runs) may call this.
  size_t DrainMtRings();
  // Events lost to full producer rings.
  uint64_t mt_dropped() const { return mt_dropped_.load(std::memory_order_relaxed); }

  // Current-span register (spv::trace::Tracer maintains it). Publish stamps
  // `event.span` from it when the emitter left the field 0, so every event
  // inside an open span is causally linked without per-site plumbing.
  void set_current_span(uint64_t span) { current_span_ = span; }
  uint64_t current_span() const { return current_span_; }

  void AddSink(EventSink* sink);
  void RemoveSink(EventSink* sink);
  size_t sink_count() const { return sinks_.size(); }

  // Named metrics. References are stable for the Hub's lifetime.
  Counter& counter(std::string_view name);
  Histogram& histogram(std::string_view name);
  // Value of a counter, or 0 when it was never touched (read-only lookup).
  uint64_t counter_value(std::string_view name) const;

  const std::map<std::string, Counter, std::less<>>& counters() const { return counters_; }
  const std::map<std::string, Histogram, std::less<>>& histograms() const {
    return histograms_;
  }
  TraceRing& ring() { return ring_; }
  const TraceRing& ring() const { return ring_; }

  // ---- Deterministic exporters -------------------------------------------------
  // Sorted names, fixed field order, simulated time only: identical runs
  // produce byte-identical output.

  // Counters + histograms + trace (events included up to `max_trace_events`).
  std::string ExportJson(size_t max_trace_events = SIZE_MAX) const;
  // "name,value" per counter.
  std::string ExportCountersCsv() const;
  // One CSV row per ring event; consumed by tools/trace_cli.
  std::string ExportTraceCsv() const;

 private:
  // Sequential dispatch: span stamping, ring recording, sink fan-out. The
  // direct Publish path in sequential mode; the drainer's merge path in MT.
  void Dispatch(Event event);

  bool enabled_;
  const SimClock* clock_ = nullptr;
  uint64_t current_span_ = 0;
  TraceRing ring_;
  std::vector<EventSink*> sinks_;
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Histogram, std::less<>> histograms_;
  // MT state. registry_mu_ guards only the *structure* of the metric maps
  // (lazy name registration); the Counters/Histograms themselves are
  // internally synchronized, so cached references stay lock-free.
  bool mt_ = false;
  mutable MaybeMutex registry_mu_;
  std::vector<std::unique_ptr<SpscRing<Event>>> mt_rings_;
  std::atomic<uint64_t> mt_dropped_{0};
  std::atomic<bool> drainer_stop_{false};
  std::thread drainer_;
};

// A named Hub metric bumped on a per-op path. The name is looked up on the
// first bump and the metric cached, so later bumps skip the registry's
// string-keyed map and its lock. Lookup is deferred to the first bump, not
// done at attach, so a metric that never fires is never registered and the
// exports list exactly the metrics `hub.counter(name).Add()` in the same
// place would. The cache is keyed by the hub, so an owner that switches hubs
// needs no reset.
template <typename Metric>
class CachedMetric {
 public:
  explicit constexpr CachedMetric(std::string_view name) : name_(name) {}

  Metric& Get(Hub& hub) {
    if (hub_.load() != &hub) {
      if constexpr (std::is_same_v<Metric, Counter>) {
        metric_.store(&hub.counter(name_));
      } else {
        metric_.store(&hub.histogram(name_));
      }
      hub_.store(&hub);
    }
    return *metric_.load();
  }

 private:
  std::string_view name_;
  std::atomic<Hub*> hub_{nullptr};
  std::atomic<Metric*> metric_{nullptr};
};
using CachedCounter = CachedMetric<Counter>;
using CachedHistogram = CachedMetric<Histogram>;

// CSV-escapes `field` (quotes it when it contains a comma, quote or newline).
std::string CsvEscape(std::string_view field);
// JSON string escaping (quotes, backslashes, control characters).
std::string JsonEscape(std::string_view text);

// Parses `Hub::ExportTraceCsv` output back into Events (the inverse of the
// exporter; shared by tools/trace_cli and tests). Accepts both the current
// 12-column format (with `span`) and the pre-span 11-column format. Rows
// that do not parse are skipped; a missing/foreign header line is tolerated.
std::vector<Event> ParseTraceCsv(std::string_view csv);

}  // namespace spv::telemetry

#endif  // SPV_TELEMETRY_TELEMETRY_H_
