// spv::trace — causal spans over the telemetry Hub.
//
// A span brackets one multi-step operation (a DMA map, a packet's trip
// through NIC and stack, an IOTLB flush drain, an attack stage, a detector
// scan). Opening a span publishes a kSpanOpen event and sets the Hub's
// current-span register, so every event emitted until the matching Close is
// causally linked to it via Event::span — no per-site plumbing. Closing
// publishes kSpanClose with the open duration in `aux`.
//
// Ids are deterministic: the n-th span opened on a Tracer gets id n. Since
// the whole simulation is seeded and the clock is logical, two identical runs
// produce identical span trees — the property the regression tests pin.
//
// Cost model: emit sites hold a `Tracer*` that is null (or disabled) when
// tracing is off, so the disabled hot path pays exactly one pointer test —
// the same guard shape as the `hub && hub->active()` telemetry gates. With
// tracing on, a span costs no heap either: span names are Sites (string
// literals at every Open), so a SpanRecord and its kSpanOpen/kSpanClose
// events borrow the name instead of copying it. Records rebuilt from a
// parsed trace (BuildSpanForest) share the events' owned text.

#ifndef SPV_TRACE_TRACER_H_
#define SPV_TRACE_TRACER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/clock.h"
#include "telemetry/telemetry.h"

namespace spv::trace {

// Strongly typed span id. 0 is "no span" (kNoSpan): events outside any span
// carry it, and a Tracer that is disabled or full hands it out so callers
// need no error path.
struct SpanId {
  uint64_t value = 0;
  bool valid() const { return value != 0; }
  friend bool operator==(SpanId a, SpanId b) { return a.value == b.value; }
  friend bool operator!=(SpanId a, SpanId b) { return a.value != b.value; }
};

inline constexpr SpanId kNoSpan{};

struct SpanRecord {
  SpanId id;
  SpanId parent;        // kNoSpan for roots
  telemetry::EventSite name;  // borrowed Site, or text shared with a parsed event
  uint64_t open_cycle = 0;
  uint64_t close_cycle = 0;
  bool closed = false;
  // Detached spans (vulnerability windows) live outside the call stack: they
  // do not nest under the opener and are excluded from flamegraph self time.
  bool detached = false;

  uint64_t duration() const { return closed ? close_cycle - open_cycle : 0; }
};

struct TracerConfig {
  bool enabled = false;          // spans off by default, like Hub recording
  size_t max_records = 1 << 20;  // bound on retained SpanRecords
  // Install a WindowTracker sink on the Machine's hub (vulnerability-window
  // accounting). Read by core::Machine, not by the Tracer itself.
  bool track_windows = true;
};

// Single-owner span registry. Not thread-safe (the simulator is
// single-threaded; CpuId is data, not a thread).
class Tracer {
 public:
  Tracer(telemetry::Hub& hub, const SimClock& clock, TracerConfig config);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return config_.enabled; }

  // Opens a span nested under the currently open one (stack discipline).
  // Returns kNoSpan when disabled or when max_records is exhausted.
  SpanId Open(Site name);

  // Opens a span with an explicit parent, outside the stack — for windows
  // and other operations whose lifetime does not follow call structure.
  SpanId OpenDetached(Site name, SpanId parent = kNoSpan);

  // Closes `id`. Spans still open above it on the stack are closed first
  // (implicit close, same cycle) so the stack discipline self-heals. Closing
  // kNoSpan is a no-op; closing an unknown or already-closed id is counted
  // in orphan_closes() and otherwise ignored.
  void Close(SpanId id);

  // Stack top, or kNoSpan.
  SpanId current() const { return stack_.empty() ? kNoSpan : stack_.back(); }

  const std::vector<SpanRecord>& records() const { return records_; }
  uint64_t orphan_closes() const { return orphan_closes_; }
  uint64_t dropped_spans() const { return dropped_spans_; }

  // Exporters over this Tracer's own records (see profile.h for the
  // event-stream variants used by trace_cli).
  std::string ChromeTraceJson() const;
  std::string CollapsedStacks() const;

  telemetry::Hub& hub() { return hub_; }

 private:
  SpanRecord* Find(SpanId id);
  void CloseRecord(SpanRecord& record);

  telemetry::Hub& hub_;
  const SimClock& clock_;
  TracerConfig config_;
  std::vector<SpanRecord> records_;  // id n lives at records_[n - 1]
  std::vector<SpanId> stack_;
  uint64_t orphan_closes_ = 0;
  uint64_t dropped_spans_ = 0;
};

// RAII span. Tolerates a null tracer so emit sites can hold an unconditional
// ScopedSpan — the null/disabled case costs one branch.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, Site name)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
        id_(tracer_ != nullptr ? tracer_->Open(name) : kNoSpan) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->Close(id_);
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  SpanId id() const { return id_; }

 private:
  Tracer* tracer_;
  SpanId id_;
};

}  // namespace spv::trace

#endif  // SPV_TRACE_TRACER_H_
