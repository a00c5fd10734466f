#include "trace/tracer.h"

#include <algorithm>

#include "trace/profile.h"

namespace spv::trace {

namespace {

telemetry::Event SpanEvent(const SpanRecord& record, bool open) {
  telemetry::Event event;
  event.kind = open ? telemetry::EventKind::kSpanOpen : telemetry::EventKind::kSpanClose;
  event.severity = telemetry::Severity::kTrace;
  event.addr = record.parent.value;
  event.aux = open ? 0 : record.duration();
  event.flag = record.detached;
  event.span = record.id.value;
  event.site = record.name;
  return event;
}

}  // namespace

Tracer::Tracer(telemetry::Hub& hub, const SimClock& clock, TracerConfig config)
    : hub_(hub), clock_(clock), config_(config) {}

Tracer::~Tracer() {
  // Leave the Hub's span register clean for whoever outlives us.
  hub_.set_current_span(0);
}

SpanRecord* Tracer::Find(SpanId id) {
  if (!id.valid() || id.value > records_.size()) {
    return nullptr;
  }
  return &records_[id.value - 1];
}

SpanId Tracer::Open(Site name) {
  if (!config_.enabled) {
    return kNoSpan;
  }
  if (records_.size() >= config_.max_records) {
    ++dropped_spans_;
    return kNoSpan;
  }
  SpanRecord record;
  record.id = SpanId{records_.size() + 1};
  record.parent = current();
  record.name = name;
  record.open_cycle = clock_.now();
  records_.push_back(record);
  stack_.push_back(record.id);
  hub_.set_current_span(record.id.value);
  if (hub_.active()) {
    hub_.Publish(SpanEvent(record, /*open=*/true));
  }
  return record.id;
}

SpanId Tracer::OpenDetached(Site name, SpanId parent) {
  if (!config_.enabled) {
    return kNoSpan;
  }
  if (records_.size() >= config_.max_records) {
    ++dropped_spans_;
    return kNoSpan;
  }
  SpanRecord record;
  record.id = SpanId{records_.size() + 1};
  record.parent = parent;
  record.name = name;
  record.open_cycle = clock_.now();
  record.detached = true;
  records_.push_back(record);
  // No stack push and no current-span change: a detached span does not
  // adopt the events of whoever happens to run while it is open.
  if (hub_.active()) {
    hub_.Publish(SpanEvent(record, /*open=*/true));
  }
  return record.id;
}

void Tracer::CloseRecord(SpanRecord& record) {
  record.closed = true;
  record.close_cycle = clock_.now();
  if (hub_.active()) {
    hub_.Publish(SpanEvent(record, /*open=*/false));
  }
}

void Tracer::Close(SpanId id) {
  if (!id.valid()) {
    return;  // Open() was disabled or full; matching no-op
  }
  SpanRecord* record = Find(id);
  if (record == nullptr || record->closed) {
    ++orphan_closes_;
    return;
  }
  if (record->detached) {
    CloseRecord(*record);
    return;
  }
  if (std::find(stack_.begin(), stack_.end(), id) == stack_.end()) {
    // A stack span that is neither closed nor on the stack: its subtree was
    // already unwound past it. Count it, close the record, move on.
    ++orphan_closes_;
    CloseRecord(*record);
    return;
  }
  // Close everything opened above `id` first so the stack discipline holds
  // even when an inner span leaks its Close.
  while (!stack_.empty()) {
    const SpanId top = stack_.back();
    stack_.pop_back();
    if (SpanRecord* top_record = Find(top); top_record != nullptr && !top_record->closed) {
      CloseRecord(*top_record);
    }
    if (top == id) {
      break;
    }
  }
  hub_.set_current_span(current().value);
}

std::string Tracer::ChromeTraceJson() const {
  SpanForest forest;
  forest.records = records_;
  forest.total_cycles = clock_.now();
  return trace::ChromeTraceJson(forest,
                                CollectInstants(hub_.ring().Snapshot(),
                                                telemetry::Severity::kWarn));
}

std::string Tracer::CollapsedStacks() const {
  SpanForest forest;
  forest.records = records_;
  forest.total_cycles = clock_.now();
  return trace::CollapsedStacks(forest);
}

}  // namespace spv::trace
