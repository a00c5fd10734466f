#include "trace/profile.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <unordered_map>

namespace spv::trace {

namespace {

// Duration with still-open spans clipped at the forest horizon.
uint64_t EffectiveDuration(const SpanRecord& record, uint64_t total_cycles) {
  if (record.closed) {
    return record.close_cycle - record.open_cycle;
  }
  return total_cycles > record.open_cycle ? total_cycles - record.open_cycle : 0;
}

std::unordered_map<uint64_t, size_t> IndexById(const SpanForest& forest) {
  std::unordered_map<uint64_t, size_t> index;
  index.reserve(forest.records.size());
  for (size_t i = 0; i < forest.records.size(); ++i) {
    index.emplace(forest.records[i].id.value, i);
  }
  return index;
}

bool InMask(const std::unordered_set<uint64_t>& mask, uint64_t id) {
  return mask.empty() || mask.count(id) != 0;
}

}  // namespace

SpanForest BuildSpanForest(const std::vector<telemetry::Event>& events) {
  SpanForest forest;
  std::unordered_map<uint64_t, size_t> index;
  for (const telemetry::Event& event : events) {
    forest.total_cycles = std::max(forest.total_cycles, event.cycle);
    if (event.kind == telemetry::EventKind::kSpanOpen ||
        event.kind == telemetry::EventKind::kWindowOpen) {
      if (event.span == 0 || index.count(event.span) != 0) {
        continue;  // malformed or duplicate open
      }
      SpanRecord record;
      record.id = SpanId{event.span};
      record.parent = SpanId{event.addr};
      record.name = event.site;
      record.open_cycle = event.cycle;
      record.detached =
          event.flag || event.kind == telemetry::EventKind::kWindowOpen;
      index.emplace(event.span, forest.records.size());
      forest.records.push_back(std::move(record));
    } else if (event.kind == telemetry::EventKind::kSpanClose ||
               event.kind == telemetry::EventKind::kWindowClose) {
      if (event.span == 0) {
        continue;
      }
      auto it = index.find(event.span);
      if (it == index.end()) {
        // The open was overwritten in the ring; recover it from the close
        // record's duration (aux).
        SpanRecord record;
        record.id = SpanId{event.span};
        record.parent = SpanId{event.addr};
        record.name = event.site;
        record.open_cycle = event.cycle >= event.aux ? event.cycle - event.aux : 0;
        record.detached =
            event.flag || event.kind == telemetry::EventKind::kWindowClose;
        record.close_cycle = event.cycle;
        record.closed = true;
        index.emplace(event.span, forest.records.size());
        forest.records.push_back(std::move(record));
        continue;
      }
      SpanRecord& record = forest.records[it->second];
      if (!record.closed) {
        record.close_cycle = event.cycle;
        record.closed = true;
      }
    }
  }
  return forest;
}

std::vector<Instant> CollectInstants(const std::vector<telemetry::Event>& events,
                                     telemetry::Severity min_severity) {
  std::vector<Instant> instants;
  for (const telemetry::Event& event : events) {
    switch (event.kind) {
      case telemetry::EventKind::kSpanOpen:
      case telemetry::EventKind::kSpanClose:
      case telemetry::EventKind::kWindowOpen:
      case telemetry::EventKind::kWindowClose:
        continue;  // structure, not payload
      default:
        break;
    }
    if (event.severity < min_severity) {
      continue;
    }
    Instant instant;
    instant.cycle = event.cycle;
    instant.name = std::string(telemetry::EventKindName(event.kind));
    instant.detail = event.site.view();
    instant.span = event.span;
    instants.push_back(std::move(instant));
  }
  return instants;
}

std::unordered_set<uint64_t> SubtreeMask(const SpanForest& forest, SpanId root) {
  std::unordered_set<uint64_t> mask;
  if (!root.valid()) {
    return mask;
  }
  mask.insert(root.value);
  // Children always appear after their parent (open order), so one forward
  // pass closes the subtree.
  for (const SpanRecord& record : forest.records) {
    if (record.parent.valid() && mask.count(record.parent.value) != 0) {
      mask.insert(record.id.value);
    }
  }
  return mask;
}

std::string ChromeTraceJson(const SpanForest& forest, const std::vector<Instant>& instants,
                            const std::unordered_set<uint64_t>& mask) {
  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"timebase\":\"sim_cycles\"},"
      << "\"traceEvents\":[\n"
      << "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
         "\"args\":{\"name\":\"spv-sim\"}},\n"
      << "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\","
         "\"args\":{\"name\":\"spans\"}},\n"
      << "{\"ph\":\"M\",\"pid\":1,\"tid\":2,\"name\":\"thread_name\","
         "\"args\":{\"name\":\"windows\"}}";
  for (const SpanRecord& record : forest.records) {
    if (!InMask(mask, record.id.value)) {
      continue;
    }
    const std::string name = telemetry::JsonEscape(record.name);
    if (record.detached) {
      out << ",\n{\"name\":\"" << name << "\",\"cat\":\"window\",\"ph\":\"b\",\"id\":"
          << record.id.value << ",\"ts\":" << record.open_cycle
          << ",\"pid\":1,\"tid\":2,\"args\":{\"parent\":" << record.parent.value << "}}";
      out << ",\n{\"name\":\"" << name << "\",\"cat\":\"window\",\"ph\":\"e\",\"id\":"
          << record.id.value << ",\"ts\":"
          << (record.closed ? record.close_cycle : forest.total_cycles)
          << ",\"pid\":1,\"tid\":2,\"args\":{}}";
    } else {
      out << ",\n{\"name\":\"" << name << "\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":"
          << record.open_cycle << ",\"dur\":" << EffectiveDuration(record, forest.total_cycles)
          << ",\"pid\":1,\"tid\":1,\"args\":{\"span\":" << record.id.value
          << ",\"parent\":" << record.parent.value << "}}";
    }
  }
  for (const Instant& instant : instants) {
    if (!mask.empty() && mask.count(instant.span) == 0) {
      continue;
    }
    out << ",\n{\"name\":\"" << telemetry::JsonEscape(instant.name)
        << "\",\"cat\":\"instant\",\"ph\":\"i\",\"ts\":" << instant.cycle
        << ",\"pid\":1,\"tid\":1,\"s\":\"t\",\"args\":{\"detail\":\""
        << telemetry::JsonEscape(instant.detail) << "\",\"span\":" << instant.span << "}}";
  }
  out << "\n]}\n";
  return out.str();
}

std::string CollapsedStacks(const SpanForest& forest,
                            const std::unordered_set<uint64_t>& mask) {
  const std::unordered_map<uint64_t, size_t> index = IndexById(forest);

  // Cycles consumed by a span's own (non-detached) children; self = total −
  // this, never negative (clock skew cannot happen, but clipped horizons can
  // make an unclosed child appear longer than its unclosed parent).
  std::unordered_map<uint64_t, uint64_t> child_total;
  for (const SpanRecord& record : forest.records) {
    if (record.detached || !record.parent.valid()) {
      continue;
    }
    child_total[record.parent.value] += EffectiveDuration(record, forest.total_cycles);
  }

  std::map<std::string, uint64_t> lines;  // sorted, deterministic output
  for (const SpanRecord& record : forest.records) {
    if (record.detached || !InMask(mask, record.id.value)) {
      continue;
    }
    const uint64_t total = EffectiveDuration(record, forest.total_cycles);
    const auto child_it = child_total.find(record.id.value);
    const uint64_t children = child_it == child_total.end() ? 0 : child_it->second;
    const uint64_t self = total > children ? total - children : 0;
    if (self == 0) {
      continue;
    }
    // Build the semicolon path root-first by walking parents.
    std::vector<std::string_view> path;
    path.push_back(record.name);
    SpanId cursor = record.parent;
    size_t guard = 0;
    while (cursor.valid() && guard++ < forest.records.size()) {
      auto it = index.find(cursor.value);
      if (it == index.end()) {
        break;
      }
      const SpanRecord& ancestor = forest.records[it->second];
      if (!ancestor.detached) {
        path.push_back(ancestor.name);
      }
      cursor = ancestor.parent;
    }
    std::string line;
    for (auto it = path.rbegin(); it != path.rend(); ++it) {
      if (!line.empty()) {
        line.push_back(';');
      }
      line.append(*it);
    }
    lines[line] += self;
  }

  std::ostringstream out;
  for (const auto& [path, self] : lines) {
    out << path << " " << self << "\n";
  }
  return out.str();
}

Attribution AttributedCycles(const SpanForest& forest) {
  Attribution result;
  result.total_cycles = forest.total_cycles;
  for (const SpanRecord& record : forest.records) {
    if (record.detached || record.parent.valid()) {
      continue;  // only non-detached roots cover the timeline
    }
    result.attributed_cycles += EffectiveDuration(record, forest.total_cycles);
  }
  result.attributed_cycles = std::min(result.attributed_cycles, result.total_cycles);
  result.fraction = result.total_cycles == 0
                        ? 0.0
                        : static_cast<double>(result.attributed_cycles) /
                              static_cast<double>(result.total_cycles);
  return result;
}

}  // namespace spv::trace
