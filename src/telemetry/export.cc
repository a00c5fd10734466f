// Deterministic exporters for the telemetry Hub.
//
// Determinism contract: registry maps iterate in sorted name order, events in
// seq order, every number is an integer (no locale / float formatting), and
// nothing derived from wall-clock time or pointers is emitted. Two identical
// simulations therefore export byte-identical documents — the property the
// bench harness and the regression tests rely on.

#include <sstream>

#include "telemetry/telemetry.h"

namespace spv::telemetry {

std::string CsvEscape(std::string_view field) {
  const bool needs_quotes =
      field.find_first_of(",\"\n\r") != std::string_view::npos;
  if (!needs_quotes) {
    return std::string(field);
  }
  std::string out;
  out.reserve(field.size() + 2);
  out.push_back('"');
  for (char c : field) {
    if (c == '"') {
      out.push_back('"');
    }
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out.push_back(kHex[(c >> 4) & 0xf]);
          out.push_back(kHex[c & 0xf]);
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

namespace {

void AppendEventJson(std::ostringstream& out, const Event& event) {
  out << "{\"seq\":" << event.seq << ",\"cycle\":" << event.cycle << ",\"kind\":\""
      << EventKindName(event.kind) << "\",\"severity\":\"" << SeverityName(event.severity)
      << "\",\"device\":" << event.device << ",\"addr\":" << event.addr
      << ",\"addr2\":" << event.addr2 << ",\"len\":" << event.len << ",\"aux\":" << event.aux
      << ",\"flag\":" << (event.flag ? 1 : 0) << ",\"span\":" << event.span << ",\"site\":\""
      << JsonEscape(event.site) << "\"}";
}

}  // namespace

std::string Hub::ExportJson(size_t max_trace_events) const {
  std::ostringstream out;
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    out << (first ? "\n" : ",\n") << "    \"" << JsonEscape(name)
        << "\": " << counter.value();
    first = false;
  }
  out << (first ? "}" : "\n  }") << ",\n  \"histograms\": {";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    out << (first ? "\n" : ",\n") << "    \"" << JsonEscape(name)
        << "\": {\"count\":" << histogram.count() << ",\"sum\":" << histogram.sum()
        << ",\"min\":" << histogram.min() << ",\"max\":" << histogram.max()
        << ",\"p50\":" << histogram.PercentileUpperBound(50.0)
        << ",\"p90\":" << histogram.PercentileUpperBound(90.0)
        << ",\"p99\":" << histogram.PercentileUpperBound(99.0) << ",\"buckets\":[";
    bool first_bucket = true;
    for (const Histogram::Bucket& bucket : histogram.NonZeroBuckets()) {
      out << (first_bucket ? "" : ",") << "[" << bucket.upper_bound << "," << bucket.count
          << "]";
      first_bucket = false;
    }
    out << "]}";
    first = false;
  }
  // `dropped_critical` is the fail-loud field: a nonzero value means security
  // findings were overwritten and the export below is an incomplete record.
  out << (first ? "}" : "\n  }") << ",\n  \"trace\": {\"recorded\":" << ring_.recorded()
      << ",\"dropped\":" << ring_.dropped()
      << ",\"dropped_critical\":" << ring_.dropped(Severity::kCritical)
      << ",\"dropped_by_severity\":[" << ring_.dropped(Severity::kTrace) << ","
      << ring_.dropped(Severity::kInfo) << "," << ring_.dropped(Severity::kWarn) << ","
      << ring_.dropped(Severity::kCritical) << "]"
      << ",\"filtered\":" << ring_.filtered() << ",\"events\":[";
  const std::vector<Event> events = ring_.Snapshot();
  size_t emitted = 0;
  for (const Event& event : events) {
    if (emitted >= max_trace_events) {
      break;
    }
    out << (emitted == 0 ? "\n    " : ",\n    ");
    AppendEventJson(out, event);
    ++emitted;
  }
  out << (emitted == 0 ? "]" : "\n  ]") << "}\n}\n";
  return out.str();
}

std::string Hub::ExportCountersCsv() const {
  std::ostringstream out;
  out << "name,value\n";
  for (const auto& [name, counter] : counters_) {
    out << CsvEscape(name) << "," << counter.value() << "\n";
  }
  return out.str();
}

std::string Hub::ExportTraceCsv() const {
  std::ostringstream out;
  out << "seq,cycle,kind,severity,device,addr,addr2,len,aux,flag,span,site\n";
  for (const Event& event : ring_.Snapshot()) {
    out << event.seq << "," << event.cycle << "," << EventKindName(event.kind) << ","
        << SeverityName(event.severity) << "," << event.device << "," << event.addr << ","
        << event.addr2 << "," << event.len << "," << event.aux << "," << (event.flag ? 1 : 0)
        << "," << event.span << "," << CsvEscape(event.site) << "\n";
  }
  return out.str();
}

// ---- Trace CSV import ------------------------------------------------------------

namespace {

// Splits one CSV record into fields, honoring double-quoted fields with ""
// escapes (the exact dialect CsvEscape emits).
std::vector<std::string> SplitCsvFields(std::string_view line) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current.push_back(c);
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      fields.push_back(std::move(current));
      current.clear();
    } else if (c != '\r') {
      current.push_back(c);
    }
  }
  fields.push_back(std::move(current));
  return fields;
}

bool ParseU64(const std::string& text, uint64_t* out) {
  if (text.empty()) {
    return false;
  }
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') {
      return false;
    }
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = value;
  return true;
}

}  // namespace

std::vector<Event> ParseTraceCsv(std::string_view csv) {
  std::vector<Event> events;
  size_t pos = 0;
  while (pos < csv.size()) {
    size_t end = csv.find('\n', pos);
    if (end == std::string_view::npos) {
      end = csv.size();
    }
    const std::string_view line = csv.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line.substr(0, 4) == "seq,") {
      continue;  // blank line or header
    }
    const std::vector<std::string> fields = SplitCsvFields(line);
    if (fields.size() != 12) {
      continue;
    }
    Event event;
    uint64_t device = 0;
    uint64_t flag = 0;
    const std::optional<EventKind> kind = EventKindFromName(fields[2]);
    const std::optional<Severity> severity = SeverityFromName(fields[3]);
    if (!kind.has_value() || !severity.has_value() || !ParseU64(fields[0], &event.seq) ||
        !ParseU64(fields[1], &event.cycle) || !ParseU64(fields[4], &device) ||
        !ParseU64(fields[5], &event.addr) || !ParseU64(fields[6], &event.addr2) ||
        !ParseU64(fields[7], &event.len) || !ParseU64(fields[8], &event.aux) ||
        !ParseU64(fields[9], &flag) || !ParseU64(fields[10], &event.span)) {
      continue;
    }
    event.kind = *kind;
    event.severity = *severity;
    event.device = static_cast<uint32_t>(device);
    event.flag = flag != 0;
    event.site = EventSite::Own(fields[11]);
    events.push_back(std::move(event));
  }
  return events;
}

}  // namespace spv::telemetry
