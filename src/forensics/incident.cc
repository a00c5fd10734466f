#include "forensics/incident.h"

#include <algorithm>

namespace spv::forensics {

namespace {

class SpinGuard {
 public:
  explicit SpinGuard(std::atomic_flag& flag) : flag_(flag) {
    while (flag_.test_and_set(std::memory_order_acquire)) {
    }
  }
  ~SpinGuard() { flag_.clear(std::memory_order_release); }

 private:
  std::atomic_flag& flag_;
};

bool LifetimesOverlap(const MappingLife& a, const MappingLife& b) {
  const uint64_t a_end = a.unmap_cycle == 0 ? UINT64_MAX : a.unmap_cycle;
  const uint64_t b_end = b.unmap_cycle == 0 ? UINT64_MAX : b.unmap_cycle;
  return a.map_cycle <= b_end && b.map_cycle <= a_end;
}

bool LiveAt(const MappingLife& life, uint64_t cycle) {
  return life.map_cycle <= cycle &&
         (life.unmap_cycle == 0 || cycle <= life.unmap_cycle);
}

// The sub-page byte range a life occupies inside its first KVA page.
void SubPageRange(const MappingLife& life, uint64_t* begin, uint64_t* end) {
  *begin = life.kva & kPageMask;
  const uint64_t span = *begin + life.len;
  *end = span < kPageSize ? span : kPageSize;
}

// Provenance split for the out-of-range READ classes: a metadata segment
// carved from the page-frag pool (PRP lists and kin) names class (b); a
// plain co-located slab buffer names class (d).
bool LooksLikeMetaSegment(const MappingLife& life) {
  if (life.len != 0 && life.len <= 256) {
    return true;
  }
  return life.site.find("prp") != std::string::npos ||
         life.site.find("seg") != std::string::npos ||
         life.site.find("frag") != std::string::npos;
}

std::string NullIfEmpty(std::string json) {
  return json.empty() ? std::string("null") : json;
}

void AppendRecordJson(std::string& out, const FlightRecord& r) {
  out += "{\"cycle\":" + std::to_string(r.cycle) +
         ",\"cpu\":" + std::to_string(r.cpu) + ",\"op\":\"" +
         std::string(RecordOpName(r.op)) +
         "\",\"iova\":" + std::to_string(r.iova) +
         ",\"gpa\":" + std::to_string(r.gpa) +
         ",\"len\":" + std::to_string(r.len) +
         ",\"dir\":" + std::to_string(r.dir) +
         ",\"bounced\":" + (r.bounced ? "true" : "false") +
         ",\"generation\":" + std::to_string(r.generation) + "}";
}

void AppendLifeJson(std::string& out, const MappingLife& life) {
  out += "{\"generation\":" + std::to_string(life.generation) +
         ",\"iova\":" + std::to_string(life.iova) +
         ",\"kva\":" + std::to_string(life.kva) +
         ",\"len\":" + std::to_string(life.len) +
         ",\"dir\":" + std::to_string(life.dir) +
         ",\"bounced\":" + (life.bounced ? "true" : "false") + ",\"site\":\"" +
         telemetry::JsonEscape(life.site) +
         "\",\"map_cycle\":" + std::to_string(life.map_cycle) +
         ",\"unmap_cycle\":" + std::to_string(life.unmap_cycle) +
         ",\"flush_cycle\":" + std::to_string(life.flush_cycle) +
         ",\"accesses\":" + std::to_string(life.accesses) +
         ",\"stale_hits\":" + std::to_string(life.stale_hits) +
         ",\"faults\":" + std::to_string(life.faults) + "}";
}

}  // namespace

std::string_view AttackClassName(AttackClass c) {
  switch (c) {
    case AttackClass::kUnknown:
      return "unknown";
    case AttackClass::kClassA:
      return "class_a";
    case AttackClass::kClassB:
      return "class_b";
    case AttackClass::kClassC:
      return "class_c";
    case AttackClass::kClassD:
      return "class_d";
    case AttackClass::kPoisonedCompletion:
      return "poisoned_completion";
  }
  return "unknown";
}

AttackClass ClassifyEvidence(const std::vector<FlightRecord>& timeline,
                             const std::vector<MappingLife>& ledger,
                             size_t* implicated_out) {
  size_t implicated = SIZE_MAX;
  if (implicated_out != nullptr) {
    *implicated_out = SIZE_MAX;
  }

  auto find_generation = [&](uint64_t generation) -> size_t {
    for (size_t i = 0; i < ledger.size(); ++i) {
      if (ledger[i].generation == generation) {
        return i;
      }
    }
    return SIZE_MAX;
  };

  // Rule 1 — a translation served after its unmap is the stale window the
  // poisoned-completion storage attack (and the Fig. 6 replay) rides.
  for (auto it = timeline.rbegin(); it != timeline.rend(); ++it) {
    if (it->op == RecordOp::kStaleHit) {
      if (implicated_out != nullptr) {
        *implicated_out = find_generation(it->generation);
      }
      return AttackClass::kPoisonedCompletion;
    }
  }

  // Rule 2 — double mapping: lives A (retired) and B (the survivor) shared a
  // KVA page under distinct IOVA pages, and after A's unmap the device
  // reached A's sub-page byte range through B's IOVA page.
  for (size_t a = 0; a < ledger.size(); ++a) {
    const MappingLife& dead = ledger[a];
    if (dead.unmap_cycle == 0) {
      continue;
    }
    for (size_t b = 0; b < ledger.size(); ++b) {
      const MappingLife& alias = ledger[b];
      if (a == b || (dead.kva & ~kPageMask) != (alias.kva & ~kPageMask) ||
          (dead.iova & ~kPageMask) == (alias.iova & ~kPageMask) ||
          !LifetimesOverlap(dead, alias)) {
        continue;
      }
      uint64_t dead_begin = 0;
      uint64_t dead_end = 0;
      SubPageRange(dead, &dead_begin, &dead_end);
      for (const FlightRecord& r : timeline) {
        if ((r.op != RecordOp::kDeviceRead && r.op != RecordOp::kDeviceWrite) ||
            r.cycle < dead.unmap_cycle || !LiveAt(alias, r.cycle) ||
            (r.iova & ~kPageMask) != (alias.iova & ~kPageMask)) {
          continue;
        }
        const uint64_t off = r.iova & kPageMask;
        if (off < dead_end && off + r.len > dead_begin) {
          if (implicated_out != nullptr) {
            *implicated_out = b;
          }
          return AttackClass::kClassC;
        }
      }
    }
  }

  // Rules 3/4 — ownerless accesses touching a live mapping's IOVA page: the
  // sub-page co-location classes. generation == 0 already means no live
  // mapping contained the access, so any overlap with a live life's page is
  // by definition a reach *outside* that life's byte range — both the
  // disjoint probe (WriteU64 off the end) and the page-wide scan
  // (ReadPageQwords) that spans the mapped bytes and their neighbours.
  auto out_of_range_neighbour = [&](const FlightRecord& r) -> size_t {
    if (r.generation != 0) {
      return SIZE_MAX;  // served by a live mapping: in-range traffic
    }
    for (size_t i = 0; i < ledger.size(); ++i) {
      const MappingLife& life = ledger[i];
      if (LiveAt(life, r.cycle) &&
          (life.iova & ~kPageMask) == (r.iova & ~kPageMask)) {
        return i;
      }
    }
    return SIZE_MAX;
  };
  for (auto it = timeline.rbegin(); it != timeline.rend(); ++it) {
    if (it->op != RecordOp::kDeviceWrite) {
      continue;
    }
    if (const size_t neighbour = out_of_range_neighbour(*it); neighbour != SIZE_MAX) {
      if (implicated_out != nullptr) {
        *implicated_out = neighbour;
      }
      return AttackClass::kClassA;
    }
  }
  for (auto it = timeline.rbegin(); it != timeline.rend(); ++it) {
    if (it->op != RecordOp::kDeviceRead) {
      continue;
    }
    if (const size_t neighbour = out_of_range_neighbour(*it); neighbour != SIZE_MAX) {
      if (implicated_out != nullptr) {
        *implicated_out = neighbour;
      }
      return LooksLikeMetaSegment(ledger[neighbour]) ? AttackClass::kClassB
                                                     : AttackClass::kClassD;
    }
  }

  if (implicated_out != nullptr) {
    *implicated_out = implicated;
  }
  return AttackClass::kUnknown;
}

IncidentEngine::IncidentEngine(telemetry::Hub& hub, FlightRecorder* recorder,
                               const SimClock* clock, ForensicsConfig config)
    : hub_(hub), recorder_(recorder), clock_(clock), config_(config) {
  if (config_.timeline_limit == 0) {
    config_.timeline_limit = 1;
  }
}

void IncidentEngine::OnEvent(const telemetry::Event& event) {
  switch (event.kind) {
    case telemetry::EventKind::kDkasanReport:
    case telemetry::EventKind::kSpadeFinding:
    case telemetry::EventKind::kStaleIotlbHit:
    case telemetry::EventKind::kHealthBreach:
    case telemetry::EventKind::kDeviceQuarantined:
    case telemetry::EventKind::kTrustDemoted:
      break;
    default:
      return;  // includes our own kIncidentOpen/kIncidentReport: no recursion
  }
  Freeze(DeviceId{event.device}, telemetry::EventKindName(event.kind), event.site,
         /*manual=*/false);
}

void IncidentEngine::OpenIncident(DeviceId device, std::string_view reason) {
  Freeze(device, "manual", reason, /*manual=*/true);
}

void IncidentEngine::Freeze(DeviceId device, std::string_view trigger,
                            std::string_view reason, bool manual) {
  const uint64_t now = clock_->now();
  Incident incident;
  {
    SpinGuard guard(lock_);
    if (incidents_.size() >= config_.max_incidents) {
      ++suppressed_;
      return;
    }
    if (!manual) {
      const auto key = std::make_pair(device.value, std::string(trigger));
      const auto it = last_trigger_cycle_.find(key);
      if (it != last_trigger_cycle_.end() &&
          now - it->second < config_.cooldown_cycles) {
        ++suppressed_;
        return;
      }
      last_trigger_cycle_[key] = now;
    }
    incident.id = next_id_++;
  }

  incident.cycle = now;
  incident.device = device.value;
  incident.trigger.assign(trigger);
  incident.reason.assign(reason);
  if (recorder_ != nullptr) {
    std::vector<FlightRecord> full = recorder_->SnapshotTimeline(device);
    incident.ledger = recorder_->SnapshotLedger(device);
    incident.inferred = ClassifyEvidence(full, incident.ledger, &incident.implicated);
    if (full.size() > config_.timeline_limit) {
      full.erase(full.begin(), full.end() - config_.timeline_limit);
    }
    incident.timeline = std::move(full);
  }
  const uint64_t from =
      incident.timeline.empty() ? now : incident.timeline.front().cycle;
  incident.windows_json =
      tracker_ != nullptr ? WindowsJson(device.value, from, now) : "[]";
  incident.trust_json = trust_ ? NullIfEmpty(trust_(device.value)) : "null";
  incident.recovery_json =
      recovery_ ? NullIfEmpty(recovery_(device.value)) : "null";

  const uint64_t id = incident.id;
  const AttackClass inferred = incident.inferred;
  {
    SpinGuard guard(lock_);
    incidents_.push_back(std::move(incident));
  }

  // Announce on the bus — outside the engine lock, and only in sequential
  // dispatch: an MT-mode publish from the drainer thread would make the
  // producer rings multi-writer. In MT runs the report itself is the signal.
  if (hub_.active() && !hub_.mt()) {
    telemetry::Event open;
    open.kind = telemetry::EventKind::kIncidentOpen;
    open.severity = telemetry::Severity::kWarn;
    open.device = device.value;
    open.aux = id;
    open.flag = manual;
    open.site.assign(trigger);
    hub_.Publish(std::move(open));

    telemetry::Event sealed;
    sealed.kind = telemetry::EventKind::kIncidentReport;
    sealed.severity = telemetry::Severity::kCritical;
    sealed.device = device.value;
    sealed.aux = static_cast<uint64_t>(inferred);
    sealed.flag = manual;
    sealed.site.assign(AttackClassName(inferred));
    hub_.Publish(std::move(sealed));
  }
}

std::string IncidentEngine::WindowsJson(uint32_t device, uint64_t from_cycle,
                                        uint64_t to_cycle) const {
  std::string out = "[";
  bool first = true;
  for (const trace::Window& w : tracker_->windows()) {
    if (w.device != device || w.open_cycle > to_cycle ||
        (!w.open && w.close_cycle < from_cycle)) {
      continue;
    }
    if (!first) {
      out += ",";
    }
    first = false;
    out += "{\"kind\":\"" + std::string(trace::WindowKindName(w.kind)) +
           "\",\"iova_page\":" + std::to_string(w.iova_page) +
           ",\"pages\":" + std::to_string(w.pages) +
           ",\"exposed_bytes\":" + std::to_string(w.exposed_bytes) +
           ",\"open_cycle\":" + std::to_string(w.open_cycle) +
           ",\"close_cycle\":" + std::to_string(w.close_cycle) +
           ",\"open\":" + (w.open ? "true" : "false") +
           ",\"device_hits\":" + std::to_string(w.device_hits) +
           ",\"detected\":" + (w.detected ? "true" : "false") +
           ",\"close_reason\":\"" + telemetry::JsonEscape(w.close_reason) + "\"}";
  }
  out += "]";
  return out;
}

size_t IncidentEngine::incident_count() const {
  SpinGuard guard(lock_);
  return incidents_.size();
}

uint64_t IncidentEngine::suppressed() const {
  SpinGuard guard(lock_);
  return suppressed_;
}

std::string IncidentEngine::ReportsJson() const {
  SpinGuard guard(lock_);
  std::string out = "{\"count\":" + std::to_string(incidents_.size()) +
                    ",\"suppressed\":" + std::to_string(suppressed_) +
                    ",\"incidents\":[";
  for (size_t i = 0; i < incidents_.size(); ++i) {
    const Incident& incident = incidents_[i];
    if (i != 0) {
      out += ",";
    }
    out += "{\"id\":" + std::to_string(incident.id) +
           ",\"cycle\":" + std::to_string(incident.cycle) +
           ",\"device\":" + std::to_string(incident.device) + ",\"trigger\":\"" +
           telemetry::JsonEscape(incident.trigger) + "\",\"reason\":\"" +
           telemetry::JsonEscape(incident.reason) + "\",\"inferred_class\":\"" +
           std::string(AttackClassName(incident.inferred)) + "\",\"implicated\":";
    if (incident.implicated < incident.ledger.size()) {
      AppendLifeJson(out, incident.ledger[incident.implicated]);
    } else {
      out += "null";
    }
    out += ",\"timeline\":[";
    for (size_t r = 0; r < incident.timeline.size(); ++r) {
      if (r != 0) {
        out += ",";
      }
      AppendRecordJson(out, incident.timeline[r]);
    }
    out += "],\"ledger\":[";
    for (size_t l = 0; l < incident.ledger.size(); ++l) {
      if (l != 0) {
        out += ",";
      }
      AppendLifeJson(out, incident.ledger[l]);
    }
    out += "],\"windows\":" + incident.windows_json +
           ",\"trust\":" + incident.trust_json +
           ",\"recovery\":" + incident.recovery_json + "}";
  }
  out += "],\"recorder\":";
  out += recorder_ != nullptr ? recorder_->AccountingJson() : "null";
  out += "}";
  return out;
}

std::string IncidentEngine::SummaryJson() const {
  SpinGuard guard(lock_);
  std::map<std::string, uint64_t> by_trigger;
  std::map<std::string, uint64_t> by_class;
  for (const Incident& incident : incidents_) {
    ++by_trigger[incident.trigger];
    ++by_class[std::string(AttackClassName(incident.inferred))];
  }
  // Plain appends: GCC 12 -O3 misreports -Wrestrict on chained operator+.
  std::string out = "{\"count\":";
  out += std::to_string(incidents_.size());
  out += ",\"suppressed\":";
  out += std::to_string(suppressed_);
  out += ",\"by_trigger\":{";
  bool first = true;
  for (const auto& [name, count] : by_trigger) {
    if (!first) {
      out += ",";
    }
    first = false;
    out += "\"";
    out += telemetry::JsonEscape(name);
    out += "\":";
    out += std::to_string(count);
  }
  out += "},\"by_class\":{";
  first = true;
  for (const auto& [name, count] : by_class) {
    if (!first) {
      out += ",";
    }
    first = false;
    out += "\"";
    out += name;
    out += "\":";
    out += std::to_string(count);
  }
  out += "}}";
  return out;
}

}  // namespace spv::forensics
