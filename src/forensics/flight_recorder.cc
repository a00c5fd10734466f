#include "forensics/flight_recorder.h"

#include <algorithm>

namespace spv::forensics {

namespace {

// Scoped atomic_flag spinlock (the Histogram::Record idiom): ~1 uncontended
// RMW on the hot path, TSan-visible acquire/release edges.
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

}  // namespace

std::string_view RecordOpName(RecordOp op) {
  switch (op) {
    case RecordOp::kMap:
      return "map";
    case RecordOp::kUnmap:
      return "unmap";
    case RecordOp::kDeviceRead:
      return "device_read";
    case RecordOp::kDeviceWrite:
      return "device_write";
    case RecordOp::kStaleHit:
      return "stale_hit";
    case RecordOp::kFault:
      return "fault";
    case RecordOp::kFlush:
      return "flush";
    case RecordOp::kSyncCpu:
      return "sync_cpu";
    case RecordOp::kSyncDevice:
      return "sync_device";
  }
  return "?";
}

bool RecordOpCritical(RecordOp op) {
  return op == RecordOp::kStaleHit || op == RecordOp::kFault;
}

FlightRecorder::FlightRecorder(const SimClock* clock, ForensicsConfig config)
    : clock_(clock), config_(config) {
  if (config_.ring_capacity == 0) {
    config_.ring_capacity = 1;
  }
  if (config_.ledger_capacity == 0) {
    config_.ledger_capacity = 1;
  }
  if (config_.num_cpus == 0) {
    config_.num_cpus = 1;
  }
}

void FlightRecorder::Ring::Push(const FlightRecord& record) {
  SpinGuard guard(lock);
  const size_t capacity = slots.size();
  if (next_seq >= capacity) {
    // Overwriting the oldest live record: account the drop by what is being
    // *lost*, so a ring churning device reads cannot silently swallow a
    // fault or stale hit — the trace-ring `dropped_critical` parity.
    const FlightRecord& lost = slots[next_seq % capacity];
    if (RecordOpCritical(lost.op)) {
      ++dropped_critical;
    } else {
      ++dropped_info;
    }
  }
  FlightRecord stamped = record;
  stamped.seq = next_seq;
  slots[next_seq % capacity] = stamped;
  ++next_seq;
}

std::vector<FlightRecord> FlightRecorder::Ring::Snapshot() const {
  SpinGuard guard(lock);
  const size_t capacity = slots.size();
  const uint64_t live = next_seq < capacity ? next_seq : capacity;
  std::vector<FlightRecord> out;
  out.reserve(live);
  for (uint64_t i = next_seq - live; i < next_seq; ++i) {
    out.push_back(slots[i % capacity]);
  }
  return out;
}

FlightRecorder::Lane& FlightRecorder::LaneFor(DeviceId device) {
  SpinGuard guard(lanes_lock_);
  std::unique_ptr<Lane>& slot = lanes_[device.value];
  if (slot == nullptr) {
    slot = std::make_unique<Lane>();
    slot->rings.reserve(config_.num_cpus);
    for (uint32_t c = 0; c < config_.num_cpus; ++c) {
      slot->rings.push_back(std::make_unique<Ring>(config_.ring_capacity));
    }
  }
  return *slot;
}

const FlightRecorder::Lane* FlightRecorder::FindLane(DeviceId device) const {
  SpinGuard guard(lanes_lock_);
  const auto it = lanes_.find(device.value);
  return it == lanes_.end() ? nullptr : it->second.get();
}

FlightRecorder::Ring& FlightRecorder::RingFor(Lane& lane) const {
  return *lane.rings[CurrentCpu().value % lane.rings.size()];
}

void FlightRecorder::Push(Lane& lane, FlightRecord record) {
  record.cycle = clock_->now();
  record.cpu = CurrentCpu().value;
  RingFor(lane).Push(record);
}

bool FlightRecorder::Ledger::Push(MappingLife life, size_t capacity) {
  if (lives.size() < capacity) {
    if (lives.capacity() < capacity) {
      lives.reserve(capacity);
    }
    lives.push_back(std::move(life));
    return false;
  }
  lives[oldest] = std::move(life);
  oldest = (oldest + 1) % capacity;
  return true;
}

void FlightRecorder::RecordMap(DeviceId device, Iova iova, Kva kva, uint64_t len,
                               uint8_t dir, bool bounced, Site site) {
  Lane& lane = LaneFor(device);
  FlightRecord record;
  record.device = device.value;
  record.op = RecordOp::kMap;
  record.dir = dir;
  record.bounced = bounced;
  record.iova = iova.value;
  record.gpa = kva.value;
  record.len = len;
  {
    SpinGuard guard(lane.ledger_lock);
    record.generation = lane.next_generation++;
    MappingLife life;
    life.generation = record.generation;
    life.device = device.value;
    life.iova = iova.value;
    life.kva = kva.value;
    life.len = len;
    life.dir = dir;
    life.bounced = bounced;
    life.site = site;
    life.map_cycle = clock_->now();
    if (lane.ledger.Push(std::move(life), config_.ledger_capacity)) {
      ++lane.ledger_dropped;
    }
  }
  Push(lane, record);
}

void FlightRecorder::RecordUnmap(DeviceId device, Iova iova, uint64_t len,
                                 uint8_t dir, bool bounced) {
  Lane& lane = LaneFor(device);
  FlightRecord record;
  record.device = device.value;
  record.op = RecordOp::kUnmap;
  record.dir = dir;
  record.bounced = bounced;
  record.iova = iova.value;
  record.len = len;
  {
    SpinGuard guard(lane.ledger_lock);
    // Latest live life at this IOVA — reverse scan so remap-at-same-IOVA
    // retires the newest generation first.
    MappingLife* life = lane.ledger.FindNewest([&](const MappingLife& l) {
      return l.unmap_cycle == 0 && l.iova == iova.value;
    });
    if (life != nullptr) {
      life->unmap_cycle = clock_->now();
      record.generation = life->generation;
      record.gpa = life->kva;
    }
  }
  Push(lane, record);
}

void FlightRecorder::RecordAccess(DeviceId device, Iova iova, uint64_t gpa,
                                  uint64_t len, bool is_write) {
  Lane& lane = LaneFor(device);
  FlightRecord record;
  record.device = device.value;
  record.op = is_write ? RecordOp::kDeviceWrite : RecordOp::kDeviceRead;
  record.iova = iova.value;
  record.gpa = gpa;
  record.len = len;
  {
    SpinGuard guard(lane.ledger_lock);
    MappingLife* life = lane.ledger.FindNewest([&](const MappingLife& l) {
      return l.unmap_cycle == 0 && iova.value >= l.iova && iova.value < l.iova + l.len;
    });
    if (life != nullptr) {
      ++life->accesses;
      record.generation = life->generation;
    }
  }
  Push(lane, record);
}

void FlightRecorder::RecordStaleHit(DeviceId device, Iova page_iova, uint64_t gpa) {
  Lane& lane = LaneFor(device);
  FlightRecord record;
  record.device = device.value;
  record.op = RecordOp::kStaleHit;
  record.iova = page_iova.value;
  record.gpa = gpa;
  record.len = kPageSize;
  {
    SpinGuard guard(lane.ledger_lock);
    // The life this translation belonged to: latest *unmapped* entry whose
    // page covers the faulting page (the stale window's owner).
    MappingLife* life = lane.ledger.FindNewest([&](const MappingLife& l) {
      const uint64_t first_page = l.iova & ~kPageMask;
      const uint64_t last_page = (l.iova + (l.len ? l.len - 1 : 0)) & ~kPageMask;
      return l.unmap_cycle != 0 && page_iova.value >= first_page &&
             page_iova.value <= last_page;
    });
    if (life != nullptr) {
      ++life->stale_hits;
      record.generation = life->generation;
    }
  }
  Push(lane, record);
}

void FlightRecorder::RecordFault(DeviceId device, Iova iova, uint64_t len,
                                 bool is_write) {
  Lane& lane = LaneFor(device);
  FlightRecord record;
  record.device = device.value;
  record.op = RecordOp::kFault;
  record.dir = is_write ? 1 : 0;
  record.iova = iova.value;
  record.len = len;
  Push(lane, record);
}

void FlightRecorder::RecordSync(DeviceId device, Iova iova, uint64_t len,
                                uint8_t dir, bool for_cpu, bool bounced) {
  Lane& lane = LaneFor(device);
  FlightRecord record;
  record.device = device.value;
  record.op = for_cpu ? RecordOp::kSyncCpu : RecordOp::kSyncDevice;
  record.dir = dir;
  record.bounced = bounced;
  record.iova = iova.value;
  record.len = len;
  {
    SpinGuard guard(lane.ledger_lock);
    // Latest live life covering the sync'd range — syncs never retire a
    // life, they just stamp which generation the handoff belonged to.
    const MappingLife* life = lane.ledger.FindNewest([&](const MappingLife& l) {
      return l.unmap_cycle == 0 && iova.value >= l.iova && iova.value < l.iova + l.len;
    });
    if (life != nullptr) {
      record.generation = life->generation;
      record.gpa = life->kva;
    }
  }
  Push(lane, record);
}

void FlightRecorder::RecordFlush(DeviceId device, Iova page_iova, uint64_t pages) {
  Lane& lane = LaneFor(device);
  FlightRecord record;
  record.device = device.value;
  record.op = RecordOp::kFlush;
  record.iova = page_iova.value;
  record.len = pages << kPageShift;
  {
    SpinGuard guard(lane.ledger_lock);
    const uint64_t flush_base = page_iova.value;
    const uint64_t flush_end = flush_base + (pages << kPageShift);
    for (size_t i = 0; i < lane.ledger.size(); ++i) {
      MappingLife& life = lane.ledger[i];
      if (life.unmap_cycle != 0 && life.flush_cycle == 0 &&
          life.iova < flush_end && life.iova + life.len > flush_base) {
        life.flush_cycle = clock_->now();
      }
    }
  }
  Push(lane, record);
}

std::vector<FlightRecord> FlightRecorder::SnapshotTimeline(DeviceId device) const {
  const Lane* lane = FindLane(device);
  if (lane == nullptr) {
    return {};
  }
  std::vector<FlightRecord> merged;
  for (const std::unique_ptr<Ring>& ring : lane->rings) {
    std::vector<FlightRecord> part = ring->Snapshot();
    merged.insert(merged.end(), part.begin(), part.end());
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const FlightRecord& a, const FlightRecord& b) {
                     if (a.cycle != b.cycle) {
                       return a.cycle < b.cycle;
                     }
                     if (a.cpu != b.cpu) {
                       return a.cpu < b.cpu;
                     }
                     return a.seq < b.seq;
                   });
  return merged;
}

std::vector<MappingLife> FlightRecorder::SnapshotLedger(DeviceId device) const {
  const Lane* lane = FindLane(device);
  if (lane == nullptr) {
    return {};
  }
  SpinGuard guard(lane->ledger_lock);
  std::vector<MappingLife> lives;
  lives.reserve(lane->ledger.size());
  for (size_t i = 0; i < lane->ledger.size(); ++i) {
    lives.push_back(lane->ledger[i]);
  }
  return lives;
}

uint64_t FlightRecorder::total_recorded() const {
  SpinGuard guard(lanes_lock_);
  uint64_t total = 0;
  for (const auto& [device, lane] : lanes_) {
    for (const std::unique_ptr<Ring>& ring : lane->rings) {
      SpinGuard ring_guard(ring->lock);
      total += ring->next_seq;
    }
  }
  return total;
}

uint64_t FlightRecorder::total_dropped() const {
  SpinGuard guard(lanes_lock_);
  uint64_t total = 0;
  for (const auto& [device, lane] : lanes_) {
    for (const std::unique_ptr<Ring>& ring : lane->rings) {
      SpinGuard ring_guard(ring->lock);
      total += ring->dropped_info + ring->dropped_critical;
    }
  }
  return total;
}

uint64_t FlightRecorder::total_dropped_critical() const {
  SpinGuard guard(lanes_lock_);
  uint64_t total = 0;
  for (const auto& [device, lane] : lanes_) {
    for (const std::unique_ptr<Ring>& ring : lane->rings) {
      SpinGuard ring_guard(ring->lock);
      total += ring->dropped_critical;
    }
  }
  return total;
}

uint64_t FlightRecorder::ledger_dropped() const {
  SpinGuard guard(lanes_lock_);
  uint64_t total = 0;
  for (const auto& [device, lane] : lanes_) {
    SpinGuard ledger_guard(lane->ledger_lock);
    total += lane->ledger_dropped;
  }
  return total;
}

std::string FlightRecorder::AccountingJson() const {
  SpinGuard guard(lanes_lock_);
  std::string out = "{\"ring_capacity\":" + std::to_string(config_.ring_capacity) +
                    ",\"ledger_capacity\":" + std::to_string(config_.ledger_capacity) +
                    ",\"rings\":[";
  bool first = true;
  // lanes_ is an ordered map, rings are CPU-ordered: deterministic output.
  for (const auto& [device, lane] : lanes_) {
    for (size_t cpu = 0; cpu < lane->rings.size(); ++cpu) {
      const Ring& ring = *lane->rings[cpu];
      SpinGuard ring_guard(ring.lock);
      if (ring.next_seq == 0) {
        continue;  // untouched rings stay out of the report
      }
      if (!first) {
        out += ",";
      }
      first = false;
      out += "{\"device\":" + std::to_string(device) +
             ",\"cpu\":" + std::to_string(cpu) +
             ",\"recorded\":" + std::to_string(ring.next_seq) +
             ",\"dropped\":" + std::to_string(ring.dropped_info + ring.dropped_critical) +
             ",\"dropped_critical\":" + std::to_string(ring.dropped_critical) + "}";
    }
  }
  out += "],\"ledgers\":[";
  first = true;
  for (const auto& [device, lane] : lanes_) {
    SpinGuard ledger_guard(lane->ledger_lock);
    if (!first) {
      out += ",";
    }
    first = false;
    out += "{\"device\":" + std::to_string(device) +
           ",\"lives\":" + std::to_string(lane->next_generation - 1) +
           ",\"retained\":" + std::to_string(lane->ledger.size()) +
           ",\"dropped\":" + std::to_string(lane->ledger_dropped) + "}";
  }
  out += "]}";
  return out;
}

}  // namespace spv::forensics
