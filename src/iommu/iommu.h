// The IOMMU: per-device I/O page tables + shared IOTLB + invalidation policy.
//
// This is the security boundary the whole paper is about. Two properties are
// modelled exactly:
//
//  1. Page granularity. A mapping covers a whole 4 KiB page, so mapping any
//     buffer exposes every byte that shares its page (sub-page vulnerability,
//     §3.2).
//  2. IOTLB (in)coherence. In *strict* mode each unmap invalidates the IOTLB
//     entry synchronously (≈2000 cycles, §5.2.1). In *deferred* mode — the
//     Linux default — unmaps only clear the PTE and queue the invalidation;
//     the queue is flushed when full or after a 10 ms deadline, leaving a
//     window in which a device can keep using the stale translation (Fig 6).

#ifndef SPV_IOMMU_IOMMU_H_
#define SPV_IOMMU_IOMMU_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "base/clock.h"
#include "base/exec.h"
#include "base/maybe_mutex.h"
#include "base/site.h"
#include "base/stat_counter.h"
#include "base/status.h"
#include "base/types.h"
#include "iommu/access_rights.h"
#include "iommu/fast_path.h"
#include "iommu/io_page_table.h"
#include "iommu/iotlb.h"
#include "iommu/iova_allocator.h"
#include "mem/phys_memory.h"
#include "trace/tracer.h"

namespace spv::forensics {
class FlightRecorder;
}  // namespace spv::forensics

namespace spv::fault {
class FaultEngine;
}  // namespace spv::fault

namespace spv::iommu {

enum class InvalidationMode { kStrict, kDeferred };

inline std::string InvalidationModeName(InvalidationMode mode) {
  return mode == InvalidationMode::kStrict ? "strict" : "deferred";
}

// What emptied the deferred flush queue (telemetry: the drain-reason mix
// distinguishes throughput-bound workloads from idle ones).
enum class FlushReason : uint8_t {
  kManual,    // explicit FlushNow() by the OS / a bench
  kCapacity,  // queue reached flush_queue_capacity
  kDeadline,  // the 10 ms timer fired
};

std::string_view FlushReasonName(FlushReason reason);

// Cycle cost model (§5.2.1 and [2], [29]).
inline constexpr uint64_t kIotlbInvalidationCycles = 2000;
inline constexpr uint64_t kCpuTlbInvalidationCycles = 100;  // for comparison benches
inline constexpr uint64_t kPageWalkCyclesPerLevel = 50;
inline constexpr uint64_t kIotlbHitCycles = 1;
inline constexpr uint64_t kMapPteCycles = 150;

struct IommuFault {
  DeviceId device;
  Iova iova;
  AccessOp op;
  uint64_t cycle;
  std::string_view reason;  // a Site's name: valid for the whole process
};

class Iommu {
 public:
  struct Config {
    // enabled=false models the pre-IOMMU world (§2.1): DMA addresses are
    // physical addresses, no translation, no permission checks — the classic
    // FireWire/Inception memory-dump scenario.
    bool enabled = true;
    InvalidationMode mode = InvalidationMode::kDeferred;
    size_t iotlb_capacity = 256;
    size_t flush_queue_capacity = 256;
    uint64_t flush_interval_cycles = SimClock::MsToCycles(10);
    // Map/unmap fast-path data structures (IOVA rcache, walk cache).
    FastPathConfig fast_path = {};
  };

  // Relaxed-atomic counters (StatCounter) so concurrent sim CPUs can bump
  // them in ExecMode::kThreads; they read like plain integers everywhere.
  struct Stats {
    StatCounter maps;
    StatCounter unmaps;
    StatCounter flushes;                  // global flushes (deferred mode)
    StatCounter targeted_invalidations;   // per-page (strict mode)
    StatCounter invalidation_cycles;      // total cycles spent invalidating
    StatCounter device_accesses;
    StatCounter stale_iotlb_accesses;     // accesses served with no live PTE
    // Flush-queue drain reasons (sum == flushes).
    StatCounter flush_capacity_drains;
    StatCounter flush_deadline_drains;
    StatCounter flush_manual_drains;
    // Device quarantine (spv::recovery).
    StatCounter device_fences;            // FenceDevice transitions
    StatCounter device_detaches;          // DetachDevice completions
    StatCounter fenced_accesses;          // DMA attempts rejected by a fence
    StatCounter drained_device_entries;   // flush-queue entries drained per-device
  };

  Iommu(mem::PhysicalMemory& pm, SimClock& clock, Config config);

  Iommu(const Iommu&) = delete;
  Iommu& operator=(const Iommu&) = delete;

  // Prepares for ExecMode::kThreads: shards the deferred flush queue per CPU
  // (Linux's per-CPU iova flush queues) and engages every internal lock, here
  // and in the IOTLB / page tables / IOVA allocators of existing domains.
  // Must run at machine bring-up, before any worker thread issues traffic;
  // one-way. In the default sequential mode there is exactly one shard and
  // no lock is ever taken, preserving the legacy semantics bit-for-bit.
  void EngageThreadSafety(uint32_t num_cpus);

  // Routes IOMMU/IOTLB counters and events (flushes, faults, stale hits)
  // through `hub`; forwards to the embedded IOTLB. Pass nullptr to detach.
  void set_telemetry(telemetry::Hub* hub);

  // Optional fault hook (kIovaAlloc, kIoPageTableMap, kIotlbInvalidation):
  // nullptr detaches.
  void set_fault_engine(fault::FaultEngine* engine) { fault_ = engine; }

  // Optional causal span tracer (map/unmap/flush-drain spans): nullptr
  // detaches; a null or disabled tracer costs one branch per operation.
  void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }

  // Optional DMA flight recorder (spv::forensics): witnesses every
  // device-side access chunk, stale-IOTLB hit, translation fault and IOTLB
  // invalidation edge. nullptr (the default) costs one branch per site.
  void set_flight_recorder(forensics::FlightRecorder* recorder) {
    recorder_ = recorder;
  }

  // Attaches a device in its own translation domain (the secure default:
  // one I/O page table per requester id, like Windows Kernel DMA Protection).
  void AttachDevice(DeviceId device);

  // Attaches `device` to the domain of `domain_owner` — both devices then
  // share one I/O page table and IOVA space. This is how Linux groups
  // devices behind a non-isolating bridge, and exactly the §6 experimental
  // setup: "we created an IOVA page table that is shared between the
  // FireWire and the actual NIC", letting a programmable FireWire accessory
  // emulate a malicious NIC.
  Status AttachDeviceToDomainOf(DeviceId device, DeviceId domain_owner);

  bool IsAttached(DeviceId device) const;

  // ---- Quarantine / detach (spv::recovery) ---------------------------------

  // Fences `device`: its flush-queue entries are drained (parked IOVAs
  // reclaimed, stale IOTLB pages invalidated), every cached translation for
  // its domain is dropped (IOTLB + walk cache), and from here on device-side
  // DMA and new OS-side maps fail with StatusCode::kRevoked — the single
  // authoritative post-quarantine failure path. OS-side unmaps stay allowed
  // so teardown can proceed. Idempotent; NotFound for unattached devices.
  Status FenceDevice(DeviceId device);

  // Lifts the fence (supervised re-attach). Idempotent on unfenced devices.
  Status UnfenceDevice(DeviceId device);

  bool IsFenced(DeviceId device) const;

  // True when the device was fenced or detached and never restored: the
  // "revocation memory" that distinguishes the unified kRevoked answer from
  // the never-attached kInvalidArgument one.
  bool IsRevoked(DeviceId device) const;

  // Removes `device`'s entries from *every* CPU's deferred flush shard: their
  // IOTLB pages are invalidated first, then the parked IOVAs are reclaimed —
  // the order that prevents a recycled IOVA from translating through a
  // still-warm stale window. Quarantine relies on the every-shard sweep: a
  // device's deferred unmaps land on whichever CPU issued them. Returns the
  // number of queue entries drained.
  uint64_t DrainDeviceInvalidations(DeviceId device);

  // Permanently detaches `device`: fences it, drains its queue entries and
  // removes it from its translation domain. Live PTEs for a shared domain are
  // untouched (the surviving members own them). Idempotent: detaching an
  // already-detached device is OK; never-attached is NotFound.
  Status DetachDevice(DeviceId device);

  // True if the two devices translate through the same page table.
  bool SameDomain(DeviceId a, DeviceId b) const;

  // ---- OS side -------------------------------------------------------------

  // Maps one physical page; returns the IOVA of its page base.
  Result<Iova> MapPage(DeviceId device, Pfn pfn, AccessRights rights);

  // Maps `pfns` into one contiguous IOVA range (scatter/gather support).
  Result<Iova> MapRange(DeviceId device, std::span<const Pfn> pfns, AccessRights rights);

  Status UnmapPage(DeviceId device, Iova iova);
  Status UnmapRange(DeviceId device, Iova base, uint64_t pages);

  // Forces every deferred flush shard out now (the 10 ms timer firing, or an
  // admin `iommu=strict`-style flush).
  void FlushNow(FlushReason reason = FlushReason::kManual);

  // Trust-policy gate (spv::policy): while disabled, the device's domain
  // allocates and frees IOVAs through the slow path only — magazine caches
  // bypassed (IovaAllocator::set_cache_bypass), so an unearned device never
  // rides the PR-2 rcache. Per translation domain, like the allocator
  // itself. NotFound for unattached devices; enabled is the default.
  Status SetDeviceFastPath(DeviceId device, bool enabled);
  // False only while a policy has the device gated off the fast path.
  bool device_fast_path(DeviceId device) const;

  // The CPU the simulated kernel is currently executing on; IOVA magazine
  // allocs/frees and flush-shard selection use it. Ambient (thread-local,
  // like preemption context) rather than a parameter so device models need
  // no plumbing — and so each kThreads worker carries its own identity.
  void set_current_cpu(CpuId cpu) { SetCurrentCpu(cpu); }
  CpuId current_cpu() const { return CurrentCpu(); }

  // Models timer processing: call after advancing the clock to let an expired
  // deadline trigger the periodic flush. Checks only the calling CPU's shard
  // (each CPU services its own flush timer, as in Linux's per-CPU fq timers).
  void ProcessDeferredTimer();

  // ---- Device side -----------------------------------------------------------

  // DMA through the translation path. May cross page boundaries as long as
  // the whole IOVA range translates with sufficient rights.
  Status DeviceRead(DeviceId device, Iova iova, std::span<uint8_t> out);
  Status DeviceWrite(DeviceId device, Iova iova, std::span<const uint8_t> data);

  // ---- Introspection -----------------------------------------------------------

  InvalidationMode mode() const { return config_.mode; }
  const FastPathConfig& fast_path() const { return config_.fast_path; }
  const Stats& stats() const { return stats_; }
  // Quiescent-read introspection: valid while no worker thread is running.
  const std::vector<IommuFault>& faults() const { return faults_; }
  const Iotlb& iotlb() const { return iotlb_; }
  // Pending entries across all shards.
  uint64_t pending_invalidation_count() const;
  size_t flush_shard_count() const { return flush_shards_.size(); }
  // Pending entries in one CPU's shard (cross-CPU drain tests).
  uint64_t pending_invalidation_count(CpuId cpu) const;

  // Cross-CPU invariants, checked by Machine::CheckInvariants:
  //  * flush-shard liveness — every non-empty shard carries an armed
  //    deadline, and every pending range is still a live (parked) IOVA range
  //    of its domain;
  //  * magazine ownership — no IOVA range sits both in a magazine/depot and
  //    in the live set, and no range is cached twice.
  Status AuditCrossCpu() const;

  // Attached devices in ascending id order, and the translation-domain id a
  // device belongs to (0 when unattached). IOTLB entries are tagged by domain
  // id, so audits need this indirection to relate the two.
  std::vector<DeviceId> attached_devices() const;
  uint32_t domain_id(DeviceId device) const;

  // Snapshot of the deferred flush queue: IOVA ranges whose PTEs are gone but
  // whose IOTLB entries may still translate (the Fig 6 window).
  struct PendingRange {
    DeviceId device;
    Iova base;
    uint64_t pages;
  };
  std::vector<PendingRange> pending_invalidations() const;

  // Fast-path introspection for benches and tests (nullptr when the device
  // is not attached).
  const IovaAllocator* iova_allocator(DeviceId device) const;
  const IoPageTable* page_table(DeviceId device) const;

  // Live PTEs translating to `pfn` for this device (type (c) probe).
  std::vector<Iova> IovasForPfn(DeviceId device, Pfn pfn) const;

  // Translates without side effects (no IOTLB fill, no fault log); used by
  // ground-truth analyses, not by devices.
  std::optional<PteEntry> Peek(DeviceId device, Iova iova) const;

 private:
  // A translation domain: one page table + IOVA space, shared by all member
  // devices. IOTLB entries are tagged by domain id (as on VT-d), so domain
  // members also share cached translations.
  struct Domain {
    explicit Domain(const FastPathConfig& fast_path)
        : table(fast_path.walk_cache_enabled),
          iova_alloc(IovaAllocator::kDefaultWindowStart, IovaAllocator::kDefaultWindowEnd,
                     fast_path) {}
    uint32_t id = 0;
    IoPageTable table;
    IovaAllocator iova_alloc;
  };
  struct PendingInvalidation {
    DeviceId device;
    Iova base;
    uint64_t pages;
    // The CPU that issued the unmap. Mirrors Linux's per-CPU flush queues:
    // at drain time the parked IOVA returns to *this* CPU's magazines, so
    // deferred mode keeps rcache locality even when unmaps round-robin.
    CpuId cpu{0};
  };

  // One deferred flush queue shard. Sequential mode has exactly one (the
  // legacy global queue); kThreads mode has one per CPU, so unmap-heavy
  // workloads never serialize on a global invalidation queue. Each shard
  // carries its own deadline, armed when the first entry lands.
  // The queue is a vector whose buffer DrainShard hands back after each
  // drain, so a steady unmap/drain cycle reuses one allocation.
  struct FlushShard {
    mutable MaybeMutex mu;
    std::vector<PendingInvalidation> queue;
    uint64_t deadline = 0;  // valid when queue nonempty
  };

  // Snapshot of a device's attach/fence/revoke state, taken under one brief
  // shared lock. The shared_ptr keeps the domain alive (RCU-style) even if a
  // concurrent detach erases it from the map, so callers operate lock-free
  // on the domain afterwards.
  struct DeviceRef {
    std::shared_ptr<Domain> domain;  // null when not attached
    bool fenced = false;
    bool revoked = false;
  };
  DeviceRef Resolve(DeviceId device) const;

  size_t ShardIndex() const {
    return flush_shards_.size() <= 1 ? 0 : CurrentCpu().value % flush_shards_.size();
  }
  // Drains one shard: one global IOTLB invalidation amortizing the batch,
  // walk-cache drop, then the parked IOVAs return to their unmapping CPUs'
  // magazines. The legacy FlushNow body, scoped to a shard.
  void DrainShard(size_t shard_index, FlushReason reason);

  Status Access(DeviceId device, Iova iova, AccessOp op, std::span<uint8_t> read_out,
                std::span<const uint8_t> write_data);
  void Fault(DeviceId device, Iova iova, AccessOp op, Site reason);
  void EnqueueInvalidation(DeviceId device, Iova base, uint64_t pages);

  Result<PteEntry> TranslateForDevice(DeviceId device, Domain& domain, Iova page_iova,
                                      AccessOp op);

  // Publishes a kDeviceFencedAccess event for a rejected fenced-device op.
  void NoteFencedAccess(DeviceId device, Iova iova, Site what);

  mem::PhysicalMemory& pm_;
  SimClock& clock_;
  Config config_;
  Iotlb iotlb_;
  // Device/fence/revoke tables, guarded by state_mu_ (reads take a brief
  // shared lock and copy the domain shared_ptr out; never held across
  // component calls, so the lock order is always state_mu_ -> {shard, iotlb,
  // table, iova} with no cycles).
  mutable MaybeSharedMutex state_mu_;
  std::unordered_map<uint32_t, std::shared_ptr<Domain>> device_domain_;  // device -> domain
  std::unordered_set<uint32_t> fenced_;   // quarantined devices (still attached)
  std::unordered_set<uint32_t> revoked_;  // fenced or detached, not yet restored
  uint32_t next_domain_id_ = 1;
  bool threaded_ = false;
  std::vector<std::unique_ptr<FlushShard>> flush_shards_;
  Stats stats_;
  mutable MaybeMutex faults_mu_;
  std::vector<IommuFault> faults_;
  telemetry::Hub* hub_ = nullptr;
  // Per-op hub metrics (telemetry::CachedMetric: resolved on first bump).
  telemetry::CachedCounter c_maps_{"iommu.maps"};
  telemetry::CachedCounter c_unmaps_{"iommu.unmaps"};
  telemetry::CachedCounter c_device_accesses_{"iommu.device_accesses"};
  telemetry::CachedCounter c_targeted_invalidations_{"iommu.targeted_invalidations"};
  telemetry::CachedCounter c_invalidation_cycles_{"iommu.invalidation_cycles"};
  telemetry::CachedCounter c_flushes_{"iommu.flushes"};
  telemetry::CachedCounter c_flush_drain_manual_{"iommu.flush_drain.manual"};
  telemetry::CachedCounter c_flush_drain_capacity_{"iommu.flush_drain.capacity"};
  telemetry::CachedCounter c_flush_drain_deadline_{"iommu.flush_drain.deadline"};
  telemetry::CachedHistogram h_flush_batch_{"iommu.flush_batch"};
  fault::FaultEngine* fault_ = nullptr;
  trace::Tracer* tracer_ = nullptr;
  forensics::FlightRecorder* recorder_ = nullptr;
};

}  // namespace spv::iommu

#endif  // SPV_IOMMU_IOMMU_H_
