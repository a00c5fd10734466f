// NIC driver model: per-queue RX/TX rings over the DMA API.
//
// Configurable to reproduce the driver behaviours the paper measures:
//   * unmap_before_build=false — the prevalent i40e-like ordering that builds
//     the sk_buff (initializing skb_shared_info) while the page is still
//     mapped, handing the device a legitimate overwrite window (Fig 7 (i));
//   * unmap_before_build=true  — the correct order, which is still defeated
//     by deferred IOTLB invalidation (Fig 7 (ii)) and by type (c) neighbour
//     IOVAs from the page_frag RX allocation scheme (Fig 7 (iii));
//   * hw_lro — 64 KiB RX buffers (mlx5/bnx2x style), inflating the driver's
//     memory footprint, which is what makes RingFlood PFN-guessing easy on
//     kernel 4.15 (§5.3).
//
// Multi-queue: the driver owns config.num_queues independent queue pairs,
// each pinned to one sim CPU (like a real RSS NIC's per-CPU MSI-X vectors).
// Every ring operation takes a queue index; the historical single-queue API
// is preserved as a byte-identical delegation to queue 0. The device decides
// which RX queue a flow lands on through the Toeplitz RSS hash (net/rss.h) —
// and therefore which CPU's IOVA magazines, flush-queue shard and page_frag
// pool the buffer travels through.

#ifndef SPV_NET_NIC_DRIVER_H_
#define SPV_NET_NIC_DRIVER_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "base/clock.h"
#include "base/inline_vector.h"
#include "base/site.h"
#include "base/stat_counter.h"
#include "base/status.h"
#include "base/types.h"
#include "dma/dma_api.h"
#include "dma/kernel_memory.h"
#include "net/nic_device_model.h"
#include "net/rss.h"
#include "net/skbuff.h"
#include "recovery/supervised.h"

namespace spv::fault {
class FaultEngine;
}  // namespace spv::fault

namespace spv::net {

// Verdict of an attached XDP program (§5.1's zero-copy BIDIRECTIONAL case).
enum class XdpVerdict : uint8_t {
  kPass,  // continue up the stack
  kDrop,  // count and free
  kTx,    // bounce back out of the same NIC (packet rewritten in place)
};

// An XDP program: runs on the raw buffer *while it is still DMA-mapped
// BIDIRECTIONAL*, which is precisely why XDP drivers map RX that way.
class XdpProgram {
 public:
  virtual ~XdpProgram() = default;
  virtual XdpVerdict Run(dma::KernelMemory& kmem, Kva data, uint32_t len) = 0;
};

class NicDriver : public recovery::SupervisedDriver {
 public:
  struct Config {
    std::string name = "nic0";
    CpuId cpu{0};
    // Number of RX/TX queue pairs. Queue q runs on queue_cpus[q] when
    // provided, else on CpuId{cpu.value + q} (queue 0 always stays on `cpu`,
    // so single-queue configs behave exactly as before).
    uint32_t num_queues = 1;
    std::vector<CpuId> queue_cpus;
    uint32_t rx_ring_size = 64;   // per queue
    uint32_t tx_ring_size = 64;   // per queue
    uint32_t rx_buf_len = 2048;   // data capacity per RX buffer
    bool unmap_before_build = true;
    bool hw_lro = false;          // allocate 64 KiB per RX entry regardless of MTU
    bool xdp = false;             // XDP attached: RX buffers mapped BIDIRECTIONAL (§5.1)
    // Real i40e-style page reuse: RX completions call dma_sync_single_for_cpu
    // instead of dma_unmap — the mapping (and the device's write access)
    // persists for the life of the ring, in ANY IOMMU mode.
    bool sync_only_rx = false;
    // Degraded service (router says kBounceSync): at most this many RX
    // descriptors are posted per queue, each on a persistent bounce slot.
    // The clamp keeps an untrusted NIC's ring inside the bounce pool budget
    // so it keeps serving instead of starving on ResourceExhausted refills.
    // 0 = no extra clamp.
    uint32_t sync_ring_limit = 8;
    uint64_t tx_timeout_cycles = SimClock::MsToCycles(5000);
    // After a failed RX refill the driver waits this long before retrying
    // (bounded backoff: a starved allocator is not hammered every completion).
    uint64_t refill_retry_backoff_cycles = SimClock::MsToCycles(1);
    // A watchdog-flushed TX skb is reposted at most this many times before
    // the driver gives up and frees it.
    uint32_t tx_requeue_max_attempts = 3;
    // NAPI-style budget for the driver's polling loops (ring fill, refill
    // retry, TX requeue): a loop that has burned this many sim cycles yields,
    // leaving the rest for the next poll. The budget is PER QUEUE per entry —
    // each queue's NAPI context owns its own deadline, so one wedged queue
    // cannot starve its siblings' polls.
    uint64_t poll_deadline_cycles = SimClock::MsToCycles(2);
  };

  static constexpr uint32_t kLroBufBytes = 64 * 1024;

  NicDriver(DeviceId device_id, dma::DmaApi& dma, dma::KernelMemory& kmem,
            SkbAllocator& skb_alloc, SimClock& clock, Config config);

  NicDriver(const NicDriver&) = delete;
  NicDriver& operator=(const NicDriver&) = delete;

  void AttachDevice(NicDeviceModel* device) { device_ = device; }

  // Optional fault hook (the kNic* sites): nullptr detaches.
  void set_fault_engine(fault::FaultEngine* engine) { fault_ = engine; }

  // Optional causal span tracer (RX/TX path spans): nullptr detaches.
  void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }

  // Attaches an XDP program; only meaningful with config.xdp = true (the
  // driver maps RX buffers BIDIRECTIONAL for in-place rewrites).
  void AttachXdp(XdpProgram* program) { xdp_program_ = program; }
  uint64_t xdp_drops() const { return SumQueues(&Queue::xdp_drops); }
  uint64_t xdp_tx() const { return SumQueues(&Queue::xdp_tx); }

  // ---- RSS ------------------------------------------------------------------

  const Rss& rss() const { return rss_; }
  // The RX queue the device's RSS hash steers this flow to.
  uint32_t QueueForFlow(const FlowTuple& tuple) const { return rss_.QueueFor(tuple); }

  // ---- RX -------------------------------------------------------------------

  // Allocates + maps a buffer for every empty RX slot and posts descriptors.
  // The legacy no-argument form services queue 0 only.
  Status FillRxRing() { return FillRxRing(0); }
  Status FillRxRing(uint32_t queue);
  // Every queue, each with its own fresh poll budget.
  Status FillAllRxRings();

  // Driver-side completion after the device wrote `pkt_len` bytes into slot
  // `index` of `queue`: builds the sk_buff (per the configured ordering),
  // refills the slot, returns the packet. Device-originated garbage (an
  // injected drop, truncation or descriptor-writeback fault) is dropped with
  // accounting and returns a null skb — only caller misuse returns an error.
  Result<SkBuffPtr> CompleteRx(uint32_t index, uint32_t pkt_len) {
    return CompleteRx(0, index, pkt_len);
  }
  Result<SkBuffPtr> CompleteRx(uint32_t queue, uint32_t index, uint32_t pkt_len);

  // Retries refills for slots a failed allocation left empty, once the
  // backoff window has passed. Returns the number of slots refilled. Called
  // opportunistically from CompleteRx; exposed for NAPI-style polling loops.
  uint32_t RetryRefills() { return RetryRefills(0); }
  uint32_t RetryRefills(uint32_t queue);
  uint32_t RetryAllRefills();

  // ---- TX -------------------------------------------------------------------

  // Maps the skb (linear TO_DEVICE + every frag page TO_DEVICE) and posts a
  // TX descriptor. The driver trusts the frags[] in the DEVICE-VISIBLE
  // shared_info — faithfully reproducing the Forward-Thinking hole (§5.5).
  Result<uint32_t> PostTx(SkBuffPtr skb) { return PostTx(0, std::move(skb)); }
  Result<uint32_t> PostTx(uint32_t queue, SkBuffPtr skb);

  // Device signalled completion: unmap everything and hand the skb back for
  // release.
  Result<SkBuffPtr> CompleteTx(uint32_t index) { return CompleteTx(0, index); }
  Result<SkBuffPtr> CompleteTx(uint32_t queue, uint32_t index);

  // TX watchdog: slots pending longer than tx_timeout_cycles are flushed; the
  // count of resets is reported (a failed-to-appear completion "triggers a TX
  // T/O error that flushes all buffers and resets the driver", §5.4).
  // Flushed skbs are unmapped and parked on that queue's bounded requeue list
  // rather than leaked; RequeueTimedOut() reposts them. The no-argument form
  // runs the watchdog over every queue.
  uint32_t CheckTxTimeout();
  uint32_t CheckTxTimeout(uint32_t queue);

  // Reposts skbs the watchdog flushed. Each skb gets at most
  // tx_requeue_max_attempts tries before it is freed. Returns the number
  // successfully reposted. The no-argument form drains every queue, each
  // with its own fresh poll budget.
  uint32_t RequeueTimedOut();
  uint32_t RequeueTimedOut(uint32_t queue);

  // Releases everything the driver holds: unmaps and frees every posted RX
  // buffer, flushes pending TX slots and drains the requeue lists on EVERY
  // queue. Returns the first error encountered but keeps going (best-effort
  // teardown).
  Status Shutdown() override;

  // SupervisedDriver re-attach hook: bring every RX ring back up.
  Status Resume() override { return FillAllRxRings(); }

  // Trust-probation hook (spv::policy): clamps the per-queue NAPI budget and
  // the number of RX descriptors posted per queue. A zeroed struct restores
  // the config defaults; limits only ever tighten, never exceed them.
  void ApplyDmaPolicy(const recovery::DmaPolicyLimits& limits) override {
    policy_limits_ = limits;
  }
  const recovery::DmaPolicyLimits& policy_limits() const { return policy_limits_; }

  // ---- Introspection -----------------------------------------------------------

  DeviceId device_id() const { return device_id_; }
  const Config& config() const { return config_; }
  uint32_t num_queues() const { return static_cast<uint32_t>(queues_.size()); }
  CpuId queue_cpu(uint32_t queue) const { return queues_[queue].cpu; }
  uint32_t rx_buffer_bytes() const;  // truesize of one RX buffer
  uint64_t rx_ring_memory_bytes() const {
    return uint64_t{config_.rx_ring_size} * rx_buffer_bytes();
  }
  std::optional<Kva> RxSlotKva(uint32_t index) const { return RxSlotKva(0, index); }
  std::optional<Kva> RxSlotKva(uint32_t queue, uint32_t index) const;
  std::optional<Iova> RxSlotIova(uint32_t index) const { return RxSlotIova(0, index); }
  std::optional<Iova> RxSlotIova(uint32_t queue, uint32_t index) const;
  uint32_t pending_tx() const;
  uint32_t pending_tx(uint32_t queue) const;
  uint64_t rx_packets() const { return SumQueues(&Queue::rx_packets); }
  uint64_t rx_packets(uint32_t queue) const { return queues_[queue].rx_packets; }
  uint64_t tx_packets() const { return SumQueues(&Queue::tx_packets); }
  uint64_t tx_packets(uint32_t queue) const { return queues_[queue].tx_packets; }
  uint32_t tx_resets() const { return static_cast<uint32_t>(SumQueues(&Queue::tx_resets)); }
  uint64_t rx_length_errors() const { return SumQueues(&Queue::rx_length_errors); }
  uint64_t rx_device_drops() const { return SumQueues(&Queue::rx_device_drops); }
  uint64_t rx_refill_failures() const { return SumQueues(&Queue::rx_refill_failures); }
  uint64_t tx_requeue_drops() const { return SumQueues(&Queue::tx_requeue_drops); }
  size_t tx_requeue_depth() const;
  size_t tx_requeue_depth(uint32_t queue) const { return queues_[queue].tx_requeue.size(); }
  uint64_t poll_deadline_hits() const { return SumQueues(&Queue::poll_deadline_hits); }
  uint64_t poll_deadline_hits(uint32_t queue) const {
    return queues_[queue].poll_deadline_hits;
  }
  // Frames delivered through the degraded sync-mode path (copybreak off a
  // persistent bounce slot) — the soak's availability-under-distrust signal.
  uint64_t rx_sync_frames() const { return SumQueues(&Queue::rx_sync_frames); }

  // Cross-checks every queue's ring state against the DMA mapping tracker:
  // posted RX slots and busy TX slots must be backed by live mappings of the
  // right length, and requeue lists must respect their bound. Feeds
  // Machine::CheckInvariants' cross-CPU coverage.
  Status AuditQueues() const;

 private:
  struct RxSlot {
    bool posted = false;
    Kva head;
    Iova iova;  // of head
    // Mapped persistently into a bounce slot (service mode kBounceSync at
    // refill time): completions copy the frame across with sync_for_cpu and
    // re-arm the same slot with sync_for_device instead of unmapping.
    bool sync_mode = false;
  };
  struct TxFragMapping {
    Iova iova;
    Kva kva;
    uint32_t len;
  };
  struct TxSlot {
    bool busy = false;
    SkBuffPtr skb;
    Iova linear_iova;
    uint32_t linear_len = 0;
    InlineVector<TxFragMapping, kMaxSkbFrags> frags;
    uint64_t post_cycle = 0;
  };

  struct PendingTx {
    SkBuffPtr skb;
    uint32_t attempts = 0;
  };

  // One RX/TX queue pair and everything that used to be device-global state.
  // In kThreads mode each queue is driven only by the thread for `cpu`, so
  // the plain fields need no lock; the counters are StatCounters because the
  // aggregate accessors sum them from other threads.
  struct Queue {
    Queue() = default;
    Queue(const Queue&) = delete;
    Queue& operator=(const Queue&) = delete;
    Queue(Queue&&) = default;
    Queue& operator=(Queue&&) = default;

    CpuId cpu{0};
    std::string name;  // "nic0" for queue 0, "nic0.q1", "nic0.q2", ...
    // Record and event sites ("nic0.q1_map_rx", "nic0.q1_rx", ...), interned
    // once at construction so the per-packet path composes no strings.
    Site site_alloc_rx_buf;
    Site site_map_rx;
    Site site_sync_copybreak;
    Site site_xmit_linear;
    Site site_xmit_frag;
    Site site_rx;
    Site site_rx_sync;
    Site site_rx_error;
    Site site_rx_refill_retry;
    Site site_tx;
    Site site_tx_timeout_reset;
    Site site_tx_requeue;
    Site site_xdp_drop;
    Site site_xdp_tx;
    std::vector<RxSlot> rx_ring;
    std::vector<TxSlot> tx_ring;
    std::deque<PendingTx> tx_requeue;  // watchdog-flushed skbs awaiting repost
    uint64_t refill_backoff_until = 0;
    bool rx_needs_refill = false;
    StatCounter rx_packets;
    StatCounter tx_packets;
    StatCounter xdp_drops;
    StatCounter xdp_tx;
    StatCounter tx_resets;
    StatCounter rx_length_errors;
    StatCounter rx_device_drops;
    StatCounter rx_refill_failures;
    StatCounter tx_requeue_drops;
    StatCounter poll_deadline_hits;
    StatCounter rx_sync_frames;
  };

  uint64_t SumQueues(StatCounter Queue::* counter) const {
    uint64_t total = 0;
    for (const Queue& q : queues_) {
      total += q.*counter;
    }
    return total;
  }

  // Config values after the trust-policy clamp (identity when no limits are
  // in force).
  uint64_t EffectivePollDeadline() const {
    return policy_limits_.poll_deadline_cycles != 0 &&
                   policy_limits_.poll_deadline_cycles < config_.poll_deadline_cycles
               ? policy_limits_.poll_deadline_cycles
               : config_.poll_deadline_cycles;
  }
  uint32_t EffectiveRxRingLimit() const {
    return policy_limits_.ring_limit != 0 && policy_limits_.ring_limit < config_.rx_ring_size
               ? policy_limits_.ring_limit
               : config_.rx_ring_size;
  }
  // EffectiveRxRingLimit plus the sync-mode clamp: consulted per fill/refill
  // so a live demotion shrinks the ring as completed slots retire and a
  // promotion lets FillRxRing grow it back.
  uint32_t EffectiveRxRingLimitNow() const {
    uint32_t limit = EffectiveRxRingLimit();
    if (config_.sync_ring_limit != 0 && config_.sync_ring_limit < limit &&
        dma_.service_mode(device_id_) == dma::ServiceMode::kBounceSync) {
      limit = config_.sync_ring_limit;
    }
    return limit;
  }

  // True once the polling loop that started at `start_cycle` has exhausted
  // this queue's budget; emits kNicPollDeadline (tagged `loop`) on the
  // transition and charges the hit to the queue, not the device.
  bool PollDeadlineHit(Queue& q, uint64_t start_cycle, std::string_view loop);
  Status RefillSlot(Queue& q, uint32_t queue, uint32_t index);
  // RefillSlot, but a failure arms the retry backoff instead of propagating:
  // the ring runs one slot short until RetryRefills() succeeds.
  void RefillSlotTolerant(Queue& q, uint32_t queue, uint32_t index);
  Status UnmapTxSlot(Queue& q, TxSlot& slot);
  // PostTx body that leaves `skb` with the caller on failure (requeue path).
  Result<uint32_t> TryPostTx(uint32_t queue, SkBuffPtr& skb);
  // Drops a completion the device delivered broken: recovers the slot (repost
  // or unmap+free+refill), accounts under `counter`, returns a null skb.
  Result<SkBuffPtr> DropRxFrame(uint32_t queue, uint32_t index, uint32_t pkt_len,
                                std::string_view counter);

  DeviceId device_id_;
  dma::DmaApi& dma_;
  dma::KernelMemory& kmem_;
  SkbAllocator& skb_alloc_;
  SimClock& clock_;
  Config config_;
  Rss rss_;
  NicDeviceModel* device_ = nullptr;

  std::vector<Queue> queues_;
  recovery::DmaPolicyLimits policy_limits_;  // zeroed = full service
  XdpProgram* xdp_program_ = nullptr;
  fault::FaultEngine* fault_ = nullptr;
  trace::Tracer* tracer_ = nullptr;
  telemetry::CachedCounter c_rx_packets_{"nic.rx_packets"};
  telemetry::CachedCounter c_tx_packets_{"nic.tx_packets"};
};

}  // namespace spv::net

#endif  // SPV_NET_NIC_DRIVER_H_
