// nic_echo: UDP and TCP echo through a 4-queue RSS NIC.
//
// Setup: deferred invalidation, 4 sim CPUs, one NIC with a queue pair per
// CPU, an echo socket on port 7, and a seeded flow set steered by the NIC's
// Toeplitz RSS hash.
//
// Op: one request received and echoed. A benchmark-owned benign device
// DMA-writes a 64 B or 1024 B UDP datagram, or a burst of 2-8 in-order
// 512 B TCP segments that GRO merges into one reply. The stack echoes it
// through PostTx (linear TX for small replies, page-frag TX above 512 B).
// The device then DMA-reads the TX frame and compares it, header and
// payload, with the reply the request demands before the driver completes
// it through NetworkStack::OnTxCompleted.
//
// This exercises the net layer (ring refill, skb build, GRO, RSS, linear and
// frag TX) and uses the iommu differently from dma_churn: per-packet maps
// hit the rcache and deferred flush-queue drains set the tail.

#include <array>
#include <cstring>
#include <deque>

#include "layers.h"
#include "net/layouts.h"
#include "net/nic_device_model.h"
#include "net/nic_driver.h"
#include "net/rss.h"
#include "workload.h"

namespace perfbench {
namespace {

using spv::net::PacketHeader;

constexpr uint32_t kQueues = 4;
constexpr size_t kOpsPerRound = 3000;
constexpr size_t kWarmupOps = 64;
constexpr size_t kFlows = 64;
constexpr uint16_t kEchoPort = 7;
constexpr uint32_t kLocalIp = 0x0a000001;
constexpr uint32_t kTcpSegmentBytes = 512;
constexpr size_t kPatternBytes = 64 * 1024;

enum class Kind : uint8_t { kUdpSmall, kUdpLarge, kTcpBurst };

struct Op {
  Kind kind = Kind::kUdpSmall;
  uint16_t flow = 0;
  uint8_t segments = 1;   // TCP burst length
  uint32_t payload = 0;   // bytes per datagram / segment
  uint32_t pattern = 0;   // offset into the payload pattern pool
};

struct Flow {
  uint32_t src_ip = 0;
  uint16_t src_port = 0;
  uint32_t queue = 0;
};

std::vector<uint8_t> EncodeHeader(const PacketHeader& h) {
  std::vector<uint8_t> wire(PacketHeader::kSize, 0);
  auto put32 = [&](uint64_t at, uint32_t v) { std::memcpy(wire.data() + at, &v, 4); };
  auto put16 = [&](uint64_t at, uint16_t v) { std::memcpy(wire.data() + at, &v, 2); };
  put32(PacketHeader::kSrcIp, h.src_ip);
  put32(PacketHeader::kDstIp, h.dst_ip);
  put16(PacketHeader::kSrcPort, h.src_port);
  put16(PacketHeader::kDstPort, h.dst_port);
  wire[PacketHeader::kProto] = h.proto;
  wire[PacketHeader::kFlags] = h.flags;
  put16(PacketHeader::kLen, h.payload_len);
  put32(PacketHeader::kSeq, h.seq);
  return wire;
}

// The benchmark's benign NIC: DMA-writes requests into posted RX slots and
// DMA-reads posted TX frames back, both through the IOMMU.
class EchoDevice : public spv::net::NicDeviceModel {
 public:
  EchoDevice(spv::iommu::Iommu& iommu, spv::DeviceId id, SpanLog& log)
      : iommu_(iommu), id_(id), log_(log), rx_(kQueues),
        span_write_(log.Name("iommu.device_write")),
        span_read_(log.Name("iommu.device_read")) {}

  void OnRxPosted(const spv::net::RxPostedDescriptor& d) override { rx_[d.queue].push_back(d); }
  void OnTxPosted(const spv::net::TxPostedDescriptor& d) override { tx_.push_back(d); }

  spv::Result<uint32_t> Inject(uint32_t queue, std::span<const uint8_t> wire,
                               const spv::SimClock& clock) {
    auto& posted = rx_[queue];
    if (posted.empty()) {
      return spv::Unavailable("no posted RX descriptor");
    }
    const spv::net::RxPostedDescriptor d = posted.front();
    posted.pop_front();
    auto span = log_.Open(span_write_, &clock);
    SPV_RETURN_IF_ERROR(iommu_.DeviceWrite(id_, d.iova, wire));
    return d.index;
  }

  // Reads the frame of the oldest posted TX descriptor into `out`.
  spv::Result<uint32_t> ReadTx(std::vector<uint8_t>& out, const spv::SimClock& clock) {
    if (tx_.empty()) {
      return spv::Unavailable("no TX posted");
    }
    const spv::net::TxPostedDescriptor d = std::move(tx_.front());
    tx_.pop_front();
    out.resize(d.linear_len);
    {
      auto span = log_.Open(span_read_, &clock);
      SPV_RETURN_IF_ERROR(iommu_.DeviceRead(id_, d.linear_iova, out));
    }
    for (size_t f = 0; f < d.frag_iovas.size(); ++f) {
      const size_t at = out.size();
      out.resize(at + d.frag_lens[f]);
      auto span = log_.Open(span_read_, &clock);
      SPV_RETURN_IF_ERROR(iommu_.DeviceRead(
          id_, d.frag_iovas[f], std::span<uint8_t>(out.data() + at, d.frag_lens[f])));
    }
    return d.index;
  }

  size_t tx_pending() const { return tx_.size(); }

 private:
  spv::iommu::Iommu& iommu_;
  spv::DeviceId id_;
  SpanLog& log_;
  std::vector<std::deque<spv::net::RxPostedDescriptor>> rx_;
  std::deque<spv::net::TxPostedDescriptor> tx_;
  uint32_t span_write_;
  uint32_t span_read_;
};

class NicEcho : public Workload {
 public:
  NicEcho(const Options& options, SpanLog& log) : options_(options), log_(log) {
    spv::Xoshiro256 rng(options.seed);
    const spv::net::Rss rss{kQueues};
    for (size_t f = 0; f < kFlows; ++f) {
      Flow flow;
      flow.src_ip = 0x0a000100 + static_cast<uint32_t>(rng.NextBelow(0xff00));
      flow.src_port = static_cast<uint16_t>(rng.NextInRange(1024, 65535));
      flow.queue = rss.QueueFor(spv::net::FlowTuple{flow.src_ip, kLocalIp, flow.src_port,
                                                    kEchoPort});
      flows_.push_back(flow);
    }
    // Exact mix: 60% 64 B UDP, 20% 1024 B UDP, 20% TCP bursts of 2-8
    // segments (each length equally often). The seed orders it and picks
    // flows and payload bytes. No measured traffic is behind the mix: an
    // even split put the median op on the edge between two cost clusters of
    // 1024 B datagrams, so sim_cycles_p50 flipped with the seed; with small
    // datagrams in the majority it sits inside their 850-cycle cluster.
    ops_.reserve(kOpsPerRound);
    for (size_t i = 0; i < kOpsPerRound; ++i) {
      Op op;
      const size_t slot = i % 5 < 3 ? 0 : i % 5 - 2;
      if (slot == 0) {
        op.kind = Kind::kUdpSmall;
        op.payload = 64;
      } else if (slot == 1) {
        op.kind = Kind::kUdpLarge;
        op.payload = 1024;
      } else {
        op.kind = Kind::kTcpBurst;
        op.payload = kTcpSegmentBytes;
        op.segments = static_cast<uint8_t>(2 + (i / 5) % 7);
      }
      ops_.push_back(op);
    }
    SeededShuffle(ops_, rng);
    for (Op& op : ops_) {
      op.flow = static_cast<uint16_t>(rng.NextBelow(kFlows));
      op.pattern = static_cast<uint32_t>(
          rng.NextBelow(kPatternBytes - uint64_t{op.payload} * op.segments + 1));
    }
    patterns_.resize(kPatternBytes);
    FillPattern(patterns_, options.seed * 0x51ed + 3);
    span_op_ = log.Name("bench.op");
    span_rx_ = log.Name("net.complete_rx");
    span_gro_ = log.Name("net.napi_gro_receive");
    span_napi_ = log.Name("net.napi_complete");
    span_txc_ = log.Name("net.on_tx_completed");
    span_timer_ = log.Name("iommu.process_deferred_timer");
  }

  void Setup() override {
    spv::core::MachineConfig config;
    config.seed = 2;
    config.iommu.mode = spv::iommu::InvalidationMode::kDeferred;
    config.iommu.fast_path.num_cpus = kQueues;
    machine_ = BootMachine(config, log_);
    spv::core::Machine& m = *machine_;
    spv::net::NicDriver::Config nic;
    nic.name = "eth0";
    nic.num_queues = kQueues;
    for (uint32_t q = 0; q < kQueues; ++q) {
      nic.queue_cpus.push_back(spv::CpuId{q});
    }
    driver_ = &m.AddNicDriver(nic);
    device_ = std::make_unique<EchoDevice>(m.iommu(), driver_->device_id(), log_);
    driver_->AttachDevice(device_.get());
    m.stack().set_egress(driver_);
    Must(m.stack().CreateSocket(kEchoPort, /*echo=*/true), "echo socket");
    MustOk(driver_->FillAllRxRings(), "RX ring fill");
    WarmUp(kWarmupOps, options_.corrupt_one_check,
           [this](size_t i, OpCounter& warm) { RunOp(i, warm); }, "nic_echo warm-up");
  }

  void Teardown(Report& report) override {
    spv::core::Machine& m = *machine_;
    if (device_->tx_pending() != 0) {
      report.Fail("nic_echo: TX frames left uncompleted");
    }
    if (!driver_->Shutdown().ok()) {
      report.Fail("nic_echo: driver shutdown failed");
    }
    AuditNoLiveMappings(m, log_, report, "nic_echo");
    TeardownMachine(machine_, log_, report, "nic_echo");
    driver_ = nullptr;
    device_.reset();
  }

  void Round(OpCounter& ops) override {
    for (size_t i = 0; i < ops_.size(); ++i) {
      RunOp(i, ops);
    }
  }

  void BeginTimed() override {
    before_ = SnapLayers(*machine_, {driver_->device_id()});
    before_net_ = SnapNet();
  }

  void EndTimed(Report& report, uint64_t timed_ops) override {
    ReportLayerCounters(report, before_, SnapLayers(*machine_, {driver_->device_id()}),
                        timed_ops, *machine_);
    const NetCounters after = SnapNet();
    const uint64_t delivered = after.delivered - before_net_.delivered;
    const uint64_t received = after.rx_total - before_net_.rx_total;
    report.Set("net.gro.merged_segments_per_packet",
               delivered ? static_cast<double>(received - delivered) /
                               static_cast<double>(delivered)
                         : 0.0,
               "ratio");
    uint64_t min_queue = UINT64_MAX;
    for (uint32_t q = 0; q < kQueues; ++q) {
      min_queue = std::min(min_queue, after.rx_queue[q] - before_net_.rx_queue[q]);
    }
    report.Set("net.rss.min_queue_share",
               received ? static_cast<double>(min_queue) /
                              (static_cast<double>(received) / kQueues)
                        : 0.0,
               "ratio");
    report.Set("net.rx_refill_failures",
               static_cast<double>(after.refill_failures - before_net_.refill_failures),
               "count");
    report.Set("net.poll_deadline_hits",
               static_cast<double>(after.poll_deadline_hits - before_net_.poll_deadline_hits),
               "count");
  }

 private:
  struct NetCounters {
    uint64_t delivered = 0;
    uint64_t rx_total = 0;
    std::array<uint64_t, kQueues> rx_queue{};
    uint64_t refill_failures = 0;
    uint64_t poll_deadline_hits = 0;
  };

  NetCounters SnapNet() const {
    NetCounters c;
    c.delivered = machine_->stack().stats().rx_delivered;
    c.rx_total = driver_->rx_packets();
    for (uint32_t q = 0; q < kQueues; ++q) {
      c.rx_queue[q] = driver_->rx_packets(q);
    }
    c.refill_failures = driver_->rx_refill_failures();
    c.poll_deadline_hits = driver_->poll_deadline_hits();
    return c;
  }

  // Device injects one frame on the flow's queue; the driver completes it
  // and hands it to GRO.
  bool Receive(const Flow& flow, const PacketHeader& header,
               std::span<const uint8_t> payload) {
    spv::core::Machine& m = *machine_;
    wire_ = EncodeHeader(header);
    wire_.insert(wire_.end(), payload.begin(), payload.end());
    auto index = device_->Inject(flow.queue, wire_, m.clock());
    if (!index.ok()) {
      return false;
    }
    spv::Result<spv::net::SkBuffPtr> skb = spv::Unavailable("not received");
    {
      auto span = log_.Open(span_rx_, &m.clock());
      skb = driver_->CompleteRx(flow.queue, *index, static_cast<uint32_t>(wire_.size()));
    }
    if (!skb.ok() || *skb == nullptr) {
      return false;
    }
    auto span = log_.Open(span_gro_, &m.clock());
    return m.stack().NapiGroReceive(std::move(*skb)).ok();
  }

  void RunOp(size_t i, OpCounter& ops) {
    spv::core::Machine& m = *machine_;
    const Op& op = ops_[i];
    const Flow& flow = flows_[op.flow];
    log_.set_op(i);
    const uint64_t before = m.clock().now();
    bool ok = true;
    {
      auto op_span = log_.Open(span_op_, &m.clock());
      PacketHeader header{.src_ip = flow.src_ip,
                          .dst_ip = kLocalIp,
                          .src_port = flow.src_port,
                          .dst_port = kEchoPort,
                          .proto = op.kind == Kind::kTcpBurst ? spv::net::kProtoTcp
                                                              : spv::net::kProtoUdp,
                          .payload_len = static_cast<uint16_t>(op.payload),
                          .seq = static_cast<uint32_t>(i) * 0x10000};
      const uint8_t* payload = patterns_.data() + op.pattern;
      for (uint32_t s = 0; ok && s < op.segments; ++s) {
        ok = Receive(flow, header, std::span<const uint8_t>(payload + s * op.payload, op.payload));
        header.seq += op.payload;
      }
      if (ok) {
        auto span = log_.Open(span_napi_, &m.clock());
        ok = m.stack().NapiComplete().ok();
      }
      if (ok) {
        ok = CheckEcho(flow, op, i, std::span<const uint8_t>(payload, op.payload * op.segments));
      }
      auto span = log_.Open(span_timer_, &m.clock());
      m.iommu().ProcessDeferredTimer();
    }
    ops.Record(ok, m.clock().now() - before);
    m.clock().AdvanceUs(1);  // host idle between requests
  }

  // Reads the echoed TX frame back through the IOMMU, compares it with the
  // expected reply, then completes it.
  bool CheckEcho(const Flow& flow, const Op& op, size_t i, std::span<const uint8_t> payload) {
    spv::core::Machine& m = *machine_;
    if (device_->tx_pending() != 1) {
      return false;
    }
    auto index = device_->ReadTx(tx_frame_, m.clock());
    if (!index.ok()) {
      return false;
    }
    PacketHeader reply{.src_ip = kLocalIp,
                       .dst_ip = flow.src_ip,
                       .src_port = kEchoPort,
                       .dst_port = flow.src_port,
                       .proto = op.kind == Kind::kTcpBurst ? spv::net::kProtoTcp
                                                           : spv::net::kProtoUdp,
                       .payload_len = static_cast<uint16_t>(payload.size()),
                       .seq = static_cast<uint32_t>(i) * 0x10000};
    expect_ = EncodeHeader(reply);
    expect_.insert(expect_.end(), payload.begin(), payload.end());
    if (options_.corrupt_one_check) {
      expect_.back() ^= 0x01;
      options_.corrupt_one_check = false;
    }
    const bool match = tx_frame_ == expect_;
    auto span = log_.Open(span_txc_, &m.clock());
    return m.stack().OnTxCompleted(*index).ok() && match;
  }

  Options options_;
  SpanLog& log_;
  std::vector<Flow> flows_;
  std::vector<Op> ops_;
  std::vector<uint8_t> patterns_;
  std::vector<uint8_t> wire_;
  std::vector<uint8_t> tx_frame_;
  std::vector<uint8_t> expect_;
  std::unique_ptr<spv::core::Machine> machine_;
  spv::net::NicDriver* driver_ = nullptr;
  std::unique_ptr<EchoDevice> device_;
  LayerCounters before_;
  NetCounters before_net_;
  uint32_t span_op_, span_rx_, span_gro_, span_napi_, span_txc_, span_timer_;
};

}  // namespace

std::unique_ptr<Workload> MakeNicEcho(const Options& options, SpanLog& log) {
  return std::make_unique<NicEcho>(options, log);
}

}  // namespace perfbench
