// dma_churn: strict-mode map/unmap churn against a fragmented IOVA space.
//
// Op: one MapSingle+UnmapSingle of a 1-, 2- or 4-page buffer, or one sg4
// MapSg+UnmapSg, issued on 4 sim CPUs in rotation. Every kProbeEvery-th op is
// a probe instead: map a pattern buffer bidirectionally, DeviceRead it
// through the IOVA and compare, unmap, then read the same IOVA again — in
// strict mode that second read must fault. A batching change that widened
// the strict window would let it succeed, and the op counts as failed.
//
// iommu and dma do almost all the work here; there is one machine, no
// payload bytes and no net or observability work.

#include <array>
#include <cstring>

#include "layers.h"
#include "workload.h"

namespace perfbench {
namespace {

using spv::DeviceId;
using spv::Iova;
using spv::Kva;
using spv::dma::DmaDirection;

constexpr uint32_t kCpus = 4;
constexpr size_t kOpsPerRound = 25000;
// Each probe's post-unmap read lands in the IOMMU's fault log, which grows
// for the whole run; one probe per 1024 ops keeps that growth (and its effect
// on peak RSS) small.
constexpr size_t kProbeEvery = 1024;
constexpr size_t kFragPairs = 2048;
constexpr size_t kWarmupOps = 2000;
constexpr uint64_t kProbeBytes = 256;
// Buffer sizes chosen so kmalloc hands out page-aligned 1-, 2- and 4-page
// buffers.
constexpr std::array<uint64_t, 3> kBufBytes = {2048, 8192, 16384};

enum class Kind : uint8_t { kSingle, kSg4, kProbe };

struct Op {
  Kind kind = Kind::kSingle;
  uint8_t buf = 0;  // kBufBytes index for kSingle
  uint8_t cpu = 0;
};

class DmaChurn : public Workload {
 public:
  DmaChurn(const Options& options, SpanLog& log) : options_(options), log_(log) {
    // Exact mix, an even split over the four op kinds (1-, 2- and 4-page
    // buffers, sg4): no measured traffic says otherwise. The seed orders it.
    // Probes sit at fixed positions.
    spv::Xoshiro256 rng(options.seed);
    std::vector<Op> mix;
    const size_t churn_ops = kOpsPerRound - kOpsPerRound / kProbeEvery;
    for (size_t i = 0; i < churn_ops; ++i) {
      Op op;
      if (i % (kBufBytes.size() + 1) == kBufBytes.size()) {
        op.kind = Kind::kSg4;
      } else {
        op.buf = static_cast<uint8_t>(i % (kBufBytes.size() + 1));
      }
      mix.push_back(op);
    }
    SeededShuffle(mix, rng);
    ops_.reserve(kOpsPerRound);
    for (size_t i = 0, next = 0; i < kOpsPerRound; ++i) {
      Op op;
      if (i % kProbeEvery == kProbeEvery - 1) {
        op.kind = Kind::kProbe;
      } else {
        op = mix[next++];
      }
      op.cpu = static_cast<uint8_t>(i % kCpus);
      ops_.push_back(op);
    }
    probe_pattern_.resize(kProbeBytes);
    FillPattern(probe_pattern_, options.seed ^ 0x5eed);
    span_op_ = log.Name("bench.op");
    span_map_ = log.Name("dma.map_single");
    span_unmap_ = log.Name("dma.unmap_single");
    span_map_sg_ = log.Name("dma.map_sg");
    span_unmap_sg_ = log.Name("dma.unmap_sg");
    span_read_ = log.Name("iommu.device_read");
    span_timer_ = log.Name("iommu.process_deferred_timer");
    span_flush_ = log.Name("iommu.flush_now", true);
  }

  void Setup() override {
    spv::core::MachineConfig config;
    config.seed = 2;
    config.iommu.mode = spv::iommu::InvalidationMode::kStrict;
    config.iommu.fast_path.num_cpus = kCpus;
    machine_ = BootMachine(config, log_);
    spv::core::Machine& m = *machine_;
    m.iommu().AttachDevice(dev_);

    // Interleave live single-page mappings with single-page holes; the
    // pinned half keeps the holes apart so they never coalesce.
    const Kva pin_buf = Must(m.slab().Kmalloc(2048, "perfbench_pin"), "kmalloc");
    std::vector<Iova> all;
    for (size_t i = 0; i < kFragPairs * 2; ++i) {
      m.set_current_cpu(spv::CpuId{static_cast<uint32_t>(i % kCpus)});
      all.push_back(Must(m.dma().MapSingle(dev_, pin_buf, 2048, DmaDirection::kFromDevice,
                                           "perfbench_pin"),
                         "pin map"));
    }
    pinned_.clear();
    for (size_t i = 0; i < all.size(); ++i) {
      if (i % 2 == 0) {
        pinned_.push_back(all[i]);
        continue;
      }
      m.set_current_cpu(spv::CpuId{static_cast<uint32_t>(i % kCpus)});
      MustOk(m.dma().UnmapSingle(dev_, all[i], 2048, DmaDirection::kFromDevice), "hole unmap");
    }
    {
      auto span = log_.Open(span_flush_, &m.clock());
      m.iommu().FlushNow();
    }

    for (size_t i = 0; i < kBufBytes.size(); ++i) {
      bufs_[i] = Must(m.slab().Kmalloc(kBufBytes[i], "perfbench_churn"), "kmalloc");
    }
    sg_.clear();
    for (int i = 0; i < 4; ++i) {
      sg_.push_back({Must(m.slab().Kmalloc(1024, "perfbench_sg"), "kmalloc"), 1024});
    }
    probe_buf_ = Must(m.slab().Kmalloc(kProbeBytes, "perfbench_probe"), "kmalloc");
    MustOk(m.kmem().Write(probe_buf_, probe_pattern_), "probe pattern");

    WarmUp(kWarmupOps, options_.corrupt_one_check,
           [this](size_t i, OpCounter& warm) { RunOp(i, warm); }, "dma_churn warm-up");
  }

  void Teardown(Report& report) override {
    spv::core::Machine& m = *machine_;
    for (Iova iova : pinned_) {
      if (!m.dma().UnmapSingle(dev_, iova, 2048, DmaDirection::kFromDevice).ok()) {
        report.Fail("dma_churn: unmap of a pinned mapping failed");
      }
    }
    pinned_.clear();
    AuditNoLiveMappings(m, log_, report, "dma_churn");
    TeardownMachine(machine_, log_, report, "dma_churn");
  }

  void Round(OpCounter& ops) override {
    for (size_t i = 0; i < ops_.size(); ++i) {
      RunOp(i, ops);
      if ((i & 0xfff) == 0xfff) {
        // Idle time between bursts lets the deferred timer run, like a host.
        machine_->clock().AdvanceUs(100);
        auto span = log_.Open(span_timer_, &machine_->clock());
        machine_->iommu().ProcessDeferredTimer();
      }
    }
  }

  void BeginTimed() override { before_ = SnapLayers(*machine_, {dev_}); }

  void EndTimed(Report& report, uint64_t timed_ops) override {
    ReportLayerCounters(report, before_, SnapLayers(*machine_, {dev_}), timed_ops, *machine_);
  }

 private:
  void RunOp(size_t i, OpCounter& ops) {
    spv::core::Machine& m = *machine_;
    const Op& op = ops_[i];
    m.set_current_cpu(spv::CpuId{op.cpu});
    log_.set_op(i);
    auto op_span = log_.Open(span_op_, &m.clock());
    const uint64_t before = m.clock().now();
    bool ok = true;
    switch (op.kind) {
      case Kind::kSingle: {
        const uint64_t len = kBufBytes[op.buf];
        spv::Result<Iova> iova = spv::Unavailable("unmapped");
        {
          auto span = log_.Open(span_map_, &m.clock());
          iova = m.dma().MapSingle(dev_, bufs_[op.buf], len, DmaDirection::kFromDevice,
                                   "perfbench_churn");
        }
        ok = iova.ok();
        if (ok) {
          auto span = log_.Open(span_unmap_, &m.clock());
          ok = m.dma().UnmapSingle(dev_, *iova, len, DmaDirection::kFromDevice).ok();
        }
        break;
      }
      case Kind::kSg4: {
        spv::Result<std::vector<Iova>> iovas = spv::Unavailable("unmapped");
        {
          auto span = log_.Open(span_map_sg_, &m.clock());
          iovas = m.dma().MapSg(dev_, sg_, DmaDirection::kToDevice, "perfbench_sg");
        }
        ok = iovas.ok();
        if (ok) {
          auto span = log_.Open(span_unmap_sg_, &m.clock());
          ok = m.dma().UnmapSg(dev_, *iovas, sg_, DmaDirection::kToDevice).ok();
        }
        break;
      }
      case Kind::kProbe:
        ok = Probe();
        break;
    }
    ops.Record(ok, m.clock().now() - before);
  }

  // Map, read back through the IOMMU, unmap, and confirm the strict unmap
  // revoked access before returning.
  bool Probe() {
    spv::core::Machine& m = *machine_;
    spv::Result<Iova> iova = spv::Unavailable("unmapped");
    {
      auto span = log_.Open(span_map_, &m.clock());
      iova = m.dma().MapSingle(dev_, probe_buf_, kProbeBytes, DmaDirection::kBidirectional,
                               "perfbench_probe");
    }
    if (!iova.ok()) {
      return false;
    }
    std::array<uint8_t, kProbeBytes> seen{};
    spv::Status read = spv::OkStatus();
    {
      auto span = log_.Open(span_read_, &m.clock());
      read = m.iommu().DeviceRead(dev_, *iova, seen);
    }
    if (options_.corrupt_one_check) {
      seen[kProbeBytes / 2] ^= 0x01;
      options_.corrupt_one_check = false;
    }
    bool ok = read.ok() && std::memcmp(seen.data(), probe_pattern_.data(), kProbeBytes) == 0;
    spv::Status unmap = spv::OkStatus();
    {
      auto span = log_.Open(span_unmap_, &m.clock());
      unmap = m.dma().UnmapSingle(dev_, *iova, kProbeBytes, DmaDirection::kBidirectional);
    }
    ok = ok && unmap.ok();
    spv::Status stale = spv::OkStatus();
    {
      auto span = log_.Open(span_read_, &m.clock());
      stale = m.iommu().DeviceRead(dev_, *iova, seen);
    }
    return ok && !stale.ok();  // strict: the unmapped IOVA must fault
  }

  Options options_;
  SpanLog& log_;
  std::vector<Op> ops_;
  std::vector<uint8_t> probe_pattern_;
  std::unique_ptr<spv::core::Machine> machine_;
  const DeviceId dev_{1};
  std::vector<Iova> pinned_;
  std::array<Kva, kBufBytes.size()> bufs_{};
  std::vector<spv::dma::SgEntry> sg_;
  Kva probe_buf_;
  LayerCounters before_;
  uint32_t span_op_, span_map_, span_unmap_, span_map_sg_, span_unmap_sg_, span_read_,
      span_timer_, span_flush_;
};

}  // namespace

std::unique_ptr<Workload> MakeDmaChurn(const Options& options, SpanLog& log) {
  return std::make_unique<DmaChurn>(options, log);
}

}  // namespace perfbench
