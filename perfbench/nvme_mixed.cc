// nvme_mixed: block IO on two NVMe controllers sharing one machine.
//
// Setup: deferred invalidation, trust policy on with a 64-page bounce pool
// (as bench_nvme_io sizes it for the 18-page chained command). nvme0 is
// promoted to trusted before Init and serves zero-copy PRP; nvme1 stays
// untrusted and runs on sync bounce rings.
//
// Op: one NVMe command from a seeded mix across both controllers — a
// 1-block read, an 8-block write, or a 144-block chained write+read (two
// PRP-list segments). Every read is compared with the pattern last written
// to its LBAs; the read buffer is scrubbed first so a read that moved no
// bytes cannot pass.
//
// This moves bytes through device DMA, PhysicalMemory, BouncePool copy and
// scrub and PRP frag segments, with reads beside writes and bounce beside
// direct, so a change that speeds one path and slows the other shows.

#include <array>
#include <cstring>

#include "device/device_port.h"
#include "layers.h"
#include "nvme/nvme_controller.h"
#include "nvme/nvme_driver.h"
#include "workload.h"

namespace perfbench {
namespace {

using spv::Kva;
using spv::nvme::kLbaSize;

constexpr size_t kOpsPerRound = 3000;
constexpr size_t kWarmupOps = 64;
constexpr uint16_t kChainedBlocks = 144;
constexpr size_t kPatternBlocks = 4096;  // shared pool the writes draw from

enum class Kind : uint8_t { kRead1, kWrite8, kChained };
constexpr std::array<const char*, 3> kKindNames = {"read_1blk", "write_8blk", "rw_chained"};

struct Op {
  Kind kind = Kind::kRead1;
  uint8_t ctrl = 0;        // 0: trusted/direct, 1: untrusted/bounce
  uint64_t lba = 0;
  uint64_t pattern = 0;    // block offset into the pattern pool (writes)
};

struct Controller {
  spv::nvme::NvmeDriver* driver = nullptr;
  std::unique_ptr<spv::nvme::NvmeController> device;
  Kva buf;
  std::vector<uint8_t> shadow;  // what the media must hold, per LBA
};

uint16_t Blocks(Kind kind) {
  switch (kind) {
    case Kind::kRead1: return 1;
    case Kind::kWrite8: return 8;
    case Kind::kChained: return kChainedBlocks;
  }
  return 1;
}

class NvmeMixed : public Workload {
 public:
  NvmeMixed(const Options& options, SpanLog& log) : options_(options), log_(log) {
    const uint64_t capacity = spv::nvme::NvmeController::Config{}.capacity_blocks;
    // Exact mix per controller, an even split over the three kinds. The
    // seed orders it and picks LBAs and patterns. bench_nvme_io's op counts
    // (5:5:2) would put the median op on the edge between the 302- and
    // 452-cycle clusters of zero-copy commands, whose sizes depend on the op
    // order, so sim_cycles_p50 would flip between them with the seed; the
    // even split keeps it inside the 452-cycle cluster.
    spv::Xoshiro256 rng(options.seed);
    for (size_t i = 0; i < kOpsPerRound; ++i) {
      Op op;
      op.ctrl = static_cast<uint8_t>(i % 2);
      op.kind = static_cast<Kind>((i / 2) % 3);
      ops_.push_back(op);
    }
    SeededShuffle(ops_, rng);
    for (Op& op : ops_) {
      const uint16_t blocks = Blocks(op.kind);
      op.lba = rng.NextBelow(capacity - blocks + 1);
      op.pattern = rng.NextBelow(kPatternBlocks - blocks + 1);
    }
    patterns_.resize(kPatternBlocks * kLbaSize);
    FillPattern(patterns_, options.seed * 0x9e37 + 11);
    scrub_.assign(kChainedBlocks * kLbaSize, 0xa5);
    readback_.resize(kChainedBlocks * kLbaSize);
    span_op_ = log.Name("bench.op");
    for (int c = 0; c < 2; ++c) {
      for (size_t k = 0; k < kKindNames.size(); ++k) {
        span_io_[c][k] =
            log.Name(std::string("nvme.") + (c == 0 ? "direct." : "bounce.") + kKindNames[k]);
      }
    }
    span_timer_ = log.Name("iommu.process_deferred_timer");
  }

  void Setup() override {
    spv::core::MachineConfig config;
    config.seed = 2;
    config.iommu.mode = spv::iommu::InvalidationMode::kDeferred;
    config.policy.enabled = true;
    config.policy.bounce_pages = 64;
    machine_ = BootMachine(config, log_);
    spv::core::Machine& m = *machine_;
    for (int c = 0; c < 2; ++c) {
      Controller& ctrl = ctrls_[c];
      spv::nvme::NvmeDriver::Config driver_config;
      driver_config.name = c == 0 ? "nvme0" : "nvme1";
      ctrl.driver = &m.AddNvmeDriver(driver_config);
      const spv::DeviceId dev = ctrl.driver->device_id();
      if (c == 0) {
        // untrusted -> probation -> trusted: zero-copy from the first doorbell.
        MustOk(m.policy()->Promote(dev, "perfbench"), "promote");
        MustOk(m.policy()->Promote(dev, "perfbench"), "promote");
      }
      ctrl.device = std::make_unique<spv::nvme::NvmeController>(
          spv::device::DevicePort{m.iommu(), dev});
      ctrl.driver->AttachDevice(ctrl.device.get());
      MustOk(ctrl.driver->Init(), "nvme Init");
      const auto want = c == 0 ? spv::dma::ServiceMode::kZeroCopy
                               : spv::dma::ServiceMode::kBounceSync;
      if (ctrl.driver->service_mode() != want) {
        MustOk(spv::Internal("unexpected service mode"), driver_config.name.c_str());
      }
      ctrl.buf = Must(m.slab().Kmalloc(kChainedBlocks * kLbaSize, "perfbench_nvme_buf"),
                      "kmalloc");
      ctrl.shadow.assign(ctrl.device->capacity_blocks() * kLbaSize, 0);
    }
    WarmUp(kWarmupOps, options_.corrupt_one_check,
           [this](size_t i, OpCounter& warm) { RunOp(i, warm); }, "nvme_mixed warm-up");
  }

  void Teardown(Report& report) override {
    spv::core::Machine& m = *machine_;
    for (Controller& ctrl : ctrls_) {
      if (!ctrl.driver->Shutdown().ok()) {
        report.Fail("nvme_mixed: driver shutdown failed");
      }
      if (!m.slab().Kfree(ctrl.buf).ok()) {
        report.Fail("nvme_mixed: kfree of the IO buffer failed");
      }
    }
    AuditNoLiveMappings(m, log_, report, "nvme_mixed");
    if (m.bounce_pool() == nullptr || !m.bounce_pool()->Audit().ok()) {
      report.Fail("nvme_mixed: BouncePool::Audit failed");
    }
    TeardownMachine(machine_, log_, report, "nvme_mixed");
    for (Controller& ctrl : ctrls_) {
      ctrl.device.reset();
      ctrl.driver = nullptr;
    }
  }

  void Round(OpCounter& ops) override {
    for (size_t i = 0; i < ops_.size(); ++i) {
      RunOp(i, ops);
    }
  }

  void BeginTimed() override {
    before_ = SnapLayers(*machine_, Devices());
    before_nvme_ = SnapNvme();
  }

  void EndTimed(Report& report, uint64_t timed_ops) override {
    ReportLayerCounters(report, before_, SnapLayers(*machine_, Devices()), timed_ops,
                        *machine_);
    const std::array<uint64_t, 3> after = SnapNvme();
    report.Set("nvme.prp_segments_per_op",
               timed_ops ? static_cast<double>(after[0] - before_nvme_[0]) /
                               static_cast<double>(timed_ops)
                         : 0.0,
               "1/op");
    report.Set("nvme.io_errors", static_cast<double>(after[1] - before_nvme_[1]), "count");
    report.Set("nvme.poll_deadline_hits", static_cast<double>(after[2] - before_nvme_[2]),
               "count");
  }

 private:
  std::vector<spv::DeviceId> Devices() const {
    return {ctrls_[0].driver->device_id(), ctrls_[1].driver->device_id()};
  }

  // prp segments built, io errors, poll deadline hits — summed over drivers.
  std::array<uint64_t, 3> SnapNvme() const {
    std::array<uint64_t, 3> out{};
    for (const Controller& ctrl : ctrls_) {
      out[0] += ctrl.driver->prp_segments_built();
      out[1] += ctrl.driver->io_errors();
      out[2] += ctrl.driver->poll_deadline_hits();
    }
    return out;
  }

  // Writes `blocks` pattern blocks to `lba` and records them in the shadow.
  bool Write(Controller& ctrl, const Op& op, uint16_t blocks) {
    const std::span<const uint8_t> data(patterns_.data() + op.pattern * kLbaSize,
                                        blocks * kLbaSize);
    if (!machine_->kmem().Write(ctrl.buf, data).ok()) {
      return false;
    }
    if (!ctrl.driver->WriteBlocks(op.lba, blocks, ctrl.buf).ok()) {
      return false;
    }
    std::memcpy(ctrl.shadow.data() + op.lba * kLbaSize, data.data(), data.size());
    return true;
  }

  // Reads `blocks` from `lba` into a scrubbed buffer and compares them with
  // the shadow.
  bool ReadAndCheck(Controller& ctrl, const Op& op, uint16_t blocks) {
    const size_t bytes = blocks * kLbaSize;
    if (!machine_->kmem().Write(ctrl.buf, std::span<const uint8_t>(scrub_.data(), bytes)).ok()) {
      return false;
    }
    if (!ctrl.driver->ReadBlocks(op.lba, blocks, ctrl.buf).ok()) {
      return false;
    }
    const std::span<uint8_t> seen(readback_.data(), bytes);
    if (!machine_->kmem().Read(ctrl.buf, seen).ok()) {
      return false;
    }
    if (options_.corrupt_one_check) {
      seen[bytes / 2] ^= 0x01;
      options_.corrupt_one_check = false;
    }
    return std::memcmp(seen.data(), ctrl.shadow.data() + op.lba * kLbaSize, bytes) == 0;
  }

  void RunOp(size_t i, OpCounter& ops) {
    spv::core::Machine& m = *machine_;
    const Op& op = ops_[i];
    Controller& ctrl = ctrls_[op.ctrl];
    log_.set_op(i);
    const uint64_t before = m.clock().now();
    bool ok = true;
    {
      auto op_span = log_.Open(span_op_, &m.clock());
      const uint16_t blocks = Blocks(op.kind);
      const uint32_t io_span = span_io_[op.ctrl][static_cast<size_t>(op.kind)];
      switch (op.kind) {
        case Kind::kRead1: {
          auto span = log_.Open(io_span, &m.clock());
          ok = ReadAndCheck(ctrl, op, blocks);
          break;
        }
        case Kind::kWrite8: {
          auto span = log_.Open(io_span, &m.clock());
          ok = Write(ctrl, op, blocks);
          break;
        }
        case Kind::kChained: {
          auto span = log_.Open(io_span, &m.clock());
          ok = Write(ctrl, op, blocks) && ReadAndCheck(ctrl, op, blocks);
          break;
        }
      }
      auto span = log_.Open(span_timer_, &m.clock());
      m.iommu().ProcessDeferredTimer();
    }
    ops.Record(ok, m.clock().now() - before);
    m.clock().AdvanceUs(2);  // host idle between commands
  }

  Options options_;
  SpanLog& log_;
  std::vector<Op> ops_;
  std::vector<uint8_t> patterns_;
  std::vector<uint8_t> scrub_;
  std::vector<uint8_t> readback_;
  std::unique_ptr<spv::core::Machine> machine_;
  std::array<Controller, 2> ctrls_;
  LayerCounters before_;
  std::array<uint64_t, 3> before_nvme_{};
  uint32_t span_op_;
  uint32_t span_io_[2][3];
  uint32_t span_timer_;
};

}  // namespace

std::unique_ptr<Workload> MakeNvmeMixed(const Options& options, SpanLog& log) {
  return std::make_unique<NvmeMixed>(options, log);
}

}  // namespace perfbench
