// Tests for D-KASAN: the four report classes (§4.2), event plumbing from the
// allocators and DMA API, and the Figure-3 workload.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/machine.h"
#include "device/malicious_nic.h"
#include "dkasan/dkasan.h"
#include "dkasan/workload.h"
#include "net/nic_driver.h"
#include "test_digest.h"

namespace spv::dkasan {
namespace {

class DkasanFixture : public ::testing::Test {
 protected:
  DkasanFixture() : machine_(MakeConfig()), dkasan_(machine_.layout()) {
    dkasan_.Attach(machine_.slab());
    dkasan_.Attach(machine_.dma());
    dkasan_.set_dedup(false);
  }

  static core::MachineConfig MakeConfig() {
    core::MachineConfig config;
    config.seed = 99;
    config.iommu.mode = iommu::InvalidationMode::kStrict;
    return config;
  }

  DeviceId AttachDevice() {
    const DeviceId device{42};
    machine_.iommu().AttachDevice(device);
    return device;
  }

  void TearDown() override {
    Status invariants = machine_.CheckInvariants();
    EXPECT_TRUE(invariants.ok()) << invariants.message();
  }

  core::Machine machine_;
  DKasan dkasan_;
};

TEST_F(DkasanFixture, CleanAllocationsProduceNoReports) {
  auto a = machine_.slab().Kmalloc(512, "clean_a");
  auto b = machine_.slab().Kmalloc(512, "clean_b");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(machine_.slab().Kfree(*a).ok());
  ASSERT_TRUE(machine_.slab().Kfree(*b).ok());
  EXPECT_TRUE(dkasan_.reports().empty());
}

TEST_F(DkasanFixture, MapAfterAllocDetected) {
  // An I/O buffer and an unrelated object share a page; mapping the I/O
  // buffer exposes the object.
  const DeviceId device = AttachDevice();
  auto io_buf = machine_.slab().Kmalloc(512, "driver_io_buf");
  auto secret = machine_.slab().Kmalloc(512, "sock_alloc_inode+0x4f/0x120");
  ASSERT_TRUE(io_buf.ok());
  ASSERT_TRUE(secret.ok());
  auto iova = machine_.dma().MapSingle(device, *io_buf, 512,
                                       dma::DmaDirection::kFromDevice, "drv_map");
  ASSERT_TRUE(iova.ok());

  auto reports = dkasan_.ReportsOfKind(ReportKind::kMapAfterAlloc);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].kva, *secret);
  EXPECT_EQ(reports[0].site, "sock_alloc_inode+0x4f/0x120");
  EXPECT_EQ(reports[0].rights, iommu::AccessRights::kWrite);
}

TEST_F(DkasanFixture, AllocAfterMapDetected) {
  const DeviceId device = AttachDevice();
  auto io_buf = machine_.slab().Kmalloc(1024, "driver_io_buf");
  ASSERT_TRUE(io_buf.ok());
  auto iova = machine_.dma().MapSingle(device, *io_buf, 1024,
                                       dma::DmaDirection::kBidirectional, "drv_map");
  ASSERT_TRUE(iova.ok());
  // New object lands on the same (mapped) page: same size class.
  auto late = machine_.slab().Kmalloc(1024, "assoc_array_insert+0xa9/0x7e0");
  ASSERT_TRUE(late.ok());

  auto reports = dkasan_.ReportsOfKind(ReportKind::kAllocAfterMap);
  ASSERT_GE(reports.size(), 1u);
  EXPECT_EQ(reports[0].kva, *late);
  EXPECT_EQ(reports[0].rights, iommu::AccessRights::kBidirectional);
}

TEST_F(DkasanFixture, AccessAfterMapDetected) {
  const DeviceId device = AttachDevice();
  auto io_buf = machine_.slab().Kmalloc(2048, "driver_io_buf");
  ASSERT_TRUE(io_buf.ok());
  auto iova = machine_.dma().MapSingle(device, *io_buf, 2048,
                                       dma::DmaDirection::kFromDevice, "drv_map");
  ASSERT_TRUE(iova.ok());
  ASSERT_TRUE(machine_.kmem().WriteU64(*io_buf, 1).ok());

  auto reports = dkasan_.ReportsOfKind(ReportKind::kAccessAfterMap);
  ASSERT_GE(reports.size(), 1u);
  EXPECT_EQ(reports[0].kva, *io_buf);
}

TEST_F(DkasanFixture, MultipleMapDetected) {
  // Figure 3 line 1: a buffer mapped twice — READ and WRITE — merges to
  // [READ, WRITE].
  const DeviceId device = AttachDevice();
  auto buf = machine_.slab().Kmalloc(2048, "__alloc_skb+0xe0/0x3f0");
  ASSERT_TRUE(buf.ok());
  auto a = machine_.dma().MapSingle(device, *buf, 512, dma::DmaDirection::kFromDevice,
                                    "rx_map");
  auto b = machine_.dma().MapSingle(device, *buf + 512, 512, dma::DmaDirection::kToDevice,
                                    "tx_map");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  auto reports = dkasan_.ReportsOfKind(ReportKind::kMultipleMap);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].rights, iommu::AccessRights::kBidirectional);
}

TEST_F(DkasanFixture, UnmapClearsShadow) {
  const DeviceId device = AttachDevice();
  auto buf = machine_.slab().Kmalloc(4096, "driver_io_buf");
  ASSERT_TRUE(buf.ok());
  auto iova = machine_.dma().MapSingle(device, *buf, 4096,
                                       dma::DmaDirection::kFromDevice, "drv_map");
  ASSERT_TRUE(iova.ok());
  ASSERT_TRUE(machine_.dma()
                  .UnmapSingle(device, *iova, 4096, dma::DmaDirection::kFromDevice)
                  .ok());
  dkasan_.ClearReports();
  ASSERT_TRUE(machine_.kmem().WriteU64(*buf, 1).ok());
  auto late = machine_.slab().Kmalloc(4096, "late");
  ASSERT_TRUE(late.ok());
  EXPECT_TRUE(dkasan_.reports().empty());
}

TEST_F(DkasanFixture, ReportLineMatchesFigure3Format) {
  Report report;
  report.kind = ReportKind::kAllocAfterMap;
  report.size = 512;
  report.rights = iommu::AccessRights::kBidirectional;
  report.site = "__alloc_skb+0xe0/0x3f0";
  EXPECT_EQ(report.ToLine(1).substr(0, 45),
            "[1] size 512 [READ, WRITE] __alloc_skb+0xe0/0");
}

TEST_F(DkasanFixture, DedupSuppressesRepeats) {
  dkasan_.set_dedup(true);
  const DeviceId device = AttachDevice();
  for (int i = 0; i < 5; ++i) {
    auto buf = machine_.slab().Kmalloc(2048, "dup_site");
    ASSERT_TRUE(buf.ok());
    auto a = machine_.dma().MapSingle(device, *buf, 256, dma::DmaDirection::kFromDevice,
                                      "map_site");
    auto b = machine_.dma().MapSingle(device, *buf + 1024, 256,
                                      dma::DmaDirection::kFromDevice, "map_site");
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
  }
  EXPECT_EQ(dkasan_.count(ReportKind::kMultipleMap), 1u);
}

TEST(DkasanWorkloadTest, RouterWorkloadSurfacesForwardingExposures) {
  core::MachineConfig config;
  config.seed = 17;
  config.net.forwarding_enabled = true;
  core::Machine machine{config};
  DKasan dkasan{machine.layout()};
  dkasan.Attach(machine.slab());
  dkasan.Attach(machine.dma());
  net::NicDriver::Config driver_config;
  driver_config.rx_ring_size = 16;
  driver_config.rx_buf_len = 1728;
  net::NicDriver& nic = machine.AddNicDriver(driver_config);
  device::MaliciousNic device{device::DevicePort{machine.iommu(), nic.device_id()}};
  nic.AttachDevice(&device);
  dkasan.Attach(machine.frag_pool(CpuId{0}));

  auto stats = RunRouterWorkload(machine, nic, device, {.iterations = 200});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->rx_packets, 100u);
  EXPECT_GT(stats->tx_packets, 50u);
  // Forwarded frags re-map RX pages for TX: multiple-map findings.
  EXPECT_GT(dkasan.count(ReportKind::kMultipleMap), 0u);
}

TEST(DkasanWorkloadTest, RouterWorkloadRequiresForwarding) {
  core::MachineConfig config;
  config.seed = 18;
  core::Machine machine{config};
  net::NicDriver& nic = machine.AddNicDriver({});
  device::MaliciousNic device{device::DevicePort{machine.iommu(), nic.device_id()}};
  EXPECT_FALSE(RunRouterWorkload(machine, nic, device, {}).ok());
}

TEST(DkasanWorkloadTest, StorageWorkloadSurfacesTypeDExposures) {
  core::MachineConfig config;
  config.seed = 19;
  core::Machine machine{config};
  DKasan dkasan{machine.layout()};
  dkasan.Attach(machine.slab());
  dkasan.Attach(machine.dma());

  auto stats = RunStorageWorkload(machine, DeviceId{30}, {.iterations = 300});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->rx_packets, 100u);  // I/Os submitted
  // Filesystem metadata co-located with BIDIRECTIONAL I/O buffers.
  const uint64_t exposures = dkasan.count(ReportKind::kMapAfterAlloc) +
                             dkasan.count(ReportKind::kAllocAfterMap);
  EXPECT_GT(exposures, 0u);
  // The exposed sites include real filesystem metadata.
  bool fs_site = false;
  for (const Report& report : dkasan.reports()) {
    if (report.site.find("inode") != std::string::npos ||
        report.site.find("jbd2") != std::string::npos ||
        report.site.find("d_alloc") != std::string::npos ||
        report.site.find("ext4") != std::string::npos) {
      fs_site = true;
    }
  }
  EXPECT_TRUE(fs_site) << dkasan.FormatReport();
}

TEST(DkasanWorkloadTest, BuildAndPingWorkloadReproducesFigure3) {
  core::MachineConfig config;
  config.seed = 7;
  config.iommu.mode = iommu::InvalidationMode::kDeferred;  // Linux default
  core::Machine machine{config};
  DKasan dkasan{machine.layout()};
  dkasan.Attach(machine.slab());
  dkasan.Attach(machine.dma());

  net::NicDriver::Config driver_config;
  driver_config.rx_ring_size = 16;
  driver_config.rx_buf_len = 1728;
  net::NicDriver& nic = machine.AddNicDriver(driver_config);
  device::MaliciousNic device{device::DevicePort{machine.iommu(), nic.device_id()}};
  nic.AttachDevice(&device);
  dkasan.Attach(machine.frag_pool(CpuId{0}));

  auto stats = RunBuildAndPingWorkload(machine, nic, device, {});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->allocs, 100u);
  EXPECT_GT(stats->rx_packets, 10u);
  EXPECT_GT(stats->tx_packets, 5u);

  // The workload must surface random exposures: at minimum access-after-map
  // (drivers parse mapped RX pages) and multiple-map (page_frag co-location).
  EXPECT_GT(dkasan.count(ReportKind::kAccessAfterMap), 0u);
  EXPECT_GT(dkasan.count(ReportKind::kMultipleMap), 0u);
  EXPECT_GT(dkasan.count(ReportKind::kMapAfterAlloc) +
                dkasan.count(ReportKind::kAllocAfterMap),
            0u);

  const std::string text = dkasan.FormatReport();
  EXPECT_NE(text.find("D-KASAN report"), std::string::npos);
  EXPECT_NE(text.find("size"), std::string::npos);
}

// ---- Equivalence with recorded output --------------------------------------------
//
// The three bench_fig3_dkasan workloads, run exactly as that bench runs them.
// The report texts, per-kind counts and (with dedup off) the FNV-1a digest
// of the full report are goldens recorded before D-KASAN's shadow state
// switched to borrowed site views and its dedup check moved ahead of report
// composition: both changes must leave every finding as it was.

enum class Fig3Workload { kBuildAndPing, kRouter, kStorage };

struct Fig3Run {
  std::string report;
  std::array<uint64_t, 4> counts{};  // alloc-after-map, map-after-alloc, access-after-map, multiple-map
  size_t reports = 0;
  uint64_t published = 0;            // kDkasanReport events seen on the bus
  uint64_t counted = 0;              // the hub's dkasan.reports counter
};

// Counts kDkasanReport events.
class ReportSink : public telemetry::EventSink {
 public:
  void OnEvent(const telemetry::Event& event) override {
    count += event.kind == telemetry::EventKind::kDkasanReport ? 1 : 0;
  }
  uint64_t count = 0;
};

using spv::testing::Fnv1a;

// `observed` adds what attack_detect runs D-KASAN under: telemetry recording
// on and every report published on the bus.
Fig3Run RunFig3(Fig3Workload workload, bool dedup, bool observed) {
  core::MachineConfig config;
  config.seed = workload == Fig3Workload::kBuildAndPing ? 20210426
                : workload == Fig3Workload::kRouter     ? 20210427
                                                        : 20210428;
  config.iommu.mode = iommu::InvalidationMode::kDeferred;
  config.net.forwarding_enabled = workload == Fig3Workload::kRouter;
  config.telemetry.enabled = observed;
  core::Machine machine{config};
  DKasan dkasan{machine.layout()};
  dkasan.set_dedup(dedup);
  ReportSink sink;
  if (observed) {
    dkasan.set_telemetry(&machine.telemetry());
    machine.telemetry().AddSink(&sink);
  }
  dkasan.Attach(machine.slab());
  dkasan.Attach(machine.dma());
  bool ok = false;
  if (workload == Fig3Workload::kStorage) {
    ok = RunStorageWorkload(machine, DeviceId{30}, {.iterations = 400}).ok();
  } else {
    net::NicDriver::Config driver_config;
    if (workload == Fig3Workload::kBuildAndPing) {
      driver_config.name = "mlx5_core";
    }
    driver_config.rx_ring_size = 16;
    driver_config.rx_buf_len = 1728;
    net::NicDriver& nic = machine.AddNicDriver(driver_config);
    device::MaliciousNic device{device::DevicePort{machine.iommu(), nic.device_id()}};
    nic.AttachDevice(&device);
    dkasan.Attach(machine.frag_pool(CpuId{0}));
    if (workload == Fig3Workload::kBuildAndPing) {
      (void)machine.stack().CreateSocket(7, false);
      ok = RunBuildAndPingWorkload(machine, nic, device, {.iterations = 600}).ok();
    } else {
      ok = RunRouterWorkload(machine, nic, device, {.iterations = 300}).ok();
    }
    machine.frag_pool(CpuId{0}).RemoveObserver(&dkasan);
  }
  EXPECT_TRUE(ok);
  Fig3Run run;
  run.report = dkasan.FormatReport(SIZE_MAX);
  run.counts = {dkasan.count(ReportKind::kAllocAfterMap), dkasan.count(ReportKind::kMapAfterAlloc),
                dkasan.count(ReportKind::kAccessAfterMap), dkasan.count(ReportKind::kMultipleMap)};
  run.reports = dkasan.reports().size();
  run.published = sink.count;
  run.counted = machine.telemetry().counter_value("dkasan.reports");
  machine.slab().RemoveObserver(&dkasan);
  machine.dma().RemoveObserver(&dkasan);
  if (observed) {
    machine.telemetry().RemoveSink(&sink);
  }
  return run;
}

struct Fig3Golden {
  Fig3Workload workload;
  const char* name;
  const char* report;                  // dedup on
  std::array<uint64_t, 4> counts;      // dedup on
  std::array<uint64_t, 4> all_counts;  // dedup off
  uint64_t all_digest;                 // Fnv1a of the full dedup-off report
};

const Fig3Golden kFig3Goldens[] = {
    {Fig3Workload::kBuildAndPing, "build_and_ping",
      "D-KASAN report (11 findings)\n"
      "  [1] size 2048 [WRITE] mlx5_core_alloc_rx_buf  (alloc-after-map: object allocated on a DMA-mapped page (mapped at mlx5_core_map_rx))\n"
      "  [2] size 2048 [WRITE] mlx5_core_map_rx  (multiple-map: page mapped 2 times (first at mlx5_core_map_rx))\n"
      "  [3] size 2048 [WRITE] mlx5_core_alloc_rx_buf  (map-after-alloc: containing page mapped after allocation (map at mlx5_core_map_rx))\n"
      "  [4] size 312 [WRITE] cpu-write on page mapped at mlx5_core_map_rx  (access-after-map)\n"
      "  [5] size 4 [WRITE] cpu-read on page mapped at mlx5_core_map_rx  (access-after-map)\n"
      "  [6] size 512 [READ] __do_execve_file.isra.0+0x287/0x1080  (map-after-alloc: containing page mapped after allocation (map at mlx5_core_xmit_linear))\n"
      "  [7] size 512 [READ] tcp_sendmsg+0x2d0/0x800  (map-after-alloc: containing page mapped after allocation (map at mlx5_core_xmit_linear))\n"
      "  [8] size 1 [READ] cpu-read on page mapped at mlx5_core_xmit_linear  (access-after-map)\n"
      "  [9] size 512 [READ] __alloc_skb+0xe0/0x3f0  (map-after-alloc: containing page mapped after allocation (map at mlx5_core_xmit_linear))\n"
      "  [10] size 512 [READ] assoc_array_insert+0xa9/0x7e0  (map-after-alloc: containing page mapped after allocation (map at mlx5_core_xmit_linear))\n"
      "  [11] size 512 [READ] load_elf_phdrs+0xbf/0x130  (map-after-alloc: containing page mapped after allocation (map at mlx5_core_xmit_linear))\n",
     {1, 6, 3, 1}, {108, 689, 1286, 108}, 4881170229300372598ull},
    {Fig3Workload::kRouter, "router",
      "D-KASAN report (9 findings)\n"
      "  [1] size 2048 [WRITE] nic0_alloc_rx_buf  (alloc-after-map: object allocated on a DMA-mapped page (mapped at nic0_map_rx))\n"
      "  [2] size 2048 [WRITE] nic0_map_rx  (multiple-map: page mapped 2 times (first at nic0_map_rx))\n"
      "  [3] size 2048 [WRITE] nic0_alloc_rx_buf  (map-after-alloc: containing page mapped after allocation (map at nic0_map_rx))\n"
      "  [4] size 312 [WRITE] cpu-write on page mapped at nic0_map_rx  (access-after-map)\n"
      "  [5] size 4 [WRITE] cpu-read on page mapped at nic0_map_rx  (access-after-map)\n"
      "  [6] size 1 [READ] cpu-read on page mapped at nic0_xmit_linear  (access-after-map)\n"
      "  [7] size 387 [READ] nic0_xmit_frag  (multiple-map: page mapped 2 times (first at nic0_xmit_linear))\n"
      "  [8] size 1241 [READ] nic0_xmit_linear  (multiple-map: page mapped 2 times (first at nic0_xmit_linear))\n"
      "  [9] size 1 [READ] cpu-read on page mapped at nic0_xmit_frag  (access-after-map)\n",
     {1, 1, 4, 3}, {158, 758, 2158, 308}, 4346794895524301598ull},
    {Fig3Workload::kStorage, "storage",
      "D-KASAN report (5 findings)\n"
      "  [1] size 2048 [READ, WRITE] nvme_map_data+0x90/0x230  (alloc-after-map: object allocated on a DMA-mapped page (mapped at nvme_queue_rq))\n"
      "  [2] size 2048 [READ, WRITE] nvme_queue_rq  (multiple-map: page mapped 2 times (first at nvme_queue_rq))\n"
      "  [3] size 2048 [READ, WRITE] nvme_map_data+0x90/0x230  (map-after-alloc: containing page mapped after allocation (map at nvme_queue_rq))\n"
      "  [4] size 1024 [READ, WRITE] alloc_inode+0x1a/0xa0  (map-after-alloc: containing page mapped after allocation (map at nvme_queue_rq))\n"
      "  [5] size 1024 [READ, WRITE] alloc_inode+0x1a/0xa0  (alloc-after-map: object allocated on a DMA-mapped page (mapped at nvme_queue_rq))\n",
     {2, 2, 0, 1}, {117, 136, 0, 89}, 11738013372162119261ull},
};

class DkasanEquivalenceTest : public ::testing::TestWithParam<Fig3Golden> {};

TEST_P(DkasanEquivalenceTest, ReportMatchesRecordedOutput) {
  const Fig3Golden& golden = GetParam();
  for (const bool observed : {false, true}) {
    const Fig3Run run = RunFig3(golden.workload, /*dedup=*/true, observed);
    EXPECT_EQ(run.report, golden.report) << "observed=" << observed;
    EXPECT_EQ(run.counts, golden.counts) << "observed=" << observed;
    if (observed) {
      EXPECT_EQ(run.published, run.reports);
      EXPECT_EQ(run.counted, run.reports);
    }
  }
}

TEST_P(DkasanEquivalenceTest, DedupOffBuildsAndPublishesEveryReport) {
  const Fig3Golden& golden = GetParam();
  const Fig3Run run = RunFig3(golden.workload, /*dedup=*/false, /*observed=*/true);
  EXPECT_EQ(run.counts, golden.all_counts);
  EXPECT_EQ(Fnv1a(run.report), golden.all_digest);
  EXPECT_EQ(run.published, run.reports) << "every report is published";
  EXPECT_EQ(run.counted, run.reports);
}

INSTANTIATE_TEST_SUITE_P(Fig3, DkasanEquivalenceTest, ::testing::ValuesIn(kFig3Goldens),
                         [](const ::testing::TestParamInfo<Fig3Golden>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace spv::dkasan
