// Tests for the defense implementations: the bounce-buffer DMA path
// (Markuze et al. [47]) behind the trust policy, and DAMN-style segregated
// network allocation [49], including the §9 caveat that DAMN does not remove
// skb_shared_info.

#include <gtest/gtest.h>

#include <vector>

#include "attack/attacks.h"
#include "attack/mini_cpu.h"
#include "core/machine.h"
#include "device/malicious_nic.h"
#include "dma/bounce_pool.h"
#include "slab/page_frag.h"

namespace spv {
namespace {

constexpr DeviceId kDev{5};

// [47] as the machine runs it: the trust policy armed, the device registered
// untrusted, so every machine.dma() map bounces through its 8-page pool.
class BounceFixture : public ::testing::Test {
 protected:
  BounceFixture() : machine_(MakeConfig()) {
    machine_.iommu().AttachDevice(kDev);
    EXPECT_TRUE(machine_.policy()
                    ->RegisterDevice(kDev, policy::DeviceIdentity{"bounce-dev", "test"})
                    .ok());
  }

  static core::MachineConfig MakeConfig() {
    core::MachineConfig config;
    config.seed = 5150;
    config.iommu.mode = iommu::InvalidationMode::kDeferred;  // worst case for zero-copy
    config.policy.enabled = true;
    config.policy.bounce_pages = 8;
    return config;
  }

  void TearDown() override {
    Status invariants = machine_.CheckInvariants();
    EXPECT_TRUE(invariants.ok()) << invariants.message();
  }

  dma::DmaApi& dma() { return machine_.dma(); }
  dma::BouncePool& pool() { return *machine_.bounce_pool(); }

  core::Machine machine_;
};

// Collects the pool's kBounceMap events.
class BounceMapSink : public telemetry::EventSink {
 public:
  void OnEvent(const telemetry::Event& event) override {
    if (event.kind == telemetry::EventKind::kBounceMap) {
      maps.push_back(event);
    }
  }
  std::vector<telemetry::Event> maps;
};

TEST_F(BounceFixture, ToDeviceCopiesDataIn) {
  Kva buf = *machine_.slab().Kmalloc(512, "tx");
  ASSERT_TRUE(machine_.kmem().Fill(buf, 512, 0x5a).ok());
  auto iova = dma().MapSingle(kDev, buf, 512, dma::DmaDirection::kToDevice);
  ASSERT_TRUE(iova.ok());
  ASSERT_TRUE(pool().Owns(kDev, *iova));
  std::vector<uint8_t> read(512);
  ASSERT_TRUE(machine_.iommu().DeviceRead(kDev, *iova, std::span<uint8_t>(read)).ok());
  for (uint8_t b : read) {
    EXPECT_EQ(b, 0x5a);
  }
  EXPECT_GE(pool().copies(), 1u);
}

TEST_F(BounceFixture, FromDeviceCopiesBackOnUnmap) {
  Kva buf = *machine_.slab().Kmalloc(256, "rx");
  auto iova = dma().MapSingle(kDev, buf, 256, dma::DmaDirection::kFromDevice);
  ASSERT_TRUE(iova.ok());
  std::vector<uint8_t> packet(256, 0x77);
  ASSERT_TRUE(machine_.iommu().DeviceWrite(kDev, *iova, packet).ok());
  // Not visible in the real buffer until ownership returns at unmap.
  EXPECT_EQ(*machine_.kmem().ReadU8(buf), 0x00);
  ASSERT_TRUE(dma().UnmapSingle(kDev, *iova, 256, dma::DmaDirection::kFromDevice).ok());
  EXPECT_EQ(*machine_.kmem().ReadU8(buf), 0x77);
  EXPECT_EQ(*machine_.kmem().ReadU8(buf + 255), 0x77);
}

TEST_F(BounceFixture, SubPageVulnerabilityEliminated) {
  // A secret shares the page with the mapped buffer — through the bounce
  // pool the device sees only the buffer bytes, never the neighbours.
  Kva buf = *machine_.slab().Kmalloc(512, "io");
  Kva secret = *machine_.slab().Kmalloc(512, "keys");
  ASSERT_EQ(buf.PageBase(), secret.PageBase());
  ASSERT_TRUE(machine_.kmem().WriteU64(secret, 0x5ec2e7).ok());
  ASSERT_TRUE(machine_.kmem().Fill(buf, 512, 0x11).ok());

  auto iova = dma().MapSingle(kDev, buf, 512, dma::DmaDirection::kBidirectional);
  ASSERT_TRUE(iova.ok());
  // Scan the whole device-visible page: buffer bytes (at the buffer's own
  // sub-page offset) + zeros, nothing else.
  std::vector<uint8_t> page(kPageSize);
  ASSERT_TRUE(
      machine_.iommu().DeviceRead(kDev, iova->PageBase(), std::span<uint8_t>(page)).ok());
  const uint64_t start = iova->page_offset();
  for (uint64_t off = 0; off < kPageSize; ++off) {
    if (off >= start && off < start + 512) {
      EXPECT_EQ(page[off], 0x11);
    } else {
      ASSERT_EQ(page[off], 0x00) << "leak at bounce page offset " << off;
    }
  }
}

TEST_F(BounceFixture, NoStaleWindowOnKernelData) {
  // After unmap the device can still write the (statically mapped) bounce
  // page — but the kernel buffer is untouched: containment, not revocation.
  Kva buf = *machine_.slab().Kmalloc(128, "io");
  auto iova = dma().MapSingle(kDev, buf, 128, dma::DmaDirection::kFromDevice);
  ASSERT_TRUE(iova.ok());
  ASSERT_TRUE(dma().UnmapSingle(kDev, *iova, 128, dma::DmaDirection::kFromDevice).ok());
  std::vector<uint8_t> garbage(64, 0xff);
  EXPECT_TRUE(machine_.iommu().DeviceWrite(kDev, *iova, garbage).ok());
  EXPECT_EQ(*machine_.kmem().ReadU8(buf), 0x00);  // kernel data unaffected
}

TEST_F(BounceFixture, NoInvalidationTrafficOnIoPath) {
  Kva buf = *machine_.slab().Kmalloc(256, "io");
  const uint64_t inval_before = machine_.iommu().stats().invalidation_cycles;
  for (int i = 0; i < 50; ++i) {
    auto iova = dma().MapSingle(kDev, buf, 256, dma::DmaDirection::kBidirectional);
    ASSERT_TRUE(iova.ok());
    ASSERT_TRUE(
        dma().UnmapSingle(kDev, *iova, 256, dma::DmaDirection::kBidirectional).ok());
  }
  EXPECT_EQ(machine_.iommu().stats().invalidation_cycles, inval_before);
}

TEST_F(BounceFixture, PoolExhaustionAndValidation) {
  Kva buf = *machine_.slab().Kmalloc(64, "io");
  std::vector<Iova> held;
  for (int i = 0; i < 8; ++i) {
    auto iova = dma().MapSingle(kDev, buf, 64, dma::DmaDirection::kToDevice);
    ASSERT_TRUE(iova.ok());
    held.push_back(*iova);
  }
  EXPECT_EQ(dma().MapSingle(kDev, buf, 64, dma::DmaDirection::kToDevice).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_FALSE(dma().MapSingle(kDev, buf, 8192, dma::DmaDirection::kToDevice).ok());
  EXPECT_FALSE(dma().UnmapSingle(kDev, held[0], 99, dma::DmaDirection::kToDevice).ok());
  ASSERT_TRUE(dma().UnmapSingle(kDev, held[0], 64, dma::DmaDirection::kToDevice).ok());
}

// The exact price of [47] on the RX path: once the pool slot's translation
// is warm, map (scrub, nothing to copy in) -> device write (one IOTLB hit)
// -> unmap (copy the packet out) costs one hit plus one copy, nothing more.
TEST_F(BounceFixture, WarmRxCycleCostsOneHitPlusOneCopy) {
  struct Case {
    uint64_t len;
    uint64_t cycles;
  };
  for (const Case c : {Case{64, 3}, Case{1500, 49}, Case{4096, 129}}) {
    Kva buf = *machine_.slab().Kmalloc(c.len, "rx_buf");
    const std::vector<uint8_t> packet(c.len, 0xab);
    const auto rx_cycle = [&] {
      auto iova = dma().MapSingle(kDev, buf, c.len, dma::DmaDirection::kFromDevice, "rx");
      ASSERT_TRUE(iova.ok());
      ASSERT_TRUE(machine_.iommu().DeviceWrite(kDev, *iova, packet).ok());
      ASSERT_TRUE(
          dma().UnmapSingle(kDev, *iova, c.len, dma::DmaDirection::kFromDevice).ok());
    };
    rx_cycle();  // warm the slot's IOTLB entry
    const uint64_t before = machine_.clock().now();
    rx_cycle();
    const uint64_t expected =
        iommu::kIotlbHitCycles + dma::kCopyCyclesPerCacheLine * ((c.len + 63) / 64);
    EXPECT_EQ(expected, c.cycles) << "len " << c.len;
    EXPECT_EQ(machine_.clock().now() - before, c.cycles) << "len " << c.len;
    ASSERT_TRUE(machine_.slab().Kfree(buf).ok());
  }
}

// A bounce_map event's aux is the copy cycles the map actually spent: none
// for a device-writable buffer (nothing is copied in), the clock's advance
// for a device-readable one, summed over per-slot chunks when it spans pages.
TEST_F(BounceFixture, MapEventReportsCopyCyclesSpent) {
  BounceMapSink sink;
  machine_.telemetry().AddSink(&sink);
  Kva rx = *machine_.slab().Kmalloc(1500, "rx");
  Kva wide = *machine_.slab().Kmalloc(2 * kPageSize, "wide");
  ASSERT_EQ(wide.page_offset(), 0u);
  struct Case {
    Kva kva;
    uint64_t len;
    dma::DmaDirection dir;
  };
  const Case cases[] = {
      {rx, 1500, dma::DmaDirection::kFromDevice},
      {rx, 1500, dma::DmaDirection::kToDevice},
      // Starts 1000 bytes into a page and crosses into the next: two chunks,
      // 3096 + 1000 bytes, so 49 + 16 cache lines rather than 64.
      {wide + 1000, kPageSize, dma::DmaDirection::kToDevice},
  };
  std::vector<uint64_t> spent;
  for (const Case& c : cases) {
    const uint64_t before = machine_.clock().now();
    auto iova = dma().MapSingle(kDev, c.kva, c.len, c.dir);
    ASSERT_TRUE(iova.ok());
    spent.push_back(machine_.clock().now() - before);
    ASSERT_TRUE(dma().UnmapSingle(kDev, *iova, c.len, c.dir).ok());
  }
  machine_.telemetry().RemoveSink(&sink);
  ASSERT_EQ(sink.maps.size(), 3u);
  EXPECT_EQ(sink.maps[0].aux, 0u);
  EXPECT_EQ(spent[0], 0u);
  EXPECT_EQ(sink.maps[1].aux, spent[1]);
  EXPECT_EQ(spent[1], dma::kCopyCyclesPerCacheLine * 24);
  EXPECT_EQ(sink.maps[2].aux, spent[2]);
  EXPECT_EQ(spent[2], dma::kCopyCyclesPerCacheLine * (49 + 16));
}

// ---- DAMN ------------------------------------------------------------------------

class DamnFixture : public ::testing::Test {
 protected:
  DamnFixture() : machine_(MakeConfig()) {
    damn_pool_ = std::make_unique<slab::PageFragPool>(
        machine_.page_db(), machine_.page_alloc(), machine_.layout(),
        net::SkbAllocator::kDamnPoolCpu);
    machine_.skb_alloc().set_damn_pool(damn_pool_.get());
  }

  static core::MachineConfig MakeConfig() {
    core::MachineConfig config;
    config.seed = 4949;
    config.iommu.mode = iommu::InvalidationMode::kDeferred;
    return config;
  }

  void TearDown() override {
    Status invariants = machine_.CheckInvariants();
    EXPECT_TRUE(invariants.ok()) << invariants.message();
  }

  core::Machine machine_;
  std::unique_ptr<slab::PageFragPool> damn_pool_;
};

TEST_F(DamnFixture, TxBuffersComeFromDedicatedRegion) {
  auto skb = machine_.skb_alloc().AllocSkb(300, "tcp_sendmsg");
  ASSERT_TRUE(skb.ok());
  EXPECT_EQ((*skb)->linear.source, net::BufSource::kPageFrag);
  EXPECT_EQ((*skb)->linear.cpu, net::SkbAllocator::kDamnPoolCpu);
  // The page holds no kmalloc objects — nothing to leak.
  auto pfn = machine_.layout().DirectMapKvaToPhys((*skb)->head)->pfn();
  EXPECT_TRUE(machine_.slab().ObjectsOnPage(pfn).empty());
  EXPECT_EQ(machine_.page_db().Get(pfn).owner, mem::PageOwner::kPageFrag);
  ASSERT_TRUE(machine_.skb_alloc().FreeSkb(std::move(*skb), nullptr).ok());
}

TEST_F(DamnFixture, PoisonedTxBlockedAtKaslrBootstrap) {
  // With sockets and TX buffers segregated, the echo leaks no init_net
  // pointer: attribute (1) is unobtainable and the attack dies early.
  net::NicDriver::Config driver_config;
  driver_config.rx_ring_size = 32;
  driver_config.rx_buf_len = 1728;
  net::NicDriver& nic = machine_.AddNicDriver(driver_config);
  device::MaliciousNic device{device::DevicePort{machine_.iommu(), nic.device_id()}};
  device.set_warm_iotlb_on_post(true);
  nic.AttachDevice(&device);
  machine_.stack().set_egress(&nic);
  attack::MiniCpu cpu{machine_.kmem(), machine_.layout()};
  machine_.stack().set_callback_invoker(&cpu);
  ASSERT_TRUE(machine_.stack().CreateSocket(7, true).ok());
  ASSERT_TRUE(nic.FillRxRing().ok());

  attack::AttackEnv env{machine_, nic, device, cpu};
  auto report = attack::PoisonedTxAttack::Run(env, {});
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->success);
  EXPECT_FALSE(report->kaslr.text_base.has_value()) << report->kaslr.ToString();
  EXPECT_FALSE(cpu.privilege_escalated());
}

TEST_F(DamnFixture, SharedInfoStillExposedDespiteDamn) {
  // §9: DAMN segregates memory but skb_shared_info is still built inside the
  // I/O buffer — the type (b) exposure survives.
  net::NicDriver::Config driver_config;
  driver_config.rx_ring_size = 4;
  driver_config.rx_buf_len = 1728;
  net::NicDriver& nic = machine_.AddNicDriver(driver_config);
  device::MaliciousNic device{device::DevicePort{machine_.iommu(), nic.device_id()}};
  nic.AttachDevice(&device);
  ASSERT_TRUE(nic.FillRxRing().ok());
  const auto descriptor = device.rx_posted().front();
  const uint64_t shinfo_off = attack::SharedInfoOffset(nic.rx_buffer_bytes());
  std::vector<uint8_t> poison(8, 0xee);
  EXPECT_TRUE(device.port()
                  .Write(descriptor.iova + shinfo_off + net::SharedInfoLayout::kDestructorArg,
                         poison)
                  .ok());
}

}  // namespace
}  // namespace spv
