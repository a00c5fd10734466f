// Golden digests of whole-system runs that drive the NIC and NVMe drivers:
// seeded soaks (report JSON, trust posture, incident document and telemetry
// trace) and a sequential 4-queue NIC echo (telemetry trace). Every value is
// deterministic for its seed, so the FNV-1a digests below pin the drivers'
// observable behaviour — every sim cycle, event, site name and counter — and
// a refactor of the driver plumbing must leave them unchanged. A digest that
// moves is a behaviour change: explain it, then re-record it.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "core/machine.h"
#include "device/malicious_nic.h"
#include "net/nic_driver.h"
#include "soak/soak.h"
#include "test_digest.h"

namespace spv {
namespace {

using testing::Fnv1a;

std::string Hex(uint64_t digest) {
  char text[32];
  std::snprintf(text, sizeof(text), "0x%016" PRIx64, digest);
  return text;
}

// ---- Soak ------------------------------------------------------------------------

struct SoakGolden {
  const char* name;
  soak::SoakConfig config;
  uint64_t report;    // SoakReport::ToJson()
  uint64_t posture;   // posture_json
  uint64_t incidents; // incidents_json
  uint64_t trace;     // LastTraceCsv()
};

soak::SoakConfig Seed42(uint64_t cycles) {
  soak::SoakConfig config;
  config.seed = 42;
  config.target_cycles = cycles;
  return config;
}

// FNV-1a of the empty string: the posture document of a run without the
// policy leg.
constexpr uint64_t kEmpty = 0x14650fb0739d0383;

std::vector<SoakGolden> SoakGoldens() {
  std::vector<SoakGolden> goldens;
  {
    // soak --seed 42 --cycles 4000000 (deferred, recovery on)
    goldens.push_back(SoakGolden{"default", Seed42(4'000'000), 0xe503a8be473d47bb,
                                 kEmpty, 0xfb8f07711762a04d, 0x6783da20386350e8});
  }
  {
    // soak --mode strict --no-recovery
    soak::SoakConfig config = Seed42(4'000'000);
    config.deferred = false;
    config.recovery_enabled = false;
    goldens.push_back(SoakGolden{"strict_no_recovery", config, 0x7812dfec559ac783, kEmpty,
                                 0xb46b40fbaf1f791b, 0x92115e20f8af1f3c});
  }
  {
    // soak --policy --degraded-drill: NVMe re-homes its rings live, the NIC
    // shrinks its RX ring in place.
    soak::SoakConfig config = Seed42(4'000'000);
    config.policy = true;
    config.degraded_drill = true;
    goldens.push_back(SoakGolden{"degraded_drill", config, 0x70366955060fcb4c, 0x1d93d1894f080185,
                                 0x38e3c0cc8c0a9743, 0x9df5afc712ac3fb1});
  }
  {
    // soak --legacy-path (IOVA rcache and walk cache off)
    soak::SoakConfig config = Seed42(4'000'000);
    config.fast_path = false;
    goldens.push_back(SoakGolden{"legacy_path", config, 0xd3dc5d7e5c9099af, kEmpty,
                                 0xaff22e59b9531942, 0xbf1b649cc0222077});
  }
  return goldens;
}

// gtest prints the case by name instead of dumping the struct's bytes.
void PrintTo(const SoakGolden& golden, std::ostream* os) { *os << golden.name; }

class DriverGoldenSoakTest : public ::testing::TestWithParam<SoakGolden> {};

TEST_P(DriverGoldenSoakTest, OutputsMatchRecordedDigests) {
  const SoakGolden& golden = GetParam();
  soak::SetTraceCapture(true);
  const soak::SoakReport report = soak::RunSoak(golden.config);
  soak::SetTraceCapture(false);
  ASSERT_TRUE(report.ok) << report.failure;
  EXPECT_EQ(Hex(Fnv1a(report.ToJson())), Hex(golden.report)) << "report JSON";
  EXPECT_EQ(Hex(Fnv1a(report.posture_json)), Hex(golden.posture)) << "posture JSON";
  EXPECT_EQ(Hex(Fnv1a(report.incidents_json)), Hex(golden.incidents)) << "incidents JSON";
  EXPECT_EQ(Hex(Fnv1a(soak::LastTraceCsv())), Hex(golden.trace)) << "trace CSV";
}

INSTANTIATE_TEST_SUITE_P(Seed42, DriverGoldenSoakTest, ::testing::ValuesIn(SoakGoldens()),
                         [](const ::testing::TestParamInfo<SoakGolden>& info) {
                           return std::string(info.param.name);
                         });

// ---- Multi-queue NIC echo --------------------------------------------------------

// kSequential 4-queue echo with telemetry and spans on: RSS-steered RX on
// every queue, the frame posted straight back out as TX on the same queue,
// TX completion, plus the refill-retry and watchdog polls a NAPI loop runs.
TEST(DriverGoldenEchoTest, FourQueueEchoTraceMatchesRecordedDigest) {
  core::MachineConfig config;
  config.seed = 2026;
  config.exec = ExecMode::kSequential;
  config.iommu.fast_path.num_cpus = 4;
  config.telemetry.enabled = true;
  config.telemetry.ring_capacity = 1 << 15;
  config.trace.enabled = true;
  core::Machine machine{config};

  net::NicDriver::Config nic_config;
  nic_config.name = "nic0";
  nic_config.num_queues = 4;
  nic_config.rx_ring_size = 8;
  nic_config.tx_ring_size = 8;
  net::NicDriver& nic = machine.AddNicDriver(nic_config);
  device::MaliciousNic device{device::DevicePort{machine.iommu(), nic.device_id()}};
  nic.AttachDevice(&device);
  ASSERT_TRUE(nic.FillAllRxRings().ok());

  uint64_t echoed = 0;
  for (uint16_t i = 0; i < 64; ++i) {
    const net::PacketHeader header{.src_ip = 0x0a000002u + i % 5u,
                                   .dst_ip = 0x0a000001,
                                   .src_port = static_cast<uint16_t>(4000 + i),
                                   .dst_port = 7,
                                   .proto = net::kProtoUdp};
    const uint32_t queue = nic.QueueForFlow(
        net::FlowTuple{header.src_ip, header.dst_ip, header.src_port, header.dst_port});
    const std::vector<uint8_t> payload(16 + (i % 7) * 40, static_cast<uint8_t>(i));
    Result<net::RxPostedDescriptor> descriptor = device.InjectRxOn(queue, header, payload);
    ASSERT_TRUE(descriptor.ok());
    Result<net::SkBuffPtr> skb = nic.CompleteRx(
        queue, descriptor->index,
        static_cast<uint32_t>(net::PacketHeader::kSize + payload.size()));
    ASSERT_TRUE(skb.ok());
    ASSERT_NE(*skb, nullptr);
    Result<uint32_t> tx = nic.PostTx(queue, std::move(*skb));
    ASSERT_TRUE(tx.ok());
    Result<net::SkBuffPtr> done = nic.CompleteTx(queue, *tx);
    ASSERT_TRUE(done.ok());
    ASSERT_TRUE(machine.skb_alloc().FreeSkb(std::move(*done), nullptr).ok());
    ++echoed;
    machine.clock().Advance(SimClock::UsToCycles(20));
    nic.RetryAllRefills();
    nic.CheckTxTimeout();
  }
  EXPECT_EQ(echoed, 64u);
  EXPECT_EQ(nic.rx_packets(), 64u);
  EXPECT_TRUE(nic.AuditQueues().ok());
  ASSERT_TRUE(nic.Shutdown().ok());
  EXPECT_EQ(machine.dma().live_mappings(), 0u);
  EXPECT_EQ(Hex(Fnv1a(machine.telemetry().ExportTraceCsv())), Hex(0x62d924344785e7b9));
}

}  // namespace
}  // namespace spv
