// Heap-allocation budget of the steady-state per-op DMA path.
//
// This binary replaces the global operator new with a counting one. It
// counts only while an AllocWindow is open, so set-up, gtest's own
// bookkeeping and every other test binary are unaffected. Assertions run
// after the window closes.
//
// The contract (DESIGN.md §7): once warm, map → device access → unmap
// through iommu and dma makes no heap allocation in either invalidation
// mode, observed or not (telemetry, spans, windows, forensics and D-KASAN
// on), and a NIC RX → echo → TX-completion cycle stays within a fixed
// per-packet budget.

// GCC inlines the replaced operator delete into library code and then flags
// its free() of memory the replaced operator new got from malloc().
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <span>

#include "core/machine.h"
#include "dkasan/dkasan.h"
#include "net/layouts.h"
#include "net/nic_device_model.h"
#include "net/nic_driver.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace

void* operator new(std::size_t size) {
  void* p = CountedAlloc(size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t size) {
  void* p = CountedAlloc(size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace spv {
namespace {

// Counts global operator new calls from construction until Stop().
class AllocWindow {
 public:
  AllocWindow() {
    g_allocations.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
  }
  ~AllocWindow() { g_counting.store(false, std::memory_order_relaxed); }
  AllocWindow(const AllocWindow&) = delete;
  AllocWindow& operator=(const AllocWindow&) = delete;

  uint64_t Stop() {
    g_counting.store(false, std::memory_order_relaxed);
    return g_allocations.load(std::memory_order_relaxed);
  }
};

constexpr int kWarmupCycles = 4096;
constexpr int kMeasuredCycles = 1000;

// ---- iommu + dma: map -> device write/read -> unmap ----------------------------

class DmaPathAllocTest : public ::testing::TestWithParam<iommu::InvalidationMode> {};

TEST_P(DmaPathAllocTest, WarmMapAccessUnmapAllocatesNothing) {
  core::MachineConfig config;
  config.iommu.mode = GetParam();
  core::Machine machine(config);
  const DeviceId dev{7};
  machine.iommu().AttachDevice(dev);
  // A one-page kmalloc buffer and a two-page buddy buffer, alternated.
  const std::array<uint64_t, 2> lens = {2048, 6000};
  std::array<Kva, 2> bufs{};
  for (size_t i = 0; i < bufs.size(); ++i) {
    Result<Kva> buf = machine.slab().Kmalloc(lens[i], "alloc_budget_buf");
    ASSERT_TRUE(buf.ok());
    bufs[i] = *buf;
  }
  std::array<uint8_t, 256> pattern{};
  std::array<uint8_t, 256> seen{};
  for (size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<uint8_t>(i * 7 + 1);
  }

  uint64_t failures = 0;
  auto cycle = [&](int i) {
    const size_t which = static_cast<size_t>(i) % bufs.size();
    Result<Iova> iova = machine.dma().MapSingle(dev, bufs[which], lens[which],
                                                dma::DmaDirection::kBidirectional);
    if (!iova.ok()) {
      ++failures;
      return;
    }
    const Iova at = *iova + (lens[which] - pattern.size());
    if (!machine.iommu().DeviceWrite(dev, at, pattern).ok() ||
        !machine.iommu().DeviceRead(dev, at, seen).ok() || seen != pattern) {
      ++failures;
    }
    if (!machine.dma()
             .UnmapSingle(dev, *iova, lens[which], dma::DmaDirection::kBidirectional)
             .ok()) {
      ++failures;
    }
  };
  for (int i = 0; i < kWarmupCycles; ++i) {
    cycle(i);
  }
  AllocWindow window;
  for (int i = 0; i < kMeasuredCycles; ++i) {
    cycle(i);
  }
  const uint64_t allocations = window.Stop();
  EXPECT_EQ(failures, 0u);
  EXPECT_EQ(allocations, 0u) << "heap allocations in " << kMeasuredCycles
                             << " warm map/access/unmap cycles";
  if (GetParam() == iommu::InvalidationMode::kDeferred) {
    // The window spans several capacity drains of the flush queue.
    EXPECT_GT(machine.iommu().stats().flush_capacity_drains, 0u);
  }
  EXPECT_TRUE(machine.CheckInvariants().ok());
}

INSTANTIATE_TEST_SUITE_P(
    Modes, DmaPathAllocTest,
    ::testing::Values(iommu::InvalidationMode::kStrict, iommu::InvalidationMode::kDeferred),
    [](const ::testing::TestParamInfo<iommu::InvalidationMode>& info) {
      return iommu::InvalidationModeName(info.param);
    });

// ---- the observed path: telemetry, spans, windows, forensics and D-KASAN -------

// Everything attack_detect turns on: the trace ring recording, span tracing
// with the WindowTracker, the flight recorder and incident engine, and
// D-KASAN attached to the slab allocator and the DMA API publishing onto the
// bus. Once warm, an observed event costs no heap: sites travel as borrowed
// views, the ring overwrites its slots in place, metric lookups are cached
// and D-KASAN's and the forensics ledger's records are recycled.
//
// The tracer's span records and the tracker's window records are histories
// that only grow; their vectors double now and then. Each doubling is one
// allocation and is counted separately (it must be rare), so the per-op
// budget itself is an exact zero.
class ObservedPathAllocTest : public ::testing::TestWithParam<iommu::InvalidationMode> {
 protected:
  static core::MachineConfig ObservedConfig(iommu::InvalidationMode mode) {
    core::MachineConfig config;
    config.iommu.mode = mode;
    config.telemetry.enabled = true;
    config.trace.enabled = true;
    config.trace.track_windows = true;
    config.forensics.enabled = true;
    return config;
  }

  ObservedPathAllocTest() : machine_(ObservedConfig(GetParam())), dkasan_(machine_.layout()) {
    dkasan_.set_telemetry(&machine_.telemetry());
    dkasan_.Attach(machine_.slab());
    dkasan_.Attach(machine_.dma());
    machine_.iommu().AttachDevice(kDev);
  }
  ~ObservedPathAllocTest() override {
    machine_.slab().RemoveObserver(&dkasan_);
    machine_.dma().RemoveObserver(&dkasan_);
  }

  // Capacity of the two append-only histories; a change is one allocation.
  std::pair<size_t, size_t> HistoryCapacity() {
    return {machine_.tracer()->records().capacity(), machine_.windows()->windows().capacity()};
  }

  // Runs `op` kWarmupCycles times, checks the trace ring has wrapped, then
  // returns the allocations of kMeasuredCycles more that were not history
  // growth. `growths` receives the number of history doublings.
  template <typename Op>
  uint64_t SteadyAllocations(Op op, uint64_t* growths) {
    for (int i = 0; i < kWarmupCycles; ++i) {
      op(i);
    }
    EXPECT_GT(machine_.telemetry().ring().dropped(), 0u) << "the trace ring must have wrapped";
    *growths = 0;
    std::pair<size_t, size_t> capacity = HistoryCapacity();
    AllocWindow window;
    for (int i = 0; i < kMeasuredCycles; ++i) {
      op(i);
      const std::pair<size_t, size_t> now = HistoryCapacity();
      *growths += (now.first != capacity.first ? 1 : 0) + (now.second != capacity.second ? 1 : 0);
      capacity = now;
    }
    const uint64_t allocations = window.Stop();
    return allocations - std::min(allocations, *growths);
  }

  // Two digits: "dma.unmaps.dev42" is past the small-string limit, so the
  // per-device counter name must not be built on the heap.
  static constexpr DeviceId kDev{42};
  core::Machine machine_;
  dkasan::DKasan dkasan_;
};

TEST_P(ObservedPathAllocTest, WarmKmallocKfreeAllocatesNothing) {
  uint64_t failures = 0;
  auto cycle = [&](int i) {
    Result<Kva> kva = machine_.slab().Kmalloc(i % 2 == 0 ? 256 : 1500, "alloc_budget_obj");
    if (!kva.ok() || !machine_.slab().Kfree(*kva).ok()) {
      ++failures;
    }
  };
  uint64_t growths = 0;
  const uint64_t allocations = SteadyAllocations(cycle, &growths);
  EXPECT_EQ(failures, 0u);
  EXPECT_EQ(allocations, 0u) << "heap allocations in " << kMeasuredCycles
                             << " observed Kmalloc/Kfree cycles";
  EXPECT_EQ(growths, 0u);
  EXPECT_TRUE(machine_.CheckInvariants().ok());
}

TEST_P(ObservedPathAllocTest, WarmMapWriteUnmapAllocatesNothing) {
  // A one-page kmalloc buffer (a sub-page window on every map) and a
  // two-page buddy buffer, alternated. The kmalloc buffer's page neighbour
  // stays live, so every map of it is a D-KASAN map-after-alloc finding:
  // reported once, then deduplicated.
  const std::array<uint64_t, 2> lens = {2048, 6000};
  std::array<Kva, 2> bufs{};
  for (size_t i = 0; i < bufs.size(); ++i) {
    Result<Kva> buf = machine_.slab().Kmalloc(lens[i], "alloc_budget_buf");
    ASSERT_TRUE(buf.ok());
    bufs[i] = *buf;
  }
  ASSERT_TRUE(machine_.slab().Kmalloc(2048, "alloc_budget_neighbour").ok());
  std::array<uint8_t, 256> pattern{};
  for (size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<uint8_t>(i * 7 + 1);
  }
  uint64_t failures = 0;
  auto cycle = [&](int i) {
    const size_t which = static_cast<size_t>(i) % bufs.size();
    Result<Iova> iova = machine_.dma().MapSingle(kDev, bufs[which], lens[which],
                                                 dma::DmaDirection::kBidirectional);
    if (!iova.ok()) {
      ++failures;
      return;
    }
    if (!machine_.iommu().DeviceWrite(kDev, *iova + (lens[which] - pattern.size()), pattern)
             .ok()) {
      ++failures;
    }
    if (!machine_.dma()
             .UnmapSingle(kDev, *iova, lens[which], dma::DmaDirection::kBidirectional)
             .ok()) {
      ++failures;
    }
  };
  uint64_t growths = 0;
  const uint64_t allocations = SteadyAllocations(cycle, &growths);
  EXPECT_EQ(failures, 0u);
  EXPECT_EQ(allocations, 0u) << "heap allocations in " << kMeasuredCycles
                             << " observed map/write/unmap cycles, history growth excluded";
  EXPECT_LE(growths, 4u) << "span and window histories grow by doubling";
  // The path really was observed: spans, windows, forensics records and
  // D-KASAN findings all came out of it.
  EXPECT_GT(machine_.tracer()->records().size(), 0u);
  EXPECT_GT(machine_.windows()->windows().size(), 0u);
  EXPECT_GT(machine_.flight_recorder()->total_recorded(), 0u);
  EXPECT_FALSE(dkasan_.reports().empty());
  EXPECT_TRUE(machine_.CheckInvariants().ok());
}

INSTANTIATE_TEST_SUITE_P(
    Modes, ObservedPathAllocTest,
    ::testing::Values(iommu::InvalidationMode::kStrict, iommu::InvalidationMode::kDeferred),
    [](const ::testing::TestParamInfo<iommu::InvalidationMode>& info) {
      return iommu::InvalidationModeName(info.param);
    });

// ---- net: RX -> echo -> TX completion ------------------------------------------

// Records posted descriptors in fixed storage, so the device side of the
// loop allocates nothing itself.
class EchoNic : public net::NicDeviceModel {
 public:
  void OnRxPosted(const net::RxPostedDescriptor& descriptor) override {
    rx_[rx_tail_++ % rx_.size()] = descriptor;
  }
  void OnTxPosted(const net::TxPostedDescriptor& descriptor) override {
    tx_ = descriptor;
    tx_posted_ = true;
  }

  bool PopRx(net::RxPostedDescriptor* out) {
    if (rx_head_ == rx_tail_) {
      return false;
    }
    *out = rx_[rx_head_++ % rx_.size()];
    return true;
  }
  bool TakeTx(net::TxPostedDescriptor* out) {
    if (!tx_posted_) {
      return false;
    }
    *out = tx_;
    tx_posted_ = false;
    return true;
  }

 private:
  std::array<net::RxPostedDescriptor, 256> rx_{};
  size_t rx_head_ = 0;
  size_t rx_tail_ = 0;
  net::TxPostedDescriptor tx_{};
  bool tx_posted_ = false;
};

constexpr uint16_t kEchoPort = 7;

// Wire bytes of `header` followed by `payload_len` pattern bytes.
size_t EncodeFrame(const net::PacketHeader& header, uint32_t payload_len,
                   std::span<uint8_t> out) {
  std::memset(out.data(), 0, net::PacketHeader::kSize);
  std::memcpy(out.data() + net::PacketHeader::kSrcIp, &header.src_ip, 4);
  std::memcpy(out.data() + net::PacketHeader::kDstIp, &header.dst_ip, 4);
  std::memcpy(out.data() + net::PacketHeader::kSrcPort, &header.src_port, 2);
  std::memcpy(out.data() + net::PacketHeader::kDstPort, &header.dst_port, 2);
  out[net::PacketHeader::kProto] = header.proto;
  std::memcpy(out.data() + net::PacketHeader::kLen, &header.payload_len, 2);
  std::memcpy(out.data() + net::PacketHeader::kSeq, &header.seq, 4);
  for (uint32_t i = 0; i < payload_len; ++i) {
    out[net::PacketHeader::kSize + i] = static_cast<uint8_t>(i * 13 + 5);
  }
  return net::PacketHeader::kSize + payload_len;
}

class NicEchoAllocTest : public ::testing::Test {
 protected:
  NicEchoAllocTest() : machine_(core::MachineConfig{}) {}

  void SetUp() override {
    driver_ = &machine_.AddNicDriver(net::NicDriver::Config{});
    driver_->AttachDevice(&nic_);
    machine_.stack().set_egress(driver_);
    ASSERT_TRUE(machine_.stack().CreateSocket(kEchoPort, /*echo=*/true).ok());
    ASSERT_TRUE(driver_->FillRxRing().ok());
  }

  // One request in, its echo read back by the device and completed. Returns
  // false on any failure; `echo_ok` reports whether the echoed payload
  // matched the request byte for byte.
  bool EchoOnce(uint32_t payload_len, uint32_t seq, bool* echo_ok) {
    const net::PacketHeader request{.src_ip = 0x0a000102,
                                    .dst_ip = machine_.stack().config().local_ip,
                                    .src_port = 4000,
                                    .dst_port = kEchoPort,
                                    .proto = net::kProtoUdp,
                                    .payload_len = static_cast<uint16_t>(payload_len),
                                    .seq = seq};
    const size_t frame_len = EncodeFrame(request, payload_len, frame_);
    net::RxPostedDescriptor rx;
    if (!nic_.PopRx(&rx) ||
        !machine_.iommu()
             .DeviceWrite(driver_->device_id(), rx.iova,
                          std::span<const uint8_t>(frame_.data(), frame_len))
             .ok()) {
      return false;
    }
    Result<net::SkBuffPtr> skb =
        driver_->CompleteRx(rx.index, static_cast<uint32_t>(frame_len));
    if (!skb.ok() || *skb == nullptr ||
        !machine_.stack().NapiGroReceive(std::move(*skb)).ok() ||
        !machine_.stack().NapiComplete().ok()) {
      return false;
    }
    net::TxPostedDescriptor tx;
    if (!nic_.TakeTx(&tx)) {
      return false;
    }
    size_t got = tx.linear_len;
    if (!machine_.iommu()
             .DeviceRead(driver_->device_id(), tx.linear_iova,
                         std::span<uint8_t>(echo_.data(), tx.linear_len))
             .ok()) {
      return false;
    }
    for (size_t f = 0; f < tx.frag_iovas.size(); ++f) {
      if (!machine_.iommu()
               .DeviceRead(driver_->device_id(), tx.frag_iovas[f],
                           std::span<uint8_t>(echo_.data() + got, tx.frag_lens[f]))
               .ok()) {
        return false;
      }
      got += tx.frag_lens[f];
    }
    *echo_ok = got == frame_len &&
               std::memcmp(echo_.data() + net::PacketHeader::kSize,
                           frame_.data() + net::PacketHeader::kSize, payload_len) == 0;
    return machine_.stack().OnTxCompleted(tx.index).ok();
  }

  // Warms the path with `payload_len` datagrams, then returns the heap
  // allocations per packet over kMeasuredCycles more.
  double AllocationsPerPacket(uint32_t payload_len) {
    bool ok = true;
    bool echo_ok = true;
    for (int i = 0; i < kWarmupCycles; ++i) {
      ok = ok && EchoOnce(payload_len, static_cast<uint32_t>(i), &echo_ok) && echo_ok;
    }
    AllocWindow window;
    for (int i = 0; i < kMeasuredCycles; ++i) {
      ok = ok && EchoOnce(payload_len, static_cast<uint32_t>(i), &echo_ok) && echo_ok;
    }
    const uint64_t allocations = window.Stop();
    EXPECT_TRUE(ok) << "echo loop failed";
    return static_cast<double>(allocations) / kMeasuredCycles;
  }

  core::Machine machine_;
  net::NicDriver* driver_ = nullptr;
  EchoNic nic_;
  std::array<uint8_t, 4096> frame_{};
  std::array<uint8_t, 4096> echo_{};
};

// What a warm echo still allocates per packet, none of it in iommu, dma or
// the page allocator: the RX sk_buff BuildSkb wraps around the ring buffer
// and the TX sk_buff the reply is built in (SkBuff objects are not pooled),
// exactly 2 per packet. Retiring a 32 KiB page_frag region and carving a
// fresh one reuses parked buddy free-list nodes (it cost ~0.1 per packet
// when every split and merge allocated a tree node).
constexpr double kSmallEchoBudget = 2.0;

// A 1024 B reply goes out through page-frag TX, which adds the first
// element of the TX skb's frag_buffers vector: exactly 3 per packet.
constexpr double kFragEchoBudget = 3.0;

TEST_F(NicEchoAllocTest, SmallDatagramEchoStaysWithinBudget) {
  const double per_packet = AllocationsPerPacket(64);
  EXPECT_LE(per_packet, kSmallEchoBudget) << "heap allocations per echoed packet";
  EXPECT_TRUE(machine_.CheckInvariants().ok());
}

TEST_F(NicEchoAllocTest, FragTxEchoStaysWithinBudget) {
  const double per_packet = AllocationsPerPacket(1024);
  EXPECT_LE(per_packet, kFragEchoBudget) << "heap allocations per echoed packet";
  EXPECT_TRUE(machine_.CheckInvariants().ok());
}

}  // namespace
}  // namespace spv
