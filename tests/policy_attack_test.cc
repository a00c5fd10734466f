// Attack-class equivalence under bounce-buffer DMA: the paper's sub-page
// classes (a)/(d) — and frag co-residence (b) — reproduce against a trusted
// (zero-copy) device and are structurally defeated when the same device is
// untrusted, while the stale-IOTLB classes stay visible to the existing
// detectors on the direct path the bounce pool does not touch.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/machine.h"
#include "device/device_port.h"
#include "dma/bounce_pool.h"
#include "policy/policy.h"
#include "slab/page_frag.h"

namespace spv {
namespace {

constexpr uint64_t kSecret = 0x534543'52455421ull;    // "SECRET!"
constexpr uint64_t kEvil = 0xbadbadbadbadbadull;
constexpr uint64_t kLegit = 0x600dda7a600dda7aull;

core::MachineConfig AttackConfig(iommu::InvalidationMode mode) {
  core::MachineConfig config;
  config.seed = 21;
  config.iommu.mode = mode;
  config.telemetry.enabled = true;
  config.policy.enabled = true;
  return config;
}

// Registers a fresh driverless device and walks it to `trust`.
DeviceId PlugAt(core::Machine& machine, uint32_t id, policy::TrustState trust) {
  const DeviceId dev{id};
  machine.iommu().AttachDevice(dev);
  EXPECT_TRUE(machine.policy()
                  ->RegisterDevice(dev, policy::DeviceIdentity{"probe-nic", "nic"})
                  .ok());
  while (machine.policy()->state(dev) != trust) {
    EXPECT_TRUE(machine.policy()->Promote(dev, "test").ok());
  }
  return dev;
}

// Two same-class slab objects allocated back-to-back: the paper's type
// (a)/(d) co-location setup. Returns (victim, probe); asserts they share a
// page so the direct-mapping exposure is real, not hypothetical.
struct CoLocated {
  Kva victim;
  Kva probe;
};
CoLocated AllocNeighbours(core::Machine& machine, uint64_t len) {
  CoLocated pair{*machine.slab().Kmalloc(len, "victim"),
                 *machine.slab().Kmalloc(len, "probe")};
  EXPECT_EQ(pair.victim.PageBase(), pair.probe.PageBase())
      << "slab stopped co-locating; the probes below test nothing";
  return pair;
}

uint64_t ReadU64At(core::Machine& machine, Kva kva) {
  std::vector<uint8_t> bytes(8, 0);
  EXPECT_TRUE(machine.kmem().Read(kva, bytes).ok());
  uint64_t value = 0;
  std::memcpy(&value, bytes.data(), 8);
  return value;
}

void WriteU64At(core::Machine& machine, Kva kva, uint64_t value) {
  std::vector<uint8_t> bytes(8);
  std::memcpy(bytes.data(), &value, 8);
  EXPECT_TRUE(machine.kmem().Write(kva, bytes).ok());
}

// ---- Type (d): slab-neighbour exfiltration -------------------------------------

TEST(AttackEquivalence, TypeDReadLeaksDirectButNotBounced) {
  for (const policy::TrustState trust :
       {policy::TrustState::kTrusted, policy::TrustState::kUntrusted}) {
    core::Machine machine{AttackConfig(iommu::InvalidationMode::kStrict)};
    const DeviceId dev = PlugAt(machine, 40, trust);
    device::DevicePort port{machine.iommu(), dev};
    const CoLocated pair = AllocNeighbours(machine, 192);
    WriteU64At(machine, pair.victim, kSecret);

    Result<Iova> iova = machine.dma().MapSingle(
        dev, pair.probe, 192, dma::DmaDirection::kToDevice, "type_d_probe");
    ASSERT_TRUE(iova.ok());
    // The paper's read primitive: scan the whole device-visible page through
    // the probe buffer's translation.
    bool leaked = false;
    const Iova page = iova->PageBase();
    for (uint64_t off = 0; off + 8 <= kPageSize; off += 8) {
      Result<uint64_t> word = port.ReadU64(page + off);
      if (word.ok() && *word == kSecret) {
        leaked = true;
        break;
      }
    }
    if (trust == policy::TrustState::kTrusted) {
      // Zero-copy mapping covers the whole slab page: the neighbour's secret
      // is device-readable — the vulnerability the paper characterizes.
      EXPECT_TRUE(leaked);
      EXPECT_FALSE(machine.dma().IsBounced(dev, *iova));
    } else {
      // Bounce: the device sees a dedicated page holding only the probe's
      // own bytes over scrubbed zeros.
      EXPECT_FALSE(leaked);
      EXPECT_TRUE(machine.bounce_pool()->Owns(dev, *iova));
      EXPECT_TRUE(machine.dma().IsBounced(dev, *iova));
    }
    ASSERT_TRUE(
        machine.dma().UnmapSingle(dev, *iova, 192, dma::DmaDirection::kToDevice).ok());
    ASSERT_TRUE(machine.slab().Kfree(pair.probe).ok());
    ASSERT_TRUE(machine.slab().Kfree(pair.victim).ok());
    EXPECT_TRUE(machine.CheckInvariants().ok());
  }
}

// ---- Type (a): sub-page neighbour corruption -----------------------------------

TEST(AttackEquivalence, TypeAWriteCorruptsDirectButNotBounced) {
  for (const policy::TrustState trust :
       {policy::TrustState::kTrusted, policy::TrustState::kUntrusted}) {
    core::Machine machine{AttackConfig(iommu::InvalidationMode::kStrict)};
    const DeviceId dev = PlugAt(machine, 41, trust);
    device::DevicePort port{machine.iommu(), dev};
    const CoLocated pair = AllocNeighbours(machine, 192);
    WriteU64At(machine, pair.victim, kSecret);

    Result<Iova> iova = machine.dma().MapSingle(
        dev, pair.probe, 192, dma::DmaDirection::kFromDevice, "type_a_probe");
    ASSERT_TRUE(iova.ok());
    // One legit in-bounds write, then the overflow at the victim's offset
    // within the same device-visible page.
    ASSERT_TRUE(port.WriteU64(*iova, kLegit).ok());
    const Iova victim_iova = iova->PageBase() + pair.victim.page_offset();
    ASSERT_TRUE(port.WriteU64(victim_iova, kEvil).ok());
    ASSERT_TRUE(
        machine.dma().UnmapSingle(dev, *iova, 192, dma::DmaDirection::kFromDevice).ok());

    // The in-bounds write must arrive either way; the victim's fate is what
    // distinguishes the paths.
    EXPECT_EQ(ReadU64At(machine, pair.probe), kLegit);
    if (trust == policy::TrustState::kTrusted) {
      EXPECT_EQ(ReadU64At(machine, pair.victim), kEvil);  // paper type (a)
    } else {
      EXPECT_EQ(ReadU64At(machine, pair.victim), kSecret);  // copy-out clipped it
    }
    ASSERT_TRUE(machine.slab().Kfree(pair.probe).ok());
    ASSERT_TRUE(machine.slab().Kfree(pair.victim).ok());
    EXPECT_TRUE(machine.CheckInvariants().ok());
  }
}

// ---- Type (b): page_frag co-residence ------------------------------------------

TEST(AttackEquivalence, TypeBFragHarvestComesBackEmptyWhenBounced) {
  core::Machine machine{AttackConfig(iommu::InvalidationMode::kStrict)};
  const DeviceId dev = PlugAt(machine, 42, policy::TrustState::kUntrusted);
  device::DevicePort port{machine.iommu(), dev};
  slab::PageFragPool& frags = machine.frag_pool(CpuId{0});

  // Two carves off the same frag region: classic co-residence.
  Kva mine = *frags.Alloc(128, 1, "probe_frag");
  Kva theirs = *frags.Alloc(128, 1, "victim_frag");
  ASSERT_EQ(mine.PageBase(), theirs.PageBase());
  WriteU64At(machine, theirs, kSecret);

  Result<Iova> iova = machine.dma().MapSingle(dev, mine, 128,
                                              dma::DmaDirection::kToDevice, "b_probe");
  ASSERT_TRUE(iova.ok());
  bool harvested = false;
  const Iova page = iova->PageBase();
  for (uint64_t off = 0; off + 8 <= kPageSize; off += 8) {
    Result<uint64_t> word = port.ReadU64(page + off);
    if (word.ok() && *word == kSecret) {
      harvested = true;
      break;
    }
  }
  EXPECT_FALSE(harvested);
  ASSERT_TRUE(
      machine.dma().UnmapSingle(dev, *iova, 128, dma::DmaDirection::kToDevice).ok());
  ASSERT_TRUE(frags.Free(mine).ok());
  ASSERT_TRUE(frags.Free(theirs).ok());
  EXPECT_TRUE(machine.CheckInvariants().ok());
}

// ---- Stale-IOTLB classes stay caught -------------------------------------------

TEST(AttackEquivalence, StaleIotlbStillDetectedOnDirectPath) {
  core::Machine machine{AttackConfig(iommu::InvalidationMode::kDeferred)};
  const DeviceId dev = PlugAt(machine, 43, policy::TrustState::kTrusted);
  device::DevicePort port{machine.iommu(), dev};

  Kva buf = *machine.slab().Kmalloc(512, "stale_buf");
  Result<Iova> iova = machine.dma().MapSingle(dev, buf, 512,
                                              dma::DmaDirection::kFromDevice, "stale");
  ASSERT_TRUE(iova.ok());
  ASSERT_TRUE(port.WriteU64(*iova, 1).ok());  // warms the IOTLB
  ASSERT_TRUE(
      machine.dma().UnmapSingle(dev, *iova, 512, dma::DmaDirection::kFromDevice).ok());

  // Deferred mode: the translation still works until the flush, and the
  // IOMMU's stale-access accounting flags it the moment it is used — the
  // policy engine changed nothing on the trusted path.
  const uint64_t stale_before = machine.iommu().stats().stale_iotlb_accesses.load();
  ASSERT_TRUE(port.WriteU64(*iova, kEvil).ok());
  EXPECT_GT(machine.iommu().stats().stale_iotlb_accesses.load(), stale_before);
  machine.iommu().FlushNow();
  ASSERT_TRUE(machine.slab().Kfree(buf).ok());
  EXPECT_TRUE(machine.CheckInvariants().ok());
}

TEST(AttackEquivalence, BouncePathQueuesNoInvalidations) {
  core::Machine machine{AttackConfig(iommu::InvalidationMode::kDeferred)};
  const DeviceId dev = PlugAt(machine, 44, policy::TrustState::kUntrusted);
  device::DevicePort port{machine.iommu(), dev};

  Kva buf = *machine.slab().Kmalloc(512, "bounce_stale_buf");
  const uint64_t pending_before = machine.iommu().pending_invalidation_count();
  Result<Iova> iova = machine.dma().MapSingle(dev, buf, 512,
                                              dma::DmaDirection::kFromDevice, "stale");
  ASSERT_TRUE(iova.ok());
  ASSERT_TRUE(port.WriteU64(*iova, 1).ok());
  ASSERT_TRUE(
      machine.dma().UnmapSingle(dev, *iova, 512, dma::DmaDirection::kFromDevice).ok());

  // The pool's mappings are static: the unmap queued nothing, so there is no
  // Fig 6 window on this path — the class is eliminated, not just detected.
  EXPECT_EQ(machine.iommu().pending_invalidation_count(), pending_before);
  // And the old bounce IOVA now reads as *free pool padding*, not the freed
  // kernel buffer: a replay writes scrubbed pool memory, never the kernel's.
  ASSERT_TRUE(machine.slab().Kfree(buf).ok());
  EXPECT_TRUE(machine.CheckInvariants().ok());
}

}  // namespace
}  // namespace spv
