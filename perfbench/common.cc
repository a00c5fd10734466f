#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "workload.h"

namespace perfbench {

std::vector<uint64_t>& BootFaultSamples() {
  static std::vector<uint64_t> samples;
  return samples;
}

std::unique_ptr<spv::core::Machine> BootMachine(const spv::core::MachineConfig& config,
                                                SpanLog& log, uint64_t* faults) {
  const uint32_t kBoot = log.Name("core.machine_boot", true);
  const HostSnap before = TakeHostSnap();
  std::unique_ptr<spv::core::Machine> machine;
  {
    auto span = log.Open(kBoot);
    machine = std::make_unique<spv::core::Machine>(config);
  }
  const uint64_t taken = TakeHostSnap().minor_faults - before.minor_faults;
  BootFaultSamples().push_back(taken);
  if (faults != nullptr) {
    *faults = taken;
  }
  return machine;
}

void AuditNoLiveMappings(spv::core::Machine& machine, SpanLog& log, Report& report,
                         const std::string& where) {
  {
    auto span = log.Open(log.Name("iommu.flush_now", true), &machine.clock());
    machine.iommu().FlushNow();
  }
  if (machine.dma().live_mappings() != 0) {
    report.Fail(where + ": " + std::to_string(machine.dma().live_mappings()) +
                " DMA mappings still live after shutdown");
  }
}

void TeardownMachine(std::unique_ptr<spv::core::Machine>& machine, SpanLog& log,
                     Report& report, const std::string& where) {
  const uint32_t kCheck = log.Name("core.check_invariants", true);
  const uint32_t kTeardown = log.Name("core.machine_teardown", true);
  if (machine == nullptr) {
    return;
  }
  spv::Status invariants = spv::OkStatus();
  {
    auto span = log.Open(kCheck, &machine->clock());
    invariants = machine->CheckInvariants();
  }
  if (!invariants.ok()) {
    report.Fail(where + ": CheckInvariants: " + invariants.ToString());
  }
  auto span = log.Open(kTeardown);
  machine.reset();
}

void MustOk(const spv::Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "setup failed: %s: %s\n", what, status.ToString().c_str());
    std::exit(3);
  }
}

void FillPattern(std::span<uint8_t> out, uint64_t key) {
  // splitmix64 stream, eight bytes per step.
  uint64_t state = key;
  size_t i = 0;
  while (i < out.size()) {
    state += 0x9e3779b97f4a7c15ULL;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    const size_t n = std::min<size_t>(8, out.size() - i);
    std::memcpy(out.data() + i, &z, n);
    i += n;
  }
}

}  // namespace perfbench
