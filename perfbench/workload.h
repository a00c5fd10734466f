// The workload interface and the timed-phase driver shared by all four
// workloads.
//
// Every workload runs the machine in ExecMode::kSequential on one host
// thread, with the default FastPathConfig, an empty fault plan and recovery
// off, so sim-cycle numbers repeat exactly for a given seed. All inputs are
// generated from the seed in the constructor, before any timed code runs.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/rng.h"
#include "base/status.h"
#include "core/machine.h"
#include "harness.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";
  // Self-test only: corrupt one expected byte (or flip one expected
  // outcome) in the workload's first output check, which must then fail.
  bool corrupt_one_check = false;
};

// Per-op bookkeeping for the current round.
struct OpCounter {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool sample_cycles = false;          // true during the first round only
  std::vector<uint64_t> op_cycles;     // one per op of the first round

  void Record(bool ok, uint64_t cycles) {
    ++attempted;
    if (!ok) {
      ++failed;
    }
    if (sample_cycles) {
      op_cycles.push_back(cycles);
    }
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Boots and prepares the machine the timed phase runs on: device attach,
  // driver Init, pre-fragmentation, warm-up. Everything up to the first
  // timed op. Called several times; each earlier instance is torn down.
  virtual void Setup() = 0;
  // Driver shutdown, leak checks, CheckInvariants() and machine
  // destruction. Audit failures go to report.Fail.
  virtual void Teardown(Report& report) = 0;
  // One pass over the seeded op list.
  virtual void Round(OpCounter& ops) = 0;
  // Called just before and just after the timed phase: snapshots and turns
  // layer counters into per-layer metrics for the traced run.
  virtual void BeginTimed() {}
  virtual void EndTimed(Report& report, uint64_t timed_ops) = 0;
};

std::unique_ptr<Workload> MakeDmaChurn(const Options& options, SpanLog& log);
std::unique_ptr<Workload> MakeNvmeMixed(const Options& options, SpanLog& log);
std::unique_ptr<Workload> MakeNicEcho(const Options& options, SpanLog& log);
std::unique_ptr<Workload> MakeAttackDetect(const Options& options, SpanLog& log);

// Boots a machine under a core.machine_boot span, counting the host minor
// faults the boot takes into `faults` when non-null.
std::unique_ptr<spv::core::Machine> BootMachine(const spv::core::MachineConfig& config,
                                                SpanLog& log, uint64_t* faults = nullptr);
// Drains deferred invalidations (under an iommu.flush_now span) and fails the
// audit if any DMA mapping is still live; call after driver shutdown.
void AuditNoLiveMappings(spv::core::Machine& machine, SpanLog& log, Report& report,
                         const std::string& where);
// Runs CheckInvariants() under a core.check_invariants span and destroys the
// machine under a core.machine_teardown span.
void TeardownMachine(std::unique_ptr<spv::core::Machine>& machine, SpanLog& log,
                     Report& report, const std::string& where);

// Minor faults of every boot this process performed, for
// mem.minor_faults_per_boot.
std::vector<uint64_t>& BootFaultSamples();

// Setup steps must succeed; a failure ends the run without a result line.
void MustOk(const spv::Status& status, const char* what);
template <typename T>
T Must(spv::Result<T> result, const char* what) {
  MustOk(result.status(), what);
  return std::move(result).value();
}

// Runs `count` untimed warm-up ops through `run_op(i, counter)`. The
// self-test's `corrupt` flag is held back so it lands on the first timed
// check, and a failed warm-up op ends the run as a setup failure.
template <typename RunOp>
void WarmUp(size_t count, bool& corrupt, RunOp&& run_op, const char* what) {
  const bool held = corrupt;
  corrupt = false;
  OpCounter warm;
  for (size_t i = 0; i < count; ++i) {
    run_op(i, warm);
  }
  corrupt = held;
  if (warm.failed != 0) {
    MustOk(spv::Internal("warm-up op failed"), what);
  }
}

// Fisher-Yates shuffle driven by the workload's seeded generator. Workloads
// build their op mixes with exact proportions and let the seed choose only
// the order and the addresses, so a mix's mean cost barely moves with the
// seed.
template <typename T>
void SeededShuffle(std::vector<T>& items, spv::Xoshiro256& rng) {
  for (size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.NextBelow(i)]);
  }
}

// Deterministic byte pattern for payloads and block data.
void FillPattern(std::span<uint8_t> out, uint64_t key);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
