#include "selftest.h"

#include <iostream>
#include <string>

#include "harness.h"
#include "workload.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  std::cout << (ok ? "PASS " : "FAIL ") << what << "\n";
  if (!ok) {
    ++g_failures;
  }
}

void QuantileArithmetic() {
  std::vector<uint64_t> hundred;
  for (uint64_t v = 100; v >= 1; --v) {
    hundred.push_back(v);
  }
  Expect(ExactQuantile(hundred, 0.50) == 50, "p50 of 1..100 is 50");
  Expect(ExactQuantile(hundred, 0.99) == 99, "p99 of 1..100 is 99");
  Expect(ExactQuantile(hundred, 1.00) == 100, "p100 of 1..100 is 100");
  std::vector<uint64_t> ten = {7, 1, 9, 3, 5, 2, 8, 4, 6, 10};
  Expect(ExactQuantile(ten, 0.99) == 10, "p99 of 10 samples is the maximum");
  Expect(ExactQuantile(ten, 0.50) == 5, "p50 of 1..10 is the 5th value");
  std::vector<uint64_t> one = {42};
  Expect(ExactQuantile(one, 0.5) == 42 && ExactQuantile(one, 0.99) == 42,
         "a single sample is every quantile");
  std::vector<uint64_t> none;
  Expect(ExactQuantile(none, 0.5) == 0, "an empty set reads 0");
  // Values that share a log2 bucket stay distinct.
  std::vector<uint64_t> close = {3583, 3584, 3585, 3586};
  Expect(ExactQuantile(close, 0.5) == 3584, "no bucketing: p50 of 3583..3586 is 3584");
  Expect(Mean({1, 2, 3, 4}) == 2.5, "mean of 1..4 is 2.5");
  std::vector<double> rounds = {0.3, 0.1, 0.2};
  Expect(ExactQuantile(rounds, 0.5) == 0.2, "median of three round times");
}

void SelfTimeArithmetic() {
  // op [0,100) contains map [10,30) and unmap [40,90); unmap contains a
  // nested read [50,60). A second root [200,210) has no children.
  std::vector<Span> spans(5);
  spans[0] = {0, kNoParent, 1, 0, 100, 0};
  spans[1] = {1, 0, 1, 10, 30, 0};
  spans[2] = {2, 0, 1, 40, 90, 0};
  spans[3] = {3, 2, 1, 50, 60, 0};
  spans[4] = {0, kNoParent, 2, 200, 210, 0};
  const std::vector<uint64_t> self = SelfTimesNs(spans);
  Expect(self[0] == 30, "op self time is 100 - 20 - 50 = 30");
  Expect(self[1] == 20, "leaf self time is its duration");
  Expect(self[2] == 40, "unmap self time excludes only its direct child");
  Expect(self[3] == 10, "nested leaf self time");
  Expect(self[4] == 10, "childless root self time");
  uint64_t total = 0;
  for (size_t i = 0; i < 4; ++i) {
    total += self[i];
  }
  Expect(total == 100, "self times of one tree sum to the root duration");
}

void SpanLogFilters() {
  // During set-up only names interned with in_setup are recorded; spans
  // opened without a clock report no sim-cycle samples.
  SpanLog log(true);
  const uint32_t boot = log.Name("core.machine_boot", true);
  const uint32_t map = log.Name("dma.map_single");
  spv::SimClock clock;
  log.set_setup_phase(true);
  { auto span = log.Open(boot); }
  { auto span = log.Open(map, &clock); }
  log.set_setup_phase(false);
  { auto span = log.Open(map, &clock); }
  auto by_name = log.ByName();
  Expect(log.spans().size() == 2, "set-up records only in_setup spans");
  Expect(by_name["core.machine_boot"].wall_ns.size() == 1 && !by_name["core.machine_boot"].sim,
         "a span without a clock has no sim samples");
  Expect(by_name["dma.map_single"].wall_ns.size() == 1 && by_name["dma.map_single"].sim,
         "the timed-phase map span is kept, with sim samples");
}

// Runs one round of `name` with one expected byte (or outcome) corrupted;
// exactly one op must fail and the teardown audit must still pass.
void CorruptedCheckFails(const std::string& name) {
  Options options;
  options.workload = name;
  options.seed = 7;
  options.corrupt_one_check = true;
  SpanLog log(false);
  std::unique_ptr<Workload> workload;
  if (name == "dma_churn") workload = MakeDmaChurn(options, log);
  if (name == "nvme_mixed") workload = MakeNvmeMixed(options, log);
  if (name == "nic_echo") workload = MakeNicEcho(options, log);
  if (name == "attack_detect") workload = MakeAttackDetect(options, log);
  Report report;
  OpCounter ops;
  workload->Setup();
  workload->BeginTimed();
  workload->Round(ops);
  workload->EndTimed(report, ops.attempted);
  workload->Teardown(report);
  for (const std::string& line : report.notes) {
    std::cout << "  " << line << "\n";
  }
  Expect(ops.failed == 1, name + ": a corrupted expectation fails exactly one op (" +
                              std::to_string(ops.failed) + " of " +
                              std::to_string(ops.attempted) + ")");
  Expect(report.audit_ok, name + ": teardown audit passes" +
                              (report.audit_ok ? "" : ": " + report.audit_error));
}

}  // namespace

int RunSelfTest() {
  QuantileArithmetic();
  SelfTimeArithmetic();
  SpanLogFilters();
  for (const char* name : {"dma_churn", "nvme_mixed", "nic_echo", "attack_detect"}) {
    CorruptedCheckFails(name);
  }
  std::cout << (g_failures == 0 ? "self-test passed" : "self-test FAILED") << "\n";
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
