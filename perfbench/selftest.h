// Benchmark self-test: pins the quantile and span self-time arithmetic on
// hand-built inputs, and shows that every workload's output check fails when
// one expected byte or outcome is corrupted.

#ifndef PERFBENCH_SELFTEST_H_
#define PERFBENCH_SELFTEST_H_

namespace perfbench {

// Returns 0 when every check passes, 1 otherwise.
int RunSelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_SELFTEST_H_
