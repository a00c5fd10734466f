// Shared measurement machinery for the end-to-end benchmark.
//
// The benchmark drives the simulator only through its public API and times
// each of its own calls into a layer from outside: host wall time from
// std::chrono::steady_clock and simulated time as the SimClock delta. The
// program under test is never modified for measurement.
//
// Two clocks, two rules:
//   * Sim cycles are deterministic (ExecMode::kSequential, seeded inputs), so
//     their quantiles are computed exactly from every sample.
//   * Wall time is noisy, so throughput is taken from the fastest of many
//     rounds of the same seeded op list (main.cc says why), and setup time
//     is the median over repeated setups.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "base/clock.h"

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// ---- Exact quantiles ----------------------------------------------------------

// Nearest-rank quantile of `samples` (sorted in place): the smallest value
// with at least q*n samples at or below it. Exact, no bucketing. Returns 0 for
// an empty set.
double ExactQuantile(std::vector<uint64_t>& samples, double q);
double ExactQuantile(std::vector<double>& samples, double q);
double Mean(const std::vector<uint64_t>& samples);

// ---- Spans ------------------------------------------------------------------------

inline constexpr uint32_t kNoParent = UINT32_MAX;

struct Span {
  uint32_t name = 0;
  uint32_t parent = kNoParent;
  uint64_t op = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t sim_cycles = 0;  // SimClock delta; 0 when no clock was given
};

// In-memory span log for the traced run. Spans nest by call structure (a
// stack of open spans gives each its parent) and carry the id of the op that
// caused them. Disabled, Open() is a single branch and records nothing. The
// log stops recording at `capacity` spans; the timed phase watches full().
// During set-up only the spans of names interned with `in_setup` are kept
// (whole-machine calls: boot, teardown, invariant checks, queue drains), so
// warm-up calls on cold machines stay out of the per-layer samples of the
// timed phase.
class SpanLog {
 public:
  explicit SpanLog(bool enabled, size_t capacity = 600000);

  class Scope {
   public:
    Scope() = default;
    Scope(SpanLog* log, uint32_t index, const spv::SimClock* clock);
    ~Scope() { Close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Scope(Scope&& other) noexcept;
    Scope& operator=(Scope&&) = delete;
    void Close();

   private:
    SpanLog* log_ = nullptr;
    uint32_t index_ = 0;
    const spv::SimClock* clock_ = nullptr;
    uint64_t start_cycles_ = 0;
  };

  // Interns a span name; call during setup, not per op.
  uint32_t Name(std::string_view name, bool in_setup = false);

  Scope Open(uint32_t name, const spv::SimClock* clock = nullptr) {
    if (!recording_ || (setup_phase_ && !in_setup_[name])) {
      return Scope{};
    }
    return OpenSlow(name, clock);
  }

  // Recording can be paused (the untraced rounds of a traced run).
  void set_recording(bool on) { recording_ = on && enabled_ && !full(); }
  void set_setup_phase(bool on) { setup_phase_ = on; }
  bool full() const { return spans_.size() >= capacity_; }
  void set_op(uint64_t op) { op_ = op; }

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::string>& names() const { return names_; }

  // Per-name duration samples (wall ns and sim cycles). `sim` is false for
  // spans opened without a clock, whose sim-cycle samples are meaningless.
  struct Samples {
    std::vector<uint64_t> wall_ns;
    std::vector<uint64_t> sim_cycles;
    bool sim = false;
  };
  std::map<std::string, Samples> ByName() const;

  // CSV: id,name,parent,op,start_ns,end_ns,sim_cycles,self_ns.
  bool WriteCsv(const std::string& path) const;

 private:
  Scope OpenSlow(uint32_t name, const spv::SimClock* clock);
  void CloseSpan(uint32_t index, uint64_t sim_cycles);

  bool enabled_;
  bool recording_;
  bool setup_phase_ = false;
  size_t capacity_;
  uint64_t op_ = 0;
  std::vector<std::string> names_;
  std::vector<bool> in_setup_;   // per name: recorded during set-up too
  std::vector<bool> has_clock_;  // per name: opened with a SimClock
  std::vector<Span> spans_;
  std::vector<uint32_t> stack_;
};

// Self time per span: its duration minus the durations of its direct
// children (children nest inside their parent, so this is the part of the
// interval no child covers).
std::vector<uint64_t> SelfTimesNs(const std::vector<Span>& spans);

// ---- Host counters ------------------------------------------------------------------

struct HostSnap {
  double user_s = 0;
  double sys_s = 0;
  uint64_t minor_faults = 0;
  uint64_t wall_ns = 0;
};
HostSnap TakeHostSnap();
// Peak resident set (VmHWM) of this process in MiB; 0 if unreadable.
double PeakRssMiB();

// ---- Timed phase --------------------------------------------------------------------

// Runs `round` (one pass over the seeded op list) at least once, then again
// while another round of the last one's length still fits in `seconds`.
// Returns each round's wall seconds.
std::vector<double> RunRounds(double seconds, const std::function<void()>& round);

// ---- Results --------------------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};

// Ordered name -> metric map plus the counts the result line carries.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool audit_ok = true;
  std::string audit_error;
  std::vector<std::pair<std::string, Metric>> metrics;
  std::vector<std::string> notes;  // human-readable lines printed before the JSON

  void Set(const std::string& name, double value, const std::string& unit);
  void Fail(const std::string& what);  // failed audit: the run fails outright
  void Note(const std::string& line) { notes.push_back(line); }
};

std::string FormatNumber(double value);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
