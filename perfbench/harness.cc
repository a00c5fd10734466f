#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <numeric>

namespace perfbench {

namespace {

template <typename T>
double NearestRank(std::vector<T>& samples, double q) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return static_cast<double>(samples[rank - 1]);
}

}  // namespace

double ExactQuantile(std::vector<uint64_t>& samples, double q) {
  return NearestRank(samples, q);
}

double ExactQuantile(std::vector<double>& samples, double q) {
  return NearestRank(samples, q);
}

double Mean(const std::vector<uint64_t>& samples) {
  if (samples.empty()) {
    return 0;
  }
  const long double sum =
      std::accumulate(samples.begin(), samples.end(), static_cast<long double>(0));
  return static_cast<double>(sum / static_cast<long double>(samples.size()));
}

// ---- SpanLog ----------------------------------------------------------------------

SpanLog::SpanLog(bool enabled, size_t capacity)
    : enabled_(enabled), recording_(enabled), capacity_(capacity) {
  if (enabled_) {
    spans_.reserve(capacity_);
  }
}

SpanLog::Scope::Scope(SpanLog* log, uint32_t index, const spv::SimClock* clock)
    : log_(log), index_(index), clock_(clock),
      start_cycles_(clock != nullptr ? clock->now() : 0) {}

SpanLog::Scope::Scope(Scope&& other) noexcept
    : log_(other.log_), index_(other.index_), clock_(other.clock_),
      start_cycles_(other.start_cycles_) {
  other.log_ = nullptr;
}

void SpanLog::Scope::Close() {
  if (log_ == nullptr) {
    return;
  }
  const uint64_t cycles = clock_ != nullptr ? clock_->now() - start_cycles_ : 0;
  log_->CloseSpan(index_, cycles);
  log_ = nullptr;
}

uint32_t SpanLog::Name(std::string_view name, bool in_setup) {
  for (uint32_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) {
      if (in_setup) {
        in_setup_[i] = true;
      }
      return i;
    }
  }
  names_.emplace_back(name);
  in_setup_.push_back(in_setup);
  has_clock_.push_back(false);
  return static_cast<uint32_t>(names_.size() - 1);
}

SpanLog::Scope SpanLog::OpenSlow(uint32_t name, const spv::SimClock* clock) {
  if (full()) {
    recording_ = false;
    return Scope{};
  }
  if (clock != nullptr) {
    has_clock_[name] = true;
  }
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? kNoParent : stack_.back();
  span.op = op_;
  const auto index = static_cast<uint32_t>(spans_.size());
  stack_.push_back(index);
  span.start_ns = NowNs();
  spans_.push_back(span);
  return Scope{this, index, clock};
}

void SpanLog::CloseSpan(uint32_t index, uint64_t sim_cycles) {
  Span& span = spans_[index];
  span.end_ns = NowNs();
  span.sim_cycles = sim_cycles;
  // Scopes close in reverse order of opening, so the span is the stack top.
  if (!stack_.empty() && stack_.back() == index) {
    stack_.pop_back();
  }
}

std::map<std::string, SpanLog::Samples> SpanLog::ByName() const {
  std::map<std::string, Samples> out;
  for (const Span& span : spans_) {
    Samples& samples = out[names_[span.name]];
    samples.wall_ns.push_back(span.end_ns - span.start_ns);
    samples.sim_cycles.push_back(span.sim_cycles);
    samples.sim = has_clock_[span.name];
  }
  return out;
}

std::vector<uint64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<uint64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }
  for (const Span& span : spans) {
    if (span.parent != kNoParent) {
      const uint64_t child = span.end_ns - span.start_ns;
      uint64_t& parent = self[span.parent];
      parent = parent > child ? parent - child : 0;
    }
  }
  return self;
}

bool SpanLog::WriteCsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  const std::vector<uint64_t> self = SelfTimesNs(spans_);
  out << "id,name,parent,op,start_ns,end_ns,sim_cycles,self_ns\n";
  const uint64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << ',' << names_[s.name] << ','
        << (s.parent == kNoParent ? std::string("-") : std::to_string(s.parent)) << ','
        << s.op << ',' << s.start_ns - base << ',' << s.end_ns - base << ','
        << s.sim_cycles << ',' << self[i] << '\n';
  }
  return static_cast<bool>(out);
}

// ---- Host counters ----------------------------------------------------------------

HostSnap TakeHostSnap() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  HostSnap snap;
  snap.user_s = static_cast<double>(usage.ru_utime.tv_sec) +
                static_cast<double>(usage.ru_utime.tv_usec) * 1e-6;
  snap.sys_s = static_cast<double>(usage.ru_stime.tv_sec) +
               static_cast<double>(usage.ru_stime.tv_usec) * 1e-6;
  snap.minor_faults = static_cast<uint64_t>(usage.ru_minflt);
  snap.wall_ns = NowNs();
  return snap;
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0;
}

// ---- Timed phase ------------------------------------------------------------------

std::vector<double> RunRounds(double seconds, const std::function<void()>& round) {
  std::vector<double> rounds;
  const uint64_t start = NowNs();
  const auto budget = static_cast<uint64_t>(seconds * 1e9);
  uint64_t last = 0;
  do {
    const uint64_t t0 = NowNs();
    round();
    last = NowNs() - t0;
    rounds.push_back(static_cast<double>(last) * 1e-9);
  } while (NowNs() - start + last <= budget);
  return rounds;
}

// ---- Report ---------------------------------------------------------------------------

void Report::Set(const std::string& name, double value, const std::string& unit) {
  for (auto& [existing, metric] : metrics) {
    if (existing == name) {
      metric = Metric{value, unit};
      return;
    }
  }
  metrics.emplace_back(name, Metric{value, unit});
}

void Report::Fail(const std::string& what) {
  if (audit_ok) {
    audit_error = what;
  }
  audit_ok = false;
}

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) {
    return "0";
  }
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc{}) {
    return "0";
  }
  return std::string(buf, end);
}

}  // namespace perfbench
