// attack_detect: the paper's attacks and detectors, one scenario per op.
//
// Each op boots fresh machines with telemetry, span tracing with the
// WindowTracker, the forensics flight recorder and D-KASAN all on, and runs
// one scenario from a fixed list: the three §6 compound attacks (RingFlood
// including its offline profiling boots, Poisoned TX, Forward Thinking), the
// bench_ablation_defenses rows, the three D-KASAN workloads of
// bench_fig3_dkasan, and a SPADE scan of corpus/. Each outcome is compared
// with the one the repository records for it (EXPERIMENTS.md and those
// benches): escalated or blocked, the D-KASAN report counts by kind, and the
// SPADE Table-2 totals. The seed only orders the list; every scenario keeps
// the machine seed its expectation was recorded with.
//
// This is the only workload where boot cost, the observability layers and
// the attack and detector code do most of the work.

#include <algorithm>
#include <array>

#include "attack/attacks.h"
#include "attack/mini_cpu.h"
#include "attack/poison.h"
#include "device/malicious_nic.h"
#include "dkasan/dkasan.h"
#include "dkasan/workload.h"
#include "mem/kernel_symbols.h"
#include "spade/analyzer.h"
#include "spade/corpus.h"
#include "workload.h"

namespace perfbench {
namespace {

using spv::iommu::InvalidationMode;

enum class Scenario : uint8_t {
  kRingFlood,
  kPoisonedTx,
  kForwardThinking,
  kAblationDeferred,
  kAblationStrict,
  kAblationStrictPageAligned,
  kAblationCet,
  kAblationDamn,
  kAblationRandstruct,
  kAblationBlindUnknown,
  kAblationBlindRecovered,
  kDkasanBuildPing,
  kDkasanRouter,
  kDkasanStorage,
  kSpadeScan,
};
constexpr size_t kScenarios = 15;

// D-KASAN report counts by kind: alloc-after-map, map-after-alloc,
// access-after-map, multiple-map.
using KindCounts = std::array<uint64_t, 4>;

// The outcome the repository records for each scenario.
struct Expectation {
  Scenario scenario;
  const char* name;
  bool escalated = false;  // attacks and ablation rows
  KindCounts dkasan{};     // D-KASAN workloads
};

constexpr std::array<Expectation, kScenarios> kExpected = {{
    {Scenario::kRingFlood, "ring_flood", true, {}},
    {Scenario::kPoisonedTx, "poisoned_tx", true, {}},
    {Scenario::kForwardThinking, "forward_thinking", true, {}},
    {Scenario::kAblationDeferred, "ablation_deferred", true, {}},
    {Scenario::kAblationStrict, "ablation_strict", true, {}},
    {Scenario::kAblationStrictPageAligned, "ablation_strict_page_aligned", false, {}},
    {Scenario::kAblationCet, "ablation_cet", false, {}},
    {Scenario::kAblationDamn, "ablation_damn", false, {}},
    {Scenario::kAblationRandstruct, "ablation_randstruct", false, {}},
    {Scenario::kAblationBlindUnknown, "ablation_blinding_cookie_unknown", false, {}},
    {Scenario::kAblationBlindRecovered, "ablation_blinding_cookie_recovered", true, {}},
    {Scenario::kDkasanBuildPing, "dkasan_build_ping", false, {1, 6, 3, 1}},
    {Scenario::kDkasanRouter, "dkasan_router", false, {1, 1, 4, 3}},
    {Scenario::kDkasanStorage, "dkasan_storage", false, {2, 2, 0, 1}},
    {Scenario::kSpadeScan, "spade_scan", false, {}},
}};

// SPADE over corpus/ (bench_table2_spade / tools/spade --summary): map calls,
// files, potentially vulnerable calls, distinct exposed structures.
constexpr uint64_t kSpadeCalls = 42;
constexpr uint64_t kSpadeFiles = 22;
constexpr uint64_t kSpadeVulnerable = 31;
constexpr uint64_t kSpadeExposedStructs = 11;

// Observability counters summed over the machines of the timed ops.
struct ObsCounters {
  uint64_t telemetry_events = 0;
  uint64_t telemetry_dropped_critical = 0;
  uint64_t trace_spans = 0;
  uint64_t windows_closed = 0;
  uint64_t forensics_records = 0;
  uint64_t forensics_dropped_critical = 0;
  uint64_t incidents = 0;
  uint64_t dkasan_reports = 0;
};

spv::core::MachineConfig ObservedConfig(uint64_t seed) {
  spv::core::MachineConfig config;
  config.seed = seed;
  config.iommu.mode = InvalidationMode::kDeferred;
  config.telemetry.enabled = true;
  config.trace.enabled = true;
  config.trace.track_windows = true;
  config.forensics.enabled = true;
  return config;
}

// One victim machine with a malicious NIC, the attack CPU model and D-KASAN,
// as bench_attack_e2e and bench_ablation_defenses build it.
struct Rig {
  std::unique_ptr<spv::core::Machine> machine;
  spv::net::NicDriver* nic = nullptr;
  std::unique_ptr<spv::device::MaliciousNic> device;
  std::unique_ptr<spv::attack::MiniCpu> cpu;
  std::unique_ptr<spv::dkasan::DKasan> dkasan;
  std::unique_ptr<spv::slab::PageFragPool> damn_pool;
  bool dkasan_on_frags = false;

  spv::attack::AttackEnv env() { return {*machine, *nic, *device, *cpu}; }

  void AttachDkasan() {
    dkasan = std::make_unique<spv::dkasan::DKasan>(machine->layout());
    dkasan->set_telemetry(&machine->telemetry());
    dkasan->Attach(machine->slab());
    dkasan->Attach(machine->dma());
  }
  void DetachDkasan() {
    machine->slab().RemoveObserver(dkasan.get());
    machine->dma().RemoveObserver(dkasan.get());
    if (dkasan_on_frags) {
      machine->frag_pool(spv::CpuId{0}).RemoveObserver(dkasan.get());
    }
  }
};

class AttackDetect : public Workload {
 public:
  AttackDetect(const Options& options, SpanLog& log) : options_(options), log_(log) {
    for (size_t i = 0; i < kScenarios; ++i) {
      order_.push_back(i);
    }
    spv::Xoshiro256 rng(options.seed);
    SeededShuffle(order_, rng);
    span_op_ = log.Name("bench.op");
    span_profile_ = log.Name("attack.ring_flood_profile");
    span_ring_flood_ = log.Name("attack.ring_flood");
    span_poisoned_tx_ = log.Name("attack.poisoned_tx");
    span_forward_ = log.Name("attack.forward_thinking");
    span_ablation_ = log.Name("attack.ablation");
    span_dkasan_ = log.Name("dkasan.workload");
    span_spade_ = log.Name("spade.scan");
  }

  // Warm-up: one observed boot with a NIC brought up and shut down again.
  void Setup() override {
    Rig rig = MakeRig(ObservedConfig(42), false, 1728, InvalidationMode::kDeferred);
    if (!rig.nic->FillRxRing().ok() || !rig.nic->Shutdown().ok()) {
      setup_audit_.Fail("attack_detect: warm-up NIC bring-up failed");
    }
    AuditNoLiveMappings(*rig.machine, log_, setup_audit_, "attack_detect warm-up");
    DestroyRig(rig, setup_audit_, nullptr);
  }

  void Teardown(Report& report) override {
    if (!setup_audit_.audit_ok) {
      report.Fail(setup_audit_.audit_error);
    }
    if (!op_audit_.audit_ok) {
      report.Fail(op_audit_.audit_error);
    }
    for (const std::string& line : mismatches_) {
      report.Note(line);
    }
    mismatches_.clear();
  }

  void Round(OpCounter& ops) override {
    for (size_t index : order_) {
      log_.set_op(op_id_++);
      uint64_t cycles = 0;
      bool ok = false;
      {
        auto span = log_.Open(span_op_);
        ok = RunScenario(kExpected[index], cycles);
      }
      ops.Record(ok, cycles);
    }
  }

  void BeginTimed() override {
    obs_ = {};
    escalated_ = 0;
    blocked_ = 0;
  }

  void EndTimed(Report& report, uint64_t timed_ops) override {
    const auto per_op = [&](uint64_t n) {
      return timed_ops ? static_cast<double>(n) / static_cast<double>(timed_ops) : 0.0;
    };
    report.Set("attack.escalated", static_cast<double>(escalated_), "count");
    report.Set("attack.blocked", static_cast<double>(blocked_), "count");
    report.Set("dkasan.reports_per_op", per_op(obs_.dkasan_reports), "1/op");
    report.Set("spade.findings", static_cast<double>(spade_findings_), "count");
    report.Set("spade.files", static_cast<double>(spade_files_), "count");
    report.Set("forensics.records_per_op", per_op(obs_.forensics_records), "1/op");
    report.Set("forensics.dropped_critical", static_cast<double>(obs_.forensics_dropped_critical),
               "count");
    report.Set("forensics.incidents_per_op", per_op(obs_.incidents), "1/op");
    report.Set("telemetry.events_per_op", per_op(obs_.telemetry_events), "1/op");
    report.Set("telemetry.dropped_critical",
               static_cast<double>(obs_.telemetry_dropped_critical), "count");
    report.Set("trace.spans_per_op", per_op(obs_.trace_spans), "1/op");
    report.Set("trace.windows_closed_per_op", per_op(obs_.windows_closed), "1/op");
  }

 private:
  Rig MakeRig(spv::core::MachineConfig config, bool forwarding, uint32_t rx_buf_len,
              InvalidationMode mode, bool damn = false, const char* nic_name = nullptr,
              uint32_t rx_ring = 32, bool warm_iotlb = true) {
    config.net.forwarding_enabled = forwarding;
    config.iommu.mode = mode;
    Rig rig;
    rig.machine = BootMachine(config, log_);
    spv::core::Machine& m = *rig.machine;
    rig.AttachDkasan();
    if (damn) {
      rig.damn_pool = std::make_unique<spv::slab::PageFragPool>(
          m.page_db(), m.page_alloc(), m.layout(), spv::net::SkbAllocator::kDamnPoolCpu);
      m.skb_alloc().set_damn_pool(rig.damn_pool.get());
    }
    spv::net::NicDriver::Config nic;
    if (nic_name != nullptr) {
      nic.name = nic_name;
    }
    nic.rx_ring_size = rx_ring;
    nic.rx_buf_len = rx_buf_len;
    rig.nic = &m.AddNicDriver(nic);
    rig.device = std::make_unique<spv::device::MaliciousNic>(
        spv::device::DevicePort{m.iommu(), rig.nic->device_id()});
    rig.device->set_warm_iotlb_on_post(warm_iotlb);
    rig.nic->AttachDevice(rig.device.get());
    rig.dkasan->Attach(m.frag_pool(spv::CpuId{0}));
    rig.dkasan_on_frags = true;
    rig.cpu = std::make_unique<spv::attack::MiniCpu>(m.kmem(), m.layout());
    return rig;
  }

  // Harvests the observability counters, audits and destroys the rig.
  // Returns the machine's elapsed sim cycles.
  uint64_t DestroyRig(Rig& rig, Report& audit, ObsCounters* obs) {
    spv::core::Machine& m = *rig.machine;
    const uint64_t cycles = m.clock().now();
    if (obs != nullptr) {
      const spv::telemetry::TraceRing& ring = m.telemetry().ring();
      obs->telemetry_events += ring.recorded();
      obs->telemetry_dropped_critical += ring.dropped(spv::telemetry::Severity::kCritical);
      if (m.tracer() != nullptr) {
        obs->trace_spans += m.tracer()->records().size();
      }
      if (m.windows() != nullptr) {
        for (const auto& window : m.windows()->windows()) {
          obs->windows_closed += window.open ? 0 : 1;
        }
      }
      if (m.flight_recorder() != nullptr) {
        obs->forensics_records += m.flight_recorder()->total_recorded();
        obs->forensics_dropped_critical += m.flight_recorder()->total_dropped_critical();
      }
      if (m.incidents() != nullptr) {
        obs->incidents += m.incidents()->incident_count();
      }
      obs->dkasan_reports += rig.dkasan->reports().size();
    }
    rig.DetachDkasan();
    rig.damn_pool.reset();
    TeardownMachine(rig.machine, log_, audit, "attack_detect");
    return cycles;
  }

  // Runs one scenario and compares its outcome with the recorded one.
  bool RunScenario(const Expectation& expect, uint64_t& cycles) {
    bool flip = false;
    if (options_.corrupt_one_check) {
      flip = true;
      options_.corrupt_one_check = false;
    }
    switch (expect.scenario) {
      case Scenario::kRingFlood:
      case Scenario::kPoisonedTx:
      case Scenario::kForwardThinking:
      case Scenario::kAblationDeferred:
      case Scenario::kAblationStrict:
      case Scenario::kAblationStrictPageAligned:
      case Scenario::kAblationCet:
      case Scenario::kAblationDamn:
      case Scenario::kAblationRandstruct:
      case Scenario::kAblationBlindUnknown:
      case Scenario::kAblationBlindRecovered: {
        const bool escalated = RunAttack(expect.scenario, cycles);
        (escalated ? escalated_ : blocked_) += 1;
        return escalated == (expect.escalated != flip);
      }
      case Scenario::kDkasanBuildPing:
      case Scenario::kDkasanRouter:
      case Scenario::kDkasanStorage: {
        KindCounts want = expect.dkasan;
        if (flip) {
          want[0] += 1;
        }
        const KindCounts got = RunDkasan(expect.scenario, cycles);
        if (got != want) {
          Mismatch(expect, "D-KASAN counts " + std::to_string(got[0]) + "/" +
                               std::to_string(got[1]) + "/" + std::to_string(got[2]) + "/" +
                               std::to_string(got[3]));
          return false;
        }
        return true;
      }
      case Scenario::kSpadeScan: {
        const bool ok = RunSpade() != flip;
        if (!ok) {
          Mismatch(expect, "Table-2 totals differ");
        }
        return ok;
      }
    }
    return false;
  }

  void Mismatch(const Expectation& expect, const std::string& got) {
    if (mismatches_.size() < 16) {
      mismatches_.push_back(std::string("outcome mismatch: ") + expect.name + " gave " + got);
    }
  }

  bool RunAttack(Scenario scenario, uint64_t& cycles) {
    using spv::attack::ForwardThinkingAttack;
    using spv::attack::PoisonedTxAttack;
    using spv::attack::RingFloodAttack;
    bool escalated = false;
    switch (scenario) {
      case Scenario::kRingFlood: {
        // bench_attack_e2e: 32 profiling boots, then the live victim.
        RingFloodAttack::ProfileOptions profile;
        profile.machine = ObservedConfig(0);
        spv::net::NicDriver::Config driver;
        driver.rx_ring_size = 32;
        driver.rx_buf_len = 1728;
        profile.driver = driver;
        profile.boots = 32;
        std::map<uint64_t, int> histogram;
        {
          auto span = log_.Open(span_profile_);
          histogram = RingFloodAttack::ProfileRxPfns(profile);
        }
        Rig rig = MakeRig(ObservedConfig(profile.base_seed + 777), false, 1728,
                          InvalidationMode::kDeferred, false, "bcm5720");
        rig.machine->stack().set_egress(rig.nic);
        rig.machine->stack().set_callback_invoker(rig.cpu.get());
        RingFloodAttack::ReplayBootNoise(*rig.machine, rig.machine->config().seed,
                                         profile.boot_noise_allocs);
        (void)rig.nic->FillRxRing();
        RingFloodAttack::Options options;
        options.pfn_guess = RingFloodAttack::MostCommonPfn(histogram);
        {
          auto span = log_.Open(span_ring_flood_, &rig.machine->clock());
          auto report = RingFloodAttack::Run(rig.env(), options);
          escalated = report.ok() && report->success;
        }
        cycles += DestroyRig(rig, op_audit_, &obs_);
        return escalated;
      }
      case Scenario::kPoisonedTx: {
        Rig rig = MakeRig(ObservedConfig(42), false, 1728, InvalidationMode::kDeferred, false,
                          "bcm5720");
        rig.machine->stack().set_egress(rig.nic);
        rig.machine->stack().set_callback_invoker(rig.cpu.get());
        (void)rig.machine->stack().CreateSocket(7, true);
        (void)rig.nic->FillRxRing();
        {
          auto span = log_.Open(span_poisoned_tx_, &rig.machine->clock());
          auto report = PoisonedTxAttack::Run(rig.env(), {});
          escalated = report.ok() && report->success;
        }
        cycles += DestroyRig(rig, op_audit_, &obs_);
        return escalated;
      }
      case Scenario::kForwardThinking: {
        Rig rig = MakeRig(ObservedConfig(61), true, 1728, InvalidationMode::kDeferred, false,
                          "bcm5720");
        rig.machine->stack().set_egress(rig.nic);
        rig.machine->stack().set_callback_invoker(rig.cpu.get());
        (void)spv::attack::SeedResidualKernelData(*rig.machine, 128);
        (void)rig.nic->FillRxRing();
        {
          auto span = log_.Open(span_forward_, &rig.machine->clock());
          auto report = ForwardThinkingAttack::Run(rig.env(), {});
          escalated = report.ok() && report->success;
        }
        cycles += DestroyRig(rig, op_audit_, &obs_);
        return escalated;
      }
      case Scenario::kAblationBlindUnknown:
      case Scenario::kAblationBlindRecovered:
        return RunBlinding(scenario == Scenario::kAblationBlindRecovered, cycles);
      default:
        return RunAblationPoisonedTx(scenario, cycles);
    }
  }

  // bench_ablation_defenses: Poisoned TX against one defense configuration.
  bool RunAblationPoisonedTx(Scenario scenario, uint64_t& cycles) {
    const bool strict = scenario == Scenario::kAblationStrict ||
                        scenario == Scenario::kAblationStrictPageAligned;
    const bool page_aligned = scenario == Scenario::kAblationStrictPageAligned;
    const bool cet = scenario == Scenario::kAblationCet;
    const bool damn = scenario == Scenario::kAblationDamn;
    const bool randstruct = scenario == Scenario::kAblationRandstruct;
    spv::core::MachineConfig config = ObservedConfig(randstruct ? 91 : 77);
    config.randomize_struct_layout = randstruct;
    Rig rig = MakeRig(config, false, page_aligned ? 3776 : 1728,
                      strict ? InvalidationMode::kStrict : InvalidationMode::kDeferred, damn);
    rig.cpu->set_cet_enabled(cet);
    rig.machine->stack().set_egress(rig.nic);
    rig.machine->stack().set_callback_invoker(rig.cpu.get());
    (void)rig.machine->stack().CreateSocket(7, true);
    (void)rig.nic->FillRxRing();
    bool escalated = false;
    {
      auto span = log_.Open(span_ablation_, &rig.machine->clock());
      auto report = spv::attack::PoisonedTxAttack::Run(rig.env(), {});
      escalated = report.ok() && report->success;
    }
    cycles += DestroyRig(rig, op_audit_, &obs_);
    return escalated;
  }

  // bench_ablation_defenses: macOS-style callback blinding (§7).
  bool RunBlinding(bool cookie_recovered, uint64_t& cycles) {
    Rig rig = MakeRig(ObservedConfig(88), false, 1728, InvalidationMode::kDeferred);
    spv::core::Machine& m = *rig.machine;
    spv::Xoshiro256 cookie_rng{m.config().seed};
    const uint64_t cookie = cookie_rng.Next();
    bool escalated = false;
    {
      auto span = log_.Open(span_ablation_, &m.clock());
      const spv::Kva poison =
          Must(m.slab().Kmalloc(spv::attack::PoisonLayout::kImageBytes, "poison"), "kmalloc");
      spv::attack::KaslrKnowledge knowledge;
      knowledge.text_base = m.layout().text_base();
      const auto image = Must(spv::attack::BuildPoisonImage(knowledge, poison.value), "image");
      (void)m.kmem().Write(poison, image);
      const spv::Kva pivot{m.layout().text_base() + spv::mem::kSymJopStackPivot};
      const spv::Kva target{cookie_recovered ? (pivot.value ^ cookie) ^ cookie
                                             : pivot.value ^ cookie};
      const spv::Status status = rig.cpu->InvokeCallback(target, poison);
      escalated = status.ok() && rig.cpu->privilege_escalated();
    }
    cycles += DestroyRig(rig, op_audit_, &obs_);
    return escalated;
  }

  // bench_fig3_dkasan: one D-KASAN workload; returns report counts by kind.
  KindCounts RunDkasan(Scenario scenario, uint64_t& cycles) {
    KindCounts counts{};
    auto tally = [&](const spv::dkasan::DKasan& dkasan) {
      counts = {dkasan.count(spv::dkasan::ReportKind::kAllocAfterMap),
                dkasan.count(spv::dkasan::ReportKind::kMapAfterAlloc),
                dkasan.count(spv::dkasan::ReportKind::kAccessAfterMap),
                dkasan.count(spv::dkasan::ReportKind::kMultipleMap)};
    };
    if (scenario == Scenario::kDkasanStorage) {
      Rig rig;
      rig.machine = BootMachine(ObservedConfig(20210428), log_);
      spv::core::Machine& m = *rig.machine;
      rig.AttachDkasan();
      bool ok = false;
      {
        auto span = log_.Open(span_dkasan_, &m.clock());
        ok = spv::dkasan::RunStorageWorkload(m, spv::DeviceId{30}, {.iterations = 400}).ok();
      }
      tally(*rig.dkasan);
      cycles += DestroyRig(rig, op_audit_, &obs_);
      return ok ? counts : KindCounts{};
    }
    const bool router = scenario == Scenario::kDkasanRouter;
    spv::core::MachineConfig config = ObservedConfig(router ? 20210427 : 20210426);
    Rig rig = MakeRig(config, router, 1728, InvalidationMode::kDeferred, false,
                      router ? nullptr : "mlx5_core", 16, /*warm_iotlb=*/false);
    spv::core::Machine& m = *rig.machine;
    bool ok = false;
    {
      auto span = log_.Open(span_dkasan_, &m.clock());
      if (router) {
        ok = spv::dkasan::RunRouterWorkload(m, *rig.nic, *rig.device, {.iterations = 300}).ok();
      } else {
        (void)m.stack().CreateSocket(7, false);
        ok = spv::dkasan::RunBuildAndPingWorkload(m, *rig.nic, *rig.device,
                                                  {.iterations = 600})
                 .ok();
      }
    }
    tally(*rig.dkasan);
    cycles += DestroyRig(rig, op_audit_, &obs_);
    return ok ? counts : KindCounts{};
  }

  // SPADE over the checked-in corpus; true when the Table-2 totals match.
  bool RunSpade() {
    auto span = log_.Open(span_spade_);
    spv::telemetry::Hub hub(spv::telemetry::Hub::Config{.enabled = true});
    spv::spade::SpadeAnalyzer analyzer;
    analyzer.set_telemetry(&hub);
    auto loaded = spv::spade::LoadCorpusDirectory(analyzer, spv::spade::DefaultCorpusDir());
    if (!loaded.ok()) {
      return false;
    }
    auto findings = analyzer.Analyze();
    if (!findings.ok()) {
      return false;
    }
    const spv::spade::Summary summary = analyzer.Summarize(*findings);
    spade_findings_ = summary.vulnerable_calls;
    spade_files_ = summary.total_files;
    obs_.telemetry_events += hub.ring().recorded();
    obs_.telemetry_dropped_critical += hub.ring().dropped(spv::telemetry::Severity::kCritical);
    return summary.total_calls == kSpadeCalls && summary.total_files == kSpadeFiles &&
           summary.vulnerable_calls == kSpadeVulnerable &&
           summary.exposed_structs.size() == kSpadeExposedStructs;
  }

  Options options_;
  SpanLog& log_;
  std::vector<size_t> order_;
  uint64_t op_id_ = 0;
  Report setup_audit_;
  Report op_audit_;
  ObsCounters obs_;
  uint64_t escalated_ = 0;
  uint64_t blocked_ = 0;
  uint64_t spade_findings_ = 0;
  uint64_t spade_files_ = 0;
  std::vector<std::string> mismatches_;
  uint32_t span_op_, span_profile_, span_ring_flood_, span_poisoned_tx_, span_forward_,
      span_ablation_, span_dkasan_, span_spade_;
};

}  // namespace

std::unique_ptr<Workload> MakeAttackDetect(const Options& options, SpanLog& log) {
  return std::make_unique<AttackDetect>(options, log);
}

}  // namespace perfbench
