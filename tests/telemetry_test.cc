// Tests for spv::telemetry: counter/histogram math, trace-ring wraparound and
// drop accounting, severity filtering, sink dispatch semantics, exporter
// escaping and determinism, observer-bridge origin filtering, and one
// end-to-end attack run traced on the machine bus.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "attack/attacks.h"
#include "attack/mini_cpu.h"
#include "core/machine.h"
#include "device/malicious_nic.h"
#include "slab/observer.h"
#include "telemetry/telemetry.h"

namespace spv::telemetry {
namespace {

// ---- Counters and histograms ----------------------------------------------------

TEST(CounterTest, AddAndSet) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  c.Set(7);
  EXPECT_EQ(c.value(), 7u);
}

TEST(HistogramTest, Log2BucketPlacement) {
  Histogram h;
  h.Record(0);     // bucket 0
  h.Record(1);     // bucket 1 (upper bound 1)
  h.Record(2);     // bucket 2 (upper bound 3)
  h.Record(3);     // bucket 2
  h.Record(4096);  // bucket 13 (upper bound 8191)
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 4102u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 4096u);
  const auto buckets = h.NonZeroBuckets();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0].upper_bound, 0u);
  EXPECT_EQ(buckets[0].count, 1u);
  EXPECT_EQ(buckets[1].upper_bound, 1u);
  EXPECT_EQ(buckets[2].upper_bound, 3u);
  EXPECT_EQ(buckets[2].count, 2u);
  EXPECT_EQ(buckets[3].upper_bound, 8191u);
}

TEST(HistogramTest, MeanAndPercentiles) {
  Histogram h;
  for (int i = 0; i < 99; ++i) {
    h.Record(1);
  }
  h.Record(1u << 20);
  EXPECT_DOUBLE_EQ(h.Mean(), (99.0 + (1u << 20)) / 100.0);
  // p50 and p99 land in the bucket of the 1s; p100 in the outlier's bucket.
  EXPECT_EQ(h.PercentileUpperBound(50), 1u);
  EXPECT_EQ(h.PercentileUpperBound(99), 1u);
  EXPECT_EQ(h.PercentileUpperBound(100), (1u << 21) - 1);
  Histogram empty;
  EXPECT_EQ(empty.PercentileUpperBound(50), 0u);
  EXPECT_DOUBLE_EQ(empty.Mean(), 0.0);
}

// ---- Trace ring -----------------------------------------------------------------

Event MakeEvent(EventKind kind, Severity severity) {
  Event event;
  event.kind = kind;
  event.severity = severity;
  return event;
}

TEST(TraceRingTest, WraparoundKeepsNewestAndCountsDrops) {
  TraceRing ring{4};
  for (int i = 0; i < 10; ++i) {
    Event event = MakeEvent(EventKind::kDmaMap, Severity::kInfo);
    event.len = static_cast<uint64_t>(i);
    EXPECT_TRUE(ring.Push(event));
  }
  EXPECT_EQ(ring.recorded(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
  EXPECT_EQ(ring.size(), 4u);
  const auto events = ring.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 6 + i);  // oldest surviving seq is 6
    EXPECT_EQ(events[i].len, 6 + i);
  }
}

TEST(TraceRingTest, SeverityFloorFiltersBeforeRecording) {
  TraceRing ring{8};
  ring.set_min_severity(Severity::kWarn);
  EXPECT_FALSE(ring.Push(MakeEvent(EventKind::kCpuAccess, Severity::kTrace)));
  EXPECT_FALSE(ring.Push(MakeEvent(EventKind::kDmaMap, Severity::kInfo)));
  EXPECT_TRUE(ring.Push(MakeEvent(EventKind::kIommuFault, Severity::kWarn)));
  EXPECT_TRUE(ring.Push(MakeEvent(EventKind::kStaleIotlbHit, Severity::kCritical)));
  EXPECT_EQ(ring.recorded(), 2u);
  EXPECT_EQ(ring.filtered(), 2u);
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(TraceRingTest, ClearResetsSequenceAndFilterCount) {
  TraceRing ring{2};
  ring.Push(MakeEvent(EventKind::kDmaMap, Severity::kInfo));
  ring.Push(MakeEvent(EventKind::kDmaMap, Severity::kInfo));
  ring.Push(MakeEvent(EventKind::kDmaMap, Severity::kInfo));
  ring.Clear();
  EXPECT_EQ(ring.recorded(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_TRUE(ring.Snapshot().empty());
}

TEST(TraceRingTest, DropsAreAccountedPerOverwrittenSeverity) {
  TraceRing ring{2};
  ring.Push(MakeEvent(EventKind::kStaleIotlbHit, Severity::kCritical));
  ring.Push(MakeEvent(EventKind::kCpuAccess, Severity::kTrace));
  // The next two pushes overwrite the oldest slots: the critical finding
  // first, then the trace record.
  ring.Push(MakeEvent(EventKind::kDmaMap, Severity::kInfo));
  EXPECT_EQ(ring.dropped(Severity::kCritical), 1u);
  EXPECT_EQ(ring.dropped(Severity::kTrace), 0u);
  ring.Push(MakeEvent(EventKind::kDmaMap, Severity::kInfo));
  EXPECT_EQ(ring.dropped(Severity::kTrace), 1u);
  EXPECT_EQ(ring.dropped(Severity::kInfo), 0u);
  EXPECT_EQ(ring.dropped(Severity::kWarn), 0u);
  EXPECT_EQ(ring.dropped(), 2u);  // the total is the sum of the breakdown
  ring.Clear();
  EXPECT_EQ(ring.dropped(Severity::kCritical), 0u);
}

TEST(TraceRingTest, ClearOnPartlyFilledRingThenRefillPastCapacity) {
  TraceRing ring{4};
  ring.Push(MakeEvent(EventKind::kStaleIotlbHit, Severity::kCritical));
  ring.Push(MakeEvent(EventKind::kDmaMap, Severity::kInfo));
  ring.Clear();
  // Refill: 4 critical records fill the ring, then 3 trace records overwrite
  // the 3 oldest. Only records pushed after Clear may be seen or dropped.
  for (uint64_t i = 0; i < 7; ++i) {
    Event event = MakeEvent(EventKind::kCpuAccess, i < 4 ? Severity::kCritical : Severity::kTrace);
    event.len = 100 + i;
    EXPECT_TRUE(ring.Push(event));
  }
  EXPECT_EQ(ring.recorded(), 7u);
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(Severity::kCritical), 3u);
  EXPECT_EQ(ring.dropped(Severity::kInfo), 0u);
  EXPECT_EQ(ring.dropped(Severity::kTrace), 0u);
  EXPECT_EQ(ring.dropped(), 3u);
  const auto events = ring.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 3 + i);  // oldest first
    EXPECT_EQ(events[i].len, 103 + i);
  }
}

// ---- Hub dispatch ---------------------------------------------------------------

struct RecordingSink : EventSink {
  std::vector<Event> seen;
  void OnEvent(const Event& event) override { seen.push_back(event); }
};

TEST(HubTest, SinksReceiveEventsEvenWhenRecordingDisabled) {
  Hub hub;  // recording off by default
  RecordingSink sink;
  hub.AddSink(&sink);
  EXPECT_TRUE(hub.active());  // a sink keeps the bus live
  hub.Publish(MakeEvent(EventKind::kDmaUnmap, Severity::kInfo));
  EXPECT_EQ(sink.seen.size(), 1u);
  EXPECT_EQ(hub.ring().recorded(), 0u);  // nothing recorded while disabled
  hub.RemoveSink(&sink);
  EXPECT_FALSE(hub.active());
}

TEST(HubTest, ClockStampsCycles) {
  SimClock clock;
  clock.AdvanceUs(3);
  Hub::Config config;
  config.enabled = true;
  Hub hub{config};
  hub.BindClock(&clock);
  hub.Publish(MakeEvent(EventKind::kNicRx, Severity::kInfo));
  const auto events = hub.ring().Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].cycle, clock.now());
}

TEST(HubTest, CounterValueIsZeroForUnknownNames) {
  Hub hub;
  EXPECT_EQ(hub.counter_value("never.touched"), 0u);
  hub.counter("touched").Add(3);
  EXPECT_EQ(hub.counter_value("touched"), 3u);
}

// ---- Exporters ------------------------------------------------------------------

TEST(ExportTest, CsvEscaping) {
  EXPECT_EQ(CsvEscape("plain"), "plain");
  EXPECT_EQ(CsvEscape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvEscape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvEscape("two\nlines"), "\"two\nlines\"");
}

TEST(ExportTest, JsonEscaping) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape("tab\there"), "tab\\there");
  EXPECT_EQ(JsonEscape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(ExportTest, HistogramJsonCarriesSummaryQuantiles) {
  Hub::Config config;
  config.enabled = true;
  Hub hub{config};
  for (int i = 0; i < 99; ++i) {
    hub.histogram("op.cycles").Record(1);
  }
  hub.histogram("op.cycles").Record(1u << 20);
  const std::string json = hub.ExportJson();
  EXPECT_NE(json.find("\"p50\":1,"), std::string::npos);
  EXPECT_NE(json.find("\"p90\":1,"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":1,"), std::string::npos);
  // Summarize() and the export derive from the same PercentileUpperBound.
  const Histogram::Summary summary = hub.histogram("op.cycles").Summarize();
  EXPECT_EQ(summary.count, 100u);
  EXPECT_EQ(summary.p50, 1u);
  EXPECT_EQ(summary.p99, 1u);
  EXPECT_DOUBLE_EQ(summary.mean, (99.0 + (1u << 20)) / 100.0);
}

TEST(ExportTest, JsonReportsDroppedCriticalFailLoud) {
  Hub::Config config;
  config.enabled = true;
  config.ring_capacity = 2;
  Hub hub{config};
  hub.Publish(MakeEvent(EventKind::kStaleIotlbHit, Severity::kCritical));
  hub.Publish(MakeEvent(EventKind::kDmaMap, Severity::kInfo));
  hub.Publish(MakeEvent(EventKind::kDmaMap, Severity::kInfo));  // evicts the finding
  const std::string json = hub.ExportJson();
  EXPECT_NE(json.find("\"dropped_critical\":1"), std::string::npos);
  EXPECT_NE(json.find("\"dropped_by_severity\":[0,0,0,1]"), std::string::npos);
}

TEST(ExportTest, TraceCsvCarriesSpanColumn) {
  Hub::Config config;
  config.enabled = true;
  Hub hub{config};
  Event event = MakeEvent(EventKind::kDmaMap, Severity::kInfo);
  event.span = 7;
  hub.Publish(event);
  const std::string csv = hub.ExportTraceCsv();
  EXPECT_EQ(csv.rfind("seq,cycle,kind,severity,device,addr,addr2,len,aux,flag,span,site", 0),
            0u);
  const std::vector<Event> parsed = ParseTraceCsv(csv);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].span, 7u);
}

TEST(ExportTest, ParseTraceCsvRoundTripsAllFields) {
  Hub::Config config;
  config.enabled = true;
  Hub hub{config};
  Event event = MakeEvent(EventKind::kStaleIotlbHit, Severity::kCritical);
  event.device = 3;
  event.addr = 0x1000;
  event.addr2 = 0x2000;
  event.len = 64;
  event.aux = 5;
  event.flag = true;
  event.span = 12;
  event.site = "quoted, \"site\"";
  hub.Publish(event);
  const std::vector<Event> parsed = ParseTraceCsv(hub.ExportTraceCsv());
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].kind, EventKind::kStaleIotlbHit);
  EXPECT_EQ(parsed[0].severity, Severity::kCritical);
  EXPECT_EQ(parsed[0].device, 3u);
  EXPECT_EQ(parsed[0].addr, 0x1000u);
  EXPECT_EQ(parsed[0].addr2, 0x2000u);
  EXPECT_EQ(parsed[0].len, 64u);
  EXPECT_EQ(parsed[0].aux, 5u);
  EXPECT_TRUE(parsed[0].flag);
  EXPECT_EQ(parsed[0].span, 12u);
  EXPECT_EQ(parsed[0].site, "quoted, \"site\"");
}

TEST(ExportTest, ParseTraceCsvSkipsElevenFieldRows) {
  // Only the 12-column export format parses: a row without the span column
  // is skipped like any other malformed row.
  const std::string csv =
      "seq,cycle,kind,severity,device,addr,addr2,len,aux,flag,span,site\n"
      "0,100,dma_map,info,1,4096,8192,64,2,0,legacy_site\n"
      "1,200,dma_unmap,info,1,4096,8192,64,2,0,7,current_site\n"
      "not,a,valid,row\n";
  const std::vector<Event> parsed = ParseTraceCsv(csv);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].cycle, 200u);
  EXPECT_EQ(parsed[0].kind, EventKind::kDmaUnmap);
  EXPECT_EQ(parsed[0].span, 7u);
  EXPECT_EQ(parsed[0].site, "current_site");
}

TEST(ExportTest, TraceCsvRoundTripsNames) {
  Hub::Config config;
  config.enabled = true;
  Hub hub{config};
  Event event = MakeEvent(EventKind::kStaleIotlbHit, Severity::kCritical);
  event.site = "unmap, then access";
  hub.Publish(event);
  const std::string csv = hub.ExportTraceCsv();
  EXPECT_NE(csv.find("stale_iotlb_hit"), std::string::npos);
  EXPECT_NE(csv.find("critical"), std::string::npos);
  EXPECT_NE(csv.find("\"unmap, then access\""), std::string::npos);
}

// Runs the same short workload the trace CLI demo uses. Everything in the
// simulation is seeded, so two runs must export byte-identical documents.
std::string RunSeededWorkload(uint64_t seed) {
  core::MachineConfig config;
  config.seed = seed;
  config.phys_pages = 4096;
  config.telemetry.enabled = true;
  core::Machine machine{config};
  const DeviceId dev{1};
  machine.iommu().AttachDevice(dev);
  Kva buf = *machine.slab().Kmalloc(2048, "export_test");
  std::vector<uint8_t> payload(64, 0x5a);
  for (int i = 0; i < 3; ++i) {
    auto iova = machine.dma().MapSingle(dev, buf, 2048, dma::DmaDirection::kFromDevice,
                                        "export_map");
    (void)machine.iommu().DeviceWrite(dev, *iova, payload);
    (void)machine.dma().UnmapSingle(dev, *iova, 2048, dma::DmaDirection::kFromDevice);
    // Deferred mode: this lands in the stale-IOTLB window after the unmap.
    (void)machine.iommu().DeviceWrite(dev, *iova, payload);
  }
  machine.clock().AdvanceUs(10001);
  machine.iommu().ProcessDeferredTimer();
  (void)machine.slab().Kfree(buf);
  return machine.telemetry().ExportJson();
}

TEST(ExportTest, JsonExportIsDeterministicUnderFixedSeed) {
  const std::string first = RunSeededWorkload(99);
  const std::string second = RunSeededWorkload(99);
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("\"iommu.maps\""), std::string::npos);
  EXPECT_NE(first.find("\"dma.map_bytes\""), std::string::npos);
  EXPECT_NE(first.find("stale_iotlb_hit"), std::string::npos);
}

// ---- Observer bridge origin filtering -------------------------------------------

struct AllocLog : slab::SlabObserver {
  std::vector<std::string> allocs;
  void OnAlloc(Kva, uint64_t, std::string_view site) override {
    allocs.emplace_back(site);
  }
  void OnFree(Kva, uint64_t) override {}
};

TEST(ObserverBridgeTest, SlabObserverIgnoresFragTrafficOnSharedHub) {
  core::MachineConfig config;
  config.telemetry.enabled = true;
  core::Machine machine{config};
  AllocLog slab_log;
  AllocLog frag_log;
  machine.slab().AddObserver(&slab_log);
  machine.frag_pool(CpuId{0}).AddObserver(&frag_log);

  Kva kva = *machine.slab().Kmalloc(128, "from_slab");
  Kva frag = *machine.frag_pool(CpuId{0}).Alloc(512, 1, "from_frag");

  // Both allocators publish on the one machine Hub, but each bridge only
  // decodes events from its own origin.
  ASSERT_EQ(slab_log.allocs.size(), 1u);
  EXPECT_EQ(slab_log.allocs[0], "from_slab");
  ASSERT_EQ(frag_log.allocs.size(), 1u);
  EXPECT_EQ(frag_log.allocs[0], "from_frag");

  machine.slab().RemoveObserver(&slab_log);
  (void)machine.slab().Kfree(kva);
  (void)machine.frag_pool(CpuId{0}).Free(frag);
  EXPECT_EQ(slab_log.allocs.size(), 1u);  // removed: no further deliveries
}

// ---- End-to-end: attack run on the machine bus ----------------------------------

// Same rig as tests/attack_test.cc, with telemetry recording turned on and the
// ring floored at kWarn so the attack narrative is what gets recorded.
TEST(TelemetryIntegrationTest, PoisonedTxStagesAppearInOrderOnTheBus) {
  core::MachineConfig config;
  config.seed = 41;
  config.iommu.mode = iommu::InvalidationMode::kDeferred;
  config.net.forwarding_enabled = false;
  config.telemetry.enabled = true;
  config.telemetry.min_severity = Severity::kWarn;

  net::NicDriver::Config driver_config;
  driver_config.name = "victim_nic";
  driver_config.rx_ring_size = 32;
  driver_config.rx_buf_len = 1728;  // i40e-style half-page buffers

  core::Machine machine{config};
  net::NicDriver& nic = machine.AddNicDriver(driver_config);
  device::MaliciousNic device{device::DevicePort{machine.iommu(), nic.device_id()}};
  device.set_warm_iotlb_on_post(true);
  nic.AttachDevice(&device);
  machine.stack().set_egress(&nic);
  attack::MiniCpu cpu{machine.kmem(), machine.layout()};
  machine.stack().set_callback_invoker(&cpu);

  ASSERT_TRUE(machine.stack().CreateSocket(7, /*echo=*/true).ok());
  ASSERT_TRUE(nic.FillRxRing().ok());

  auto report = attack::PoisonedTxAttack::Run(
      attack::AttackEnv{machine, nic, device, cpu}, {});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->success);

  // Every narrative step was published as a kWarn attack_stage event, in
  // order, prefixed with the attack name.
  std::vector<std::string> staged;
  for (const Event& event : machine.telemetry().ring().Snapshot()) {
    if (event.kind == EventKind::kAttackStage) {
      EXPECT_EQ(event.severity, Severity::kWarn);
      staged.emplace_back(event.site.view());
    }
  }
  ASSERT_EQ(staged.size(), report->steps.size());
  for (size_t i = 0; i < staged.size(); ++i) {
    EXPECT_EQ(staged[i], "poisoned_tx: " + report->steps[i]);
  }
  EXPECT_EQ(machine.telemetry().counter_value("attack.stages"), staged.size());

  // The kTrace/kInfo plumbing was filtered by the severity floor, not dropped.
  EXPECT_EQ(machine.telemetry().ring().dropped(), 0u);
  EXPECT_GT(machine.telemetry().ring().filtered(), 0u);

  // The run necessarily exercised the stale-IOTLB window; Critical events
  // passed the floor too.
  EXPECT_GT(machine.telemetry().counter_value("iommu.stale_iotlb_accesses"), 0u);
}

// ---- Event site lifetime -------------------------------------------------------

TEST(EventSiteTest, NamesBorrowAndRunTimeTextOwns) {
  const EventSite literal = "dma_map_single";
  EXPECT_FALSE(literal.owned());
  EXPECT_EQ(literal, "dma_map_single");
  const EventSite interned = Site::Intern(std::string("nic7") + "_rx");
  EXPECT_FALSE(interned.owned());
  EXPECT_EQ(interned, "nic7_rx");
  const EventSite text = EventSite::Own({"poisoned_tx: ", "pfn ", std::to_string(0x1234)});
  EXPECT_TRUE(text.owned());
  EXPECT_EQ(text, "poisoned_tx: pfn 4660");
  const EventSite copy = text;  // copies share the one buffer
  EXPECT_EQ(copy.view().data(), text.view().data());
  EXPECT_FALSE(EventSite::Own("").owned());
}

// Run-time text published from a temporary must outlive the temporary:
// the ring, the CSV export and the parsed rows all still read it. A dangling
// view here is a heap-use-after-free under ASan.
TEST(EventSiteTest, OwnedTextOutlivesItsEmitter) {
  Hub hub(Hub::Config{.enabled = true, .ring_capacity = 8});
  for (int i = 0; i < 3; ++i) {
    std::string narration = "ring_flood: guessed pfn 0x" + std::to_string(1000 + i) +
                            " from " + std::string(40, 'x');  // past the SSO limit
    Event event;
    event.kind = EventKind::kAttackStage;
    event.severity = Severity::kWarn;
    event.site = EventSite::Own(narration);
    hub.Publish(std::move(event));
    narration.assign(narration.size(), '?');  // scribble, then destroy
  }
  Event borrowed;
  borrowed.kind = EventKind::kDmaMap;
  borrowed.site = "dma_map_single";
  hub.Publish(borrowed);

  const std::string tail = " from " + std::string(40, 'x');
  const std::vector<Event> snapshot = hub.ring().Snapshot();
  ASSERT_EQ(snapshot.size(), 4u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(snapshot[i].site, "ring_flood: guessed pfn 0x" + std::to_string(1000 + i) + tail);
  }
  EXPECT_FALSE(snapshot[3].site.owned());

  std::vector<Event> parsed;
  {
    const std::string csv = hub.ExportTraceCsv();
    EXPECT_NE(csv.find("ring_flood: guessed pfn 0x1002" + tail), std::string::npos);
    parsed = ParseTraceCsv(csv);
  }  // the CSV text is gone; the parsed rows own their sites
  ASSERT_EQ(parsed.size(), 4u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(parsed[i].site, "ring_flood: guessed pfn 0x" + std::to_string(1000 + i) + tail);
  }
  EXPECT_EQ(parsed[3].site, "dma_map_single");

  // Overwriting a ring slot releases the text it held, and only that.
  for (int i = 0; i < 8; ++i) {
    hub.Publish(borrowed);
  }
  EXPECT_EQ(hub.ring().dropped(), 4u);
  EXPECT_EQ(parsed[0].site, "ring_flood: guessed pfn 0x1000" + tail);
}

// Every site published from kThreads workers arrives intact through the
// per-CPU SPSC rings and the drainer: borrowed names as the same view,
// owned run-time text with its bytes. Runs under TSan in CI.
TEST(EventSiteThreadsTest, SitesSurviveTheSpscDrain) {
  constexpr uint32_t kCpus = 4;
  constexpr int kPerCpu = 500;
  core::MachineConfig config;
  config.exec = ExecMode::kThreads;
  config.telemetry.enabled = true;
  config.telemetry.ring_capacity = kCpus * kPerCpu * 2;
  config.iommu.fast_path.num_cpus = kCpus;
  core::Machine machine{config};

  // Collects every attack-stage site on the drainer thread.
  class Collector : public EventSink {
   public:
    void OnEvent(const Event& event) override {
      if (event.kind == EventKind::kAttackStage) {
        sites.emplace_back(event.site.view());
        owned += event.site.owned() ? 1 : 0;
      }
    }
    std::vector<std::string> sites;
    size_t owned = 0;
  } collector;
  machine.telemetry().AddSink(&collector);

  machine.RunOnCpus(kCpus, [&](CpuId cpu) {
    for (int i = 0; i < kPerCpu; ++i) {
      Event event;
      event.kind = EventKind::kAttackStage;
      event.severity = Severity::kWarn;
      if (i % 2 == 0) {
        // Built on the worker's stack and gone before the drainer runs.
        const std::string text = "cpu" + std::to_string(cpu.value) + " stage " +
                                 std::to_string(i) + " " +
                                 std::string(32, static_cast<char>('a' + cpu.value));
        event.site = EventSite::Own(text);
      } else {
        event.site = "borrowed stage";
      }
      machine.telemetry().Publish(std::move(event));
      // Real emitters on the same rings: slab events carry Site names.
      Result<Kva> kva = machine.slab().Kmalloc(128, "threads_site_test");
      if (kva.ok()) {
        (void)machine.slab().Kfree(*kva);
      }
    }
  });
  machine.telemetry().RemoveSink(&collector);

  ASSERT_EQ(machine.telemetry().mt_dropped(), 0u);
  ASSERT_EQ(collector.sites.size(), size_t{kCpus} * kPerCpu);
  std::vector<std::string> expected;
  for (uint32_t cpu = 0; cpu < kCpus; ++cpu) {
    for (int i = 0; i < kPerCpu; ++i) {
      expected.push_back(i % 2 == 0 ? "cpu" + std::to_string(cpu) + " stage " +
                                          std::to_string(i) + " " +
                                          std::string(32, static_cast<char>('a' + cpu))
                                    : std::string("borrowed stage"));
    }
  }
  std::sort(expected.begin(), expected.end());
  std::sort(collector.sites.begin(), collector.sites.end());
  EXPECT_EQ(collector.sites, expected);
  EXPECT_EQ(collector.owned, size_t{kCpus} * kPerCpu / 2);
  for (const Event& event : machine.telemetry().ring().Snapshot()) {
    if (event.kind == EventKind::kSlabAlloc) {
      EXPECT_EQ(event.site, "threads_site_test");
    }
  }
}

}  // namespace
}  // namespace spv::telemetry
