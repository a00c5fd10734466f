#include "nvme/nvme_driver.h"

#include <algorithm>
#include <array>

#include "dma/bounce_pool.h"
#include "fault/fault.h"
#include "trace/tracer.h"

namespace spv::nvme {

namespace {

// Cycles one empty CQ-poll iteration costs: the spin that makes the poll
// deadline reachable on a silent device.
constexpr uint64_t kPollSpinCycles = 100;

// One helper for every driver emit point, same shape as the NIC's: sites
// are the driver's names interned at construction.
void EmitNvmeEvent(telemetry::Hub& hub, telemetry::EventKind kind,
                   telemetry::Severity severity, DeviceId device, uint64_t len,
                   uint64_t addr, const void* origin, Site site) {
  if (!hub.active()) {
    return;
  }
  telemetry::Event event;
  event.kind = kind;
  event.severity = severity;
  event.device = device.value;
  event.len = len;
  event.addr = addr;
  event.origin = origin;
  event.site = site;
  hub.Publish(std::move(event));
}

}  // namespace

NvmeDriver::NvmeDriver(DeviceId device_id, dma::DmaApi& dma,
                       dma::KernelMemory& kmem, slab::SlabAllocator& slab,
                       slab::PageFragPool* frag_pool, SimClock& clock,
                       Config config)
    : device_id_(device_id),
      dma_(dma),
      kmem_(kmem),
      slab_(slab),
      frag_pool_(frag_pool),
      clock_(clock),
      config_(std::move(config)),
      sites_(config_.name) {}

NvmeDriver::Sites::Sites(std::string_view name) {
  std::string site(name);
  const auto intern = [&](std::string_view suffix) {
    site.resize(name.size());
    site += suffix;
    return Site::Intern(site);
  };
  sq = intern("_sq");
  cq = intern("_cq");
  map_sq = intern("_map_sq");
  map_cq = intern("_map_cq");
  identify = intern("_identify");
  map_identify = intern("_map_identify");
  map_data = intern("_map_data");
  prp_seg = intern("_prp_seg");
  map_prp = intern("_map_prp");
  read = intern("_read");
  write = intern("_write");
  complete = intern("_complete");
  error_status = intern("_error_status");
  bad_cid = intern("_bad_cid");
  admin_bad_cid = intern("_admin_bad_cid");
  short_transfer = intern("_short_transfer");
  watchdog = intern("_watchdog");
  mode_switch = intern("_mode_switch");
}

bool NvmeDriver::PollDeadlineHit(uint64_t start_cycle, std::string_view loop) {
  if (clock_.now() - start_cycle < EffectivePollDeadline()) {
    return false;
  }
  ++poll_deadline_hits_;
  if (dma_.telemetry().active()) {
    // Rare (a bounded loop gave up), so the name is interned here.
    EmitNvmeEvent(dma_.telemetry(), telemetry::EventKind::kNvmePollDeadline,
                  telemetry::Severity::kWarn, device_id_,
                  clock_.now() - start_cycle, 0, this,
                  Site::Intern(config_.name + "_" + std::string(loop)));
  }
  if (dma_.telemetry().enabled()) {
    dma_.telemetry().counter("nvme.poll_deadline_exceeded").Add();
  }
  return true;
}

uint16_t NvmeDriver::NextCid() {
  // CID 0 is reserved so a zeroed CQE slot can never match a command.
  do {
    next_cid_ = static_cast<uint16_t>((next_cid_ + 1) & 0x7fff);
  } while (next_cid_ == 0 || outstanding_.count(next_cid_) != 0 ||
           finished_.count(next_cid_) != 0);
  return next_cid_;
}

// ---- Bring-up -------------------------------------------------------------------

Status NvmeDriver::Init() {
  if (device_ == nullptr) {
    return FailedPrecondition("no device attached");
  }
  if (admin_.live || io_.live) {
    return FailedPrecondition("driver already initialized");
  }
  trace::ScopedSpan span(tracer_, "nvme.init");
  active_mode_ = dma_.service_mode(device_id_);
  SPV_RETURN_IF_ERROR(AllocQueue(admin_, kAdminQid, config_.admin_queue_entries,
                                 config_.admin_queue_entries));
  device_->OnAdminQueueConfigured(QueuePair{kAdminQid, admin_.sq_iova,
                                            admin_.sq_entries, admin_.cq_iova,
                                            admin_.cq_entries});
  Status identify = IdentifyController();
  if (!identify.ok()) {
    (void)Shutdown();
    return identify;
  }
  Status io_queue = CreateIoQueue();
  if (!io_queue.ok()) {
    (void)Shutdown();
    return io_queue;
  }
  return OkStatus();
}

Status NvmeDriver::Resume() {
  if (admin_.live || io_.live) {
    (void)Shutdown();
  }
  return Init();
}

Status NvmeDriver::AllocQueue(QueueView& view, uint16_t qid,
                              uint16_t sq_entries, uint16_t cq_entries) {
  dma_.set_current_cpu(config_.cpu);
  const uint64_t sq_bytes = static_cast<uint64_t>(sq_entries) * kSqeSize;
  const uint64_t cq_bytes = static_cast<uint64_t>(cq_entries) * kCqeSize;
  // Ring memory is kmalloc'd: the rings land in the 256..2048 size classes
  // next to unrelated kernel objects — type (d) co-location for queue state
  // itself, exactly like a real dma_alloc_coherent-averse driver would not
  // have, and our attack tests need.
  Result<Kva> sq = slab_.Kmalloc(sq_bytes, sites_.sq);
  if (!sq.ok()) {
    return sq.status();
  }
  Result<Kva> cq = slab_.Kmalloc(cq_bytes, sites_.cq);
  if (!cq.ok()) {
    (void)slab_.Kfree(*sq);
    return cq.status();
  }
  // Persistent maps: for trusted devices this is MapSingle verbatim; for
  // bounced devices the ring lands in pool slots that stay put for the
  // queue's whole life, with SQE/CQE syncs moving the bytes (sync mode).
  Result<Iova> sq_iova =
      dma_.MapPersistent(device_id_, *sq, sq_bytes, dma::DmaDirection::kToDevice,
                         sites_.map_sq);
  if (!sq_iova.ok()) {
    (void)slab_.Kfree(*cq);
    (void)slab_.Kfree(*sq);
    return sq_iova.status();
  }
  Result<Iova> cq_iova =
      dma_.MapPersistent(device_id_, *cq, cq_bytes, dma::DmaDirection::kFromDevice,
                         sites_.map_cq);
  if (!cq_iova.ok()) {
    (void)dma_.UnmapSingle(device_id_, *sq_iova, sq_bytes,
                           dma::DmaDirection::kToDevice);
    (void)slab_.Kfree(*cq);
    (void)slab_.Kfree(*sq);
    return cq_iova.status();
  }
  view = QueueView{};
  view.live = true;
  view.qid = qid;
  view.sq_kva = *sq;
  view.sq_iova = *sq_iova;
  view.sq_entries = sq_entries;
  view.cq_kva = *cq;
  view.cq_iova = *cq_iova;
  view.cq_entries = cq_entries;
  dma::BouncePool* pool = dma_.bounce_pool();
  view.sq_bounced = pool != nullptr && pool->Owns(device_id_, *sq_iova);
  view.cq_bounced = pool != nullptr && pool->Owns(device_id_, *cq_iova);
  return OkStatus();
}

Status NvmeDriver::FreeQueue(QueueView& view) {
  if (!view.live) {
    return OkStatus();
  }
  dma_.set_current_cpu(config_.cpu);
  Status first = OkStatus();
  auto note = [&first](Status status) {
    if (first.ok() && !status.ok()) {
      first = status;
    }
  };
  note(dma_.UnmapSingle(device_id_, view.sq_iova,
                        static_cast<uint64_t>(view.sq_entries) * kSqeSize,
                        dma::DmaDirection::kToDevice));
  note(dma_.UnmapSingle(device_id_, view.cq_iova,
                        static_cast<uint64_t>(view.cq_entries) * kCqeSize,
                        dma::DmaDirection::kFromDevice));
  note(slab_.Kfree(view.sq_kva));
  note(slab_.Kfree(view.cq_kva));
  view = QueueView{};
  return first;
}

Status NvmeDriver::IdentifyController() {
  Result<Kva> page = slab_.Kmalloc(kPageSize, sites_.identify);
  if (!page.ok()) {
    return page.status();
  }
  Result<Iova> iova =
      dma_.MapSingle(device_id_, *page, kPageSize,
                     dma::DmaDirection::kFromDevice, sites_.map_identify);
  if (!iova.ok()) {
    (void)slab_.Kfree(*page);
    return iova.status();
  }
  Sqe sqe;
  sqe.opcode = kAdminIdentify;
  sqe.cid = NextCid();
  sqe.prp1 = iova->value;
  Result<Cqe> cqe = AdminCommand(sqe);
  Status first = cqe.ok() ? OkStatus() : cqe.status();
  if (first.ok() && cqe->status != kScSuccess) {
    first = Internal("identify failed with status " +
                     std::to_string(cqe->status));
  }
  if (first.ok()) {
    dma::BouncePool* pool = dma_.bounce_pool();
    if (pool != nullptr && pool->Owns(device_id_, *iova)) {
      // Transient bounces only copy out at unmap, but the capacity read
      // happens while the page is still mapped — pull the device's identify
      // bytes across the bounce boundary now.
      first = dma_.SyncSingleForCpu(device_id_, *iova, kPageSize,
                                    dma::DmaDirection::kFromDevice);
    }
  }
  if (first.ok()) {
    Result<uint64_t> capacity = kmem_.ReadU64(*page + kIdentifyCapacityOff);
    if (capacity.ok()) {
      capacity_blocks_ = *capacity;
    } else {
      first = capacity.status();
    }
  }
  (void)dma_.UnmapSingle(device_id_, *iova, kPageSize,
                         dma::DmaDirection::kFromDevice);
  (void)slab_.Kfree(*page);
  return first;
}

Status NvmeDriver::CreateIoQueue() {
  SPV_RETURN_IF_ERROR(AllocQueue(io_, kIoQid, config_.io_queue_entries,
                                 config_.io_queue_entries));
  // CQ before SQ, per spec: the SQ references its CQ at creation.
  Sqe create_cq;
  create_cq.opcode = kAdminCreateCq;
  create_cq.cid = NextCid();
  create_cq.prp1 = io_.cq_iova.value;
  create_cq.cdw10 = static_cast<uint32_t>(kIoQid) |
                    (static_cast<uint32_t>(io_.cq_entries - 1) << 16);
  Result<Cqe> cq_done = AdminCommand(create_cq);
  if (!cq_done.ok() || cq_done->status != kScSuccess) {
    (void)FreeQueue(io_);
    return cq_done.ok() ? Internal("create cq failed with status " +
                                   std::to_string(cq_done->status))
                        : cq_done.status();
  }
  Sqe create_sq;
  create_sq.opcode = kAdminCreateSq;
  create_sq.cid = NextCid();
  create_sq.prp1 = io_.sq_iova.value;
  create_sq.cdw10 = static_cast<uint32_t>(kIoQid) |
                    (static_cast<uint32_t>(io_.sq_entries - 1) << 16);
  create_sq.cdw11 = kIoQid;
  Result<Cqe> sq_done = AdminCommand(create_sq);
  if (!sq_done.ok() || sq_done->status != kScSuccess) {
    (void)FreeQueue(io_);
    return sq_done.ok() ? Internal("create sq failed with status " +
                                   std::to_string(sq_done->status))
                        : sq_done.status();
  }
  return OkStatus();
}

Result<Cqe> NvmeDriver::AdminCommand(const Sqe& sqe) {
  if (!admin_.live) {
    return FailedPrecondition("admin queue down");
  }
  trace::ScopedSpan span(tracer_, "nvme.admin");
  SPV_RETURN_IF_ERROR(WriteSqe(admin_, sqe));
  admin_.sq_tail =
      static_cast<uint16_t>((admin_.sq_tail + 1) % admin_.sq_entries);
  device_->OnSqDoorbell(kAdminQid, admin_.sq_tail);
  const uint64_t start = clock_.now();
  while (true) {
    std::optional<Cqe> cqe = TryPopCqe(admin_);
    if (cqe.has_value()) {
      if (cqe->cid != sqe.cid) {
        ++completion_errors_;
        EmitNvmeEvent(dma_.telemetry(),
                      telemetry::EventKind::kNvmeCompletionError,
                      telemetry::Severity::kWarn, device_id_, 0, cqe->cid, this,
                      sites_.admin_bad_cid);
        continue;
      }
      return *cqe;
    }
    if (PollDeadlineHit(start, "admin_poll")) {
      return Unavailable("admin completion did not arrive");
    }
    clock_.Advance(kPollSpinCycles);
  }
}

// ---- IO submission --------------------------------------------------------------

Result<uint16_t> NvmeDriver::SubmitRead(uint64_t slba, uint16_t nblocks,
                                        Kva buf) {
  return SubmitIo(kOpRead, slba, nblocks, buf);
}

Result<uint16_t> NvmeDriver::SubmitWrite(uint64_t slba, uint16_t nblocks,
                                         Kva buf) {
  return SubmitIo(kOpWrite, slba, nblocks, buf);
}

Result<uint64_t> NvmeDriver::ReadBlocks(uint64_t slba, uint16_t nblocks,
                                        Kva buf) {
  trace::ScopedSpan span(tracer_, "nvme.io");
  Result<uint16_t> cid = SubmitRead(slba, nblocks, buf);
  if (!cid.ok()) {
    return cid.status();
  }
  return WaitFor(*cid);
}

Result<uint64_t> NvmeDriver::WriteBlocks(uint64_t slba, uint16_t nblocks,
                                         Kva buf) {
  trace::ScopedSpan span(tracer_, "nvme.io");
  Result<uint16_t> cid = SubmitWrite(slba, nblocks, buf);
  if (!cid.ok()) {
    return cid.status();
  }
  return WaitFor(*cid);
}

Status NvmeDriver::Flush() {
  RefreshServiceMode();
  if (!io_.live) {
    return FailedPrecondition("io queue down");
  }
  trace::ScopedSpan span(tracer_, "nvme.io");
  Sqe sqe;
  sqe.opcode = kOpFlush;
  sqe.cid = NextCid();
  SPV_RETURN_IF_ERROR(WriteSqe(io_, sqe));
  io_.sq_tail = static_cast<uint16_t>((io_.sq_tail + 1) % io_.sq_entries);
  IoCmd cmd;
  cmd.opcode = kOpFlush;
  cmd.submit_cycle = clock_.now();
  outstanding_[sqe.cid] = std::move(cmd);
  device_->OnSqDoorbell(kIoQid, io_.sq_tail);
  return WaitFor(sqe.cid).status();
}

Result<uint16_t> NvmeDriver::SubmitIo(uint8_t opcode, uint64_t slba,
                                      uint16_t nblocks, Kva buf) {
  RefreshServiceMode();
  // CID 0 = "allocate one after validation" (CID 0 is reserved anyway).
  return SubmitIoWithCid(opcode, slba, nblocks, buf, 0, clock_.now());
}

Result<uint16_t> NvmeDriver::SubmitIoWithCid(uint8_t opcode, uint64_t slba,
                                             uint16_t nblocks, Kva buf,
                                             uint16_t cid,
                                             uint64_t submit_cycle) {
  if (!io_.live) {
    return FailedPrecondition("io queue down");
  }
  if (nblocks == 0) {
    return InvalidArgument("zero-length transfer");
  }
  if (nblocks > config_.max_transfer_blocks) {
    return InvalidArgument("transfer exceeds max_transfer_blocks");
  }
  if (capacity_blocks_ != 0 &&
      (slba > capacity_blocks_ || nblocks > capacity_blocks_ - slba)) {
    return InvalidArgument("transfer beyond device capacity");
  }
  if (outstanding_.size() >= EffectiveQueueDepth()) {
    return ResourceExhausted("io queue full");
  }
  trace::ScopedSpan span(tracer_, "nvme.submit");
  dma_.set_current_cpu(config_.cpu);
  const uint64_t len = static_cast<uint64_t>(nblocks) << kLbaShift;
  const dma::DmaDirection dir = opcode == kOpRead
                                    ? dma::DmaDirection::kFromDevice
                                    : dma::DmaDirection::kToDevice;
  Result<Iova> iova =
      dma_.MapSingle(device_id_, buf, len, dir, sites_.map_data);
  if (!iova.ok()) {
    return iova.status();
  }
  const uint64_t prp1 = iova->value;
  const uint64_t first_len =
      std::min(kPageSize - (prp1 & (kPageSize - 1)), len);
  uint64_t prp2 = 0;
  std::vector<PrpSeg> segs;
  if (len > first_len) {
    // Every byte past the first page boundary is covered by page-aligned
    // entries at prp1+first_len, +4K, ... (MapSingle keeps the buffer
    // IOVA-contiguous).
    std::vector<uint64_t>& pages = prp_pages_;
    pages.clear();
    for (uint64_t off = first_len; off < len; off += kPageSize) {
      pages.push_back(prp1 + off);
    }
    if (pages.size() == 1) {
      prp2 = pages[0];  // PRP2-as-page: exactly one extra page, no list
    } else {
      Status chain = BuildPrpChain(pages, segs, prp2);
      if (!chain.ok()) {
        (void)dma_.UnmapSingle(device_id_, *iova, len, dir);
        return chain;
      }
    }
  }
  Sqe sqe;
  sqe.opcode = opcode;
  sqe.cid = cid == 0 ? NextCid() : cid;
  sqe.prp1 = prp1;
  sqe.prp2 = prp2;
  sqe.slba = slba;
  sqe.nlb = static_cast<uint16_t>(nblocks - 1);
  Status wrote = WriteSqe(io_, sqe);
  if (!wrote.ok()) {
    IoCmd scratch{opcode, buf, len, *iova, dir, std::move(segs), 0,
                  slba, nblocks};
    (void)ReleaseCmd(scratch, "sqe_write_failed");
    return wrote;
  }
  io_.sq_tail = static_cast<uint16_t>((io_.sq_tail + 1) % io_.sq_entries);
  IoCmd cmd{opcode, buf, len, *iova, dir, std::move(segs), submit_cycle,
            slba, nblocks};
  const uint16_t use_cid = sqe.cid;
  outstanding_nodes_.Put(outstanding_, use_cid, std::move(cmd));
  EmitNvmeEvent(dma_.telemetry(), telemetry::EventKind::kNvmeSubmit,
                telemetry::Severity::kInfo, device_id_, len, iova->value, this,
                opcode == kOpRead ? sites_.read : sites_.write);
  device_->OnSqDoorbell(kIoQid, io_.sq_tail);
  return use_cid;
}

Status NvmeDriver::BuildPrpChain(const std::vector<uint64_t>& page_iovas,
                                 std::vector<PrpSeg>& segs, uint64_t& prp2) {
  // Split entries into fixed-capacity segments: every segment but the last
  // donates its final slot to the chain pointer.
  constexpr size_t kPerLinkedSeg = kPrpSegEntries - 1;
  size_t num_segs = 1;
  while (page_iovas.size() - (num_segs - 1) * kPerLinkedSeg > kPrpSegEntries) {
    ++num_segs;
  }
  auto entries_in = [&](size_t seg) {
    return seg + 1 < num_segs ? kPerLinkedSeg
                              : page_iovas.size() - (num_segs - 1) * kPerLinkedSeg;
  };
  // Build back-to-front so each chain pointer is written (by the CPU, before
  // the segment is mapped) with the already-known IOVA of its successor —
  // no CPU stores into device-owned memory.
  const size_t base = segs.size();
  segs.resize(base + num_segs);
  const bool from_frag = config_.prp_lists_from_frags && frag_pool_ != nullptr;
  const uint64_t seg_bytes = from_frag ? kPrpSegBytes : kPageSize;
  uint64_t next_iova = 0;
  size_t entry_index = page_iovas.size();
  Status first = OkStatus();
  size_t s = num_segs;
  while (s-- > 0) {
    entry_index -= entries_in(s);
    Result<Kva> kva =
        from_frag
            ? frag_pool_->Alloc(kPrpSegBytes, 8, sites_.prp_seg)
            : slab_.Kmalloc(kPageSize, sites_.prp_seg);
    if (!kva.ok()) {
      first = kva.status();
      break;
    }
    for (size_t j = 0; j < entries_in(s) && first.ok(); ++j) {
      first = kmem_.WriteU64(*kva + 8 * j, page_iovas[entry_index + j]);
    }
    if (first.ok() && next_iova != 0) {
      first = kmem_.WriteU64(*kva + 8 * (kPrpSegEntries - 1), next_iova);
    }
    if (!first.ok()) {
      if (from_frag) {
        (void)frag_pool_->Free(*kva);
      } else {
        (void)slab_.Kfree(*kva);
      }
      break;
    }
    Result<Iova> seg_iova =
        dma_.MapSingle(device_id_, *kva, seg_bytes,
                       dma::DmaDirection::kToDevice, sites_.map_prp);
    if (!seg_iova.ok()) {
      if (from_frag) {
        (void)frag_pool_->Free(*kva);
      } else {
        (void)slab_.Kfree(*kva);
      }
      first = seg_iova.status();
      break;
    }
    segs[base + s] = PrpSeg{*kva, *seg_iova, from_frag};
    next_iova = seg_iova->value;
    ++prp_segments_built_;
  }
  if (!first.ok()) {
    // Tear down the segments already built (they sit at indices s+1..end).
    for (size_t t = s + 1; t < num_segs; ++t) {
      const PrpSeg& built = segs[base + t];
      (void)dma_.UnmapSingle(device_id_, built.iova, seg_bytes,
                             dma::DmaDirection::kToDevice);
      if (built.from_frag) {
        (void)frag_pool_->Free(built.kva);
      } else {
        (void)slab_.Kfree(built.kva);
      }
    }
    segs.resize(base);
    return first;
  }
  prp2 = next_iova;
  return OkStatus();
}

Status NvmeDriver::WriteSqe(QueueView& view, const Sqe& sqe) {
  const std::array<uint8_t, kSqeSize> raw = EncodeSqe(sqe);
  const uint64_t off = static_cast<uint64_t>(view.sq_tail) * kSqeSize;
  SPV_RETURN_IF_ERROR(kmem_.Write(view.sq_kva + off, raw));
  if (view.sq_bounced) {
    // Sync-mode ring: copy the fresh SQE into its bounce slot before the
    // doorbell so the device's fetch through the static pool mapping sees
    // it. One 64-byte sync per command — the measured cost of distrust.
    return dma_.SyncSingleForDevice(device_id_, view.sq_iova + off, kSqeSize,
                                    dma::DmaDirection::kToDevice);
  }
  return OkStatus();
}

// ---- Completion -----------------------------------------------------------------

std::optional<Cqe> NvmeDriver::TryPopCqe(QueueView& view) {
  const uint64_t off = static_cast<uint64_t>(view.cq_head) * kCqeSize;
  if (view.cq_bounced) {
    // Pull the candidate CQE out of its bounce slot before the phase check.
    // The CQ is only ever sync'd for-cpu: a for-device re-arm would scrub
    // the ring and fabricate phase-matching zero CQEs after the first wrap.
    if (!dma_.SyncSingleForCpu(device_id_, view.cq_iova + off, kCqeSize,
                               dma::DmaDirection::kFromDevice)
             .ok()) {
      return std::nullopt;
    }
  }
  std::array<uint8_t, kCqeSize> raw{};
  if (!kmem_.Read(view.cq_kva + off, raw).ok()) {
    return std::nullopt;
  }
  Cqe cqe = DecodeCqe(raw);
  if (cqe.phase != view.phase) {
    return std::nullopt;  // slot not (visibly) written this pass
  }
  view.cq_head = static_cast<uint16_t>((view.cq_head + 1) % view.cq_entries);
  if (view.cq_head == 0) {
    view.phase = !view.phase;
  }
  device_->OnCqDoorbell(view.qid, view.cq_head);
  return cqe;
}

uint32_t NvmeDriver::PollCompletions() {
  RefreshServiceMode();
  if (!io_.live) {
    return 0;
  }
  trace::ScopedSpan span(tracer_, "nvme.poll");
  const uint64_t start = clock_.now();
  uint32_t consumed = 0;
  while (true) {
    std::optional<Cqe> cqe = TryPopCqe(io_);
    if (!cqe.has_value()) {
      break;
    }
    if (HandleIoCqe(*cqe)) {
      ++consumed;
    }
    if (PollDeadlineHit(start, "cq_poll")) {
      break;
    }
    clock_.Advance(kPollSpinCycles);
  }
  return consumed;
}

bool NvmeDriver::HandleIoCqe(const Cqe& cqe) {
  telemetry::Hub& hub = dma_.telemetry();
  auto it = outstanding_.find(cqe.cid);
  if (it == outstanding_.end()) {
    // Unknown CID: duplicate delivery (doorbell storm), a corrupted fetch's
    // completion, or a forgery that guessed wrong.
    ++completion_errors_;
    EmitNvmeEvent(hub, telemetry::EventKind::kNvmeCompletionError,
                  telemetry::Severity::kWarn, device_id_, 0, cqe.cid, this,
                  sites_.bad_cid);
    if (hub.enabled()) {
      c_completion_errors_.Get(hub).Add();
    }
    return false;
  }
  IoCmd cmd = outstanding_nodes_.Take(outstanding_, it);
  uint8_t status = cqe.status;
  uint64_t transferred = cqe.dw0;
  if (status == kScSuccess && transferred != cmd.len) {
    // Success claimed but the byte count disagrees: a short transfer (or a
    // forged DW0). The data cannot be trusted.
    ++completion_errors_;
    EmitNvmeEvent(hub, telemetry::EventKind::kNvmeCompletionError,
                  telemetry::Severity::kWarn, device_id_, transferred, cqe.cid,
                  this, sites_.short_transfer);
    if (hub.enabled()) {
      c_completion_errors_.Get(hub).Add();
    }
    status = kScDataTransferError;
  }
  (void)ReleaseCmd(cmd, "complete");
  finished_nodes_.Put(finished_, cqe.cid, Finished{status, transferred});
  if (status == kScSuccess) {
    if (cmd.opcode == kOpRead) {
      ++reads_completed_;
    } else if (cmd.opcode == kOpWrite) {
      ++writes_completed_;
    }
    EmitNvmeEvent(hub, telemetry::EventKind::kNvmeComplete,
                  telemetry::Severity::kInfo, device_id_, transferred, cqe.cid,
                  this, sites_.complete);
    if (hub.enabled()) {
      (cmd.opcode == kOpRead ? c_reads_ : c_writes_).Get(hub).Add();
      h_io_latency_cycles_.Get(hub).Record(clock_.now() - cmd.submit_cycle);
      h_transfer_bytes_.Get(hub).Record(transferred);
    }
  } else {
    ++io_errors_;
    EmitNvmeEvent(hub, telemetry::EventKind::kNvmeComplete,
                  telemetry::Severity::kWarn, device_id_, transferred, cqe.cid,
                  this, sites_.error_status);
    if (hub.enabled()) {
      c_io_errors_.Get(hub).Add();
    }
  }
  return true;
}

Result<uint64_t> NvmeDriver::WaitFor(uint16_t cid) {
  const uint64_t start = clock_.now();
  while (true) {
    auto done = finished_.find(cid);
    if (done != finished_.end()) {
      const Finished result = finished_nodes_.Take(finished_, done);
      if (result.status != kScSuccess) {
        return Internal("nvme command failed with status " +
                        std::to_string(result.status));
      }
      return result.transferred;
    }
    if (outstanding_.find(cid) == outstanding_.end()) {
      return Unavailable("command aborted before completion");
    }
    PollCompletions();
    if (finished_.count(cid) != 0) {
      continue;
    }
    if (PollDeadlineHit(start, "wait")) {
      // Leave the command outstanding: the watchdog owns it now.
      return Unavailable("completion did not arrive within poll deadline");
    }
    clock_.Advance(kPollSpinCycles);
  }
}

// ---- Teardown / recovery --------------------------------------------------------

Status NvmeDriver::ReleaseCmd(IoCmd& cmd, std::string_view /*why*/) {
  dma_.set_current_cpu(config_.cpu);
  Status first = OkStatus();
  auto note = [&first](Status status) {
    if (first.ok() && !status.ok()) {
      first = status;
    }
  };
  if (cmd.len != 0) {
    note(dma_.UnmapSingle(device_id_, cmd.data_iova, cmd.len, cmd.dir));
  }
  for (PrpSeg& seg : cmd.segs) {
    const uint64_t seg_bytes = seg.from_frag ? kPrpSegBytes : kPageSize;
    note(dma_.UnmapSingle(device_id_, seg.iova, seg_bytes,
                          dma::DmaDirection::kToDevice));
    if (seg.from_frag) {
      note(frag_pool_->Free(seg.kva));
    } else {
      note(slab_.Kfree(seg.kva));
    }
  }
  cmd.segs.clear();
  cmd.len = 0;
  return first;
}

void NvmeDriver::FailAllOutstanding(std::string_view why) {
  for (auto& [cid, cmd] : outstanding_) {
    (void)ReleaseCmd(cmd, why);
    finished_[cid] = Finished{kScInternalError, 0};
    ++io_errors_;
  }
  outstanding_.clear();
}

uint32_t NvmeDriver::CheckTimeouts() {
  if (!io_.live || outstanding_.empty()) {
    return 0;
  }
  const uint64_t now = clock_.now();
  bool overdue = false;
  for (const auto& [cid, cmd] : outstanding_) {
    if (now - cmd.submit_cycle >= config_.completion_timeout_cycles) {
      overdue = true;
      break;
    }
  }
  if (!overdue) {
    return 0;
  }
  // One lost completion condemns the queue: fail everything in flight and
  // rebuild the queue pair (the controller-reset analogue of a TX watchdog).
  const uint32_t failed = static_cast<uint32_t>(outstanding_.size());
  ++queue_resets_;
  EmitNvmeEvent(dma_.telemetry(), telemetry::EventKind::kNvmeQueueReset,
                telemetry::Severity::kWarn, device_id_, failed, 0, this,
                sites_.watchdog);
  if (dma_.telemetry().enabled()) {
    dma_.telemetry().counter("nvme.queue_resets").Add();
  }
  FailAllOutstanding("watchdog");
  (void)ResetIoQueue();
  return failed;
}

Status NvmeDriver::ResetIoQueue() {
  if (device_ != nullptr) {
    device_->OnQueueDeleted(kIoQid);
  }
  Status freed = FreeQueue(io_);
  Status created = CreateIoQueue();
  if (!created.ok()) {
    // Queue stays down (fenced / hostile device); Resume() rebuilds later.
    io_.live = false;
    return created;
  }
  return freed;
}

// ---- Live service-mode switch ---------------------------------------------------
//
// A demotion (or promotion) lands while commands are in flight: the router's
// answer to service_mode() no longer matches the rings the driver built.
// Serving on stale routing would either keep zero-copy rings alive for a now-
// untrusted device or strand bounce slots after a promotion, so the driver
// re-homes: snapshot in-flight commands, controller-reset both queue pairs
// (rings re-map under the new routing), and re-issue every command with its
// original CID — callers blocked in WaitFor() never notice the rings moved.

void NvmeDriver::RefreshServiceMode() {
  if (in_mode_switch_ || !admin_.live || !io_.live) {
    return;
  }
  const dma::ServiceMode want = dma_.service_mode(device_id_);
  if (want == active_mode_) {
    return;
  }
  (void)SwitchServiceMode(want);
}

Status NvmeDriver::SwitchServiceMode(dma::ServiceMode next) {
  in_mode_switch_ = true;
  trace::ScopedSpan span(tracer_, "nvme.mode_switch");
  struct Pending {
    uint16_t cid = 0;
    uint8_t opcode = 0;
    uint64_t slba = 0;
    uint16_t nblocks = 0;
    Kva buf;
    uint64_t submit_cycle = 0;
  };
  std::vector<Pending> pending;
  pending.reserve(outstanding_.size());
  for (auto& [cid, cmd] : outstanding_) {
    pending.push_back(
        Pending{cid, cmd.opcode, cmd.slba, cmd.nblocks, cmd.buf,
                cmd.submit_cycle});
    (void)ReleaseCmd(cmd, "mode_switch");
  }
  outstanding_.clear();
  device_->OnQueueDeleted(kIoQid);
  Status first = FreeQueue(io_);
  device_->OnQueueDeleted(kAdminQid);
  Status freed_admin = FreeQueue(admin_);
  if (first.ok()) {
    first = freed_admin;
  }
  active_mode_ = next;
  ++mode_switches_;
  EmitNvmeEvent(dma_.telemetry(), telemetry::EventKind::kNvmeQueueReset,
                telemetry::Severity::kWarn, device_id_, pending.size(),
                static_cast<uint64_t>(next), this,
                sites_.mode_switch);
  if (dma_.telemetry().enabled()) {
    dma_.telemetry().counter("nvme.mode_switches").Add();
  }
  Status up = AllocQueue(admin_, kAdminQid, config_.admin_queue_entries,
                         config_.admin_queue_entries);
  if (up.ok()) {
    device_->OnAdminQueueConfigured(QueuePair{kAdminQid, admin_.sq_iova,
                                              admin_.sq_entries, admin_.cq_iova,
                                              admin_.cq_entries});
    up = CreateIoQueue();
  }
  if (!up.ok()) {
    // Bring-up under the new routing failed (fenced/silent device): fail the
    // snapshot loudly and leave the queue down for Resume()/the watchdog.
    for (const Pending& p : pending) {
      finished_[p.cid] = Finished{kScInternalError, 0};
      ++io_errors_;
    }
    in_mode_switch_ = false;
    return first.ok() ? up : first;
  }
  for (const Pending& p : pending) {
    if (p.opcode == kOpFlush) {
      Sqe sqe;
      sqe.opcode = kOpFlush;
      sqe.cid = p.cid;
      Status wrote = WriteSqe(io_, sqe);
      if (wrote.ok()) {
        io_.sq_tail = static_cast<uint16_t>((io_.sq_tail + 1) % io_.sq_entries);
        IoCmd cmd;
        cmd.opcode = kOpFlush;
        cmd.submit_cycle = p.submit_cycle;
        outstanding_[p.cid] = std::move(cmd);
        device_->OnSqDoorbell(kIoQid, io_.sq_tail);
      } else {
        finished_[p.cid] = Finished{kScInternalError, 0};
        ++io_errors_;
      }
      continue;
    }
    Result<uint16_t> re = SubmitIoWithCid(p.opcode, p.slba, p.nblocks, p.buf,
                                          p.cid, p.submit_cycle);
    if (!re.ok()) {
      finished_[p.cid] = Finished{kScInternalError, 0};
      ++io_errors_;
    }
  }
  in_mode_switch_ = false;
  return first;
}

Status NvmeDriver::Shutdown() {
  trace::ScopedSpan span(tracer_, "nvme.shutdown");
  Status first = OkStatus();
  auto note = [&first](Status status) {
    if (first.ok() && !status.ok()) {
      first = status;
    }
  };
  FailAllOutstanding("shutdown");
  if (device_ != nullptr) {
    device_->OnQueueDeleted(kIoQid);
  }
  note(FreeQueue(io_));
  if (device_ != nullptr) {
    device_->OnQueueDeleted(kAdminQid);
  }
  note(FreeQueue(admin_));
  finished_.clear();
  return first;
}

}  // namespace spv::nvme
