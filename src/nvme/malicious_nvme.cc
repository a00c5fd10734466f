#include "nvme/malicious_nvme.h"

#include <algorithm>
#include <span>
#include <unordered_set>

namespace spv::nvme {

void MaliciousNvme::OnSqDoorbell(uint16_t qid, uint16_t tail) {
  if (warm_iotlb_) {
    auto it = queues_.find(qid);
    if (it != queues_.end()) {
      // One read per ring page keeps the translations cached; a fetch-sized
      // read of the SQ is exactly what honest hardware does anyway.
      (void)port_.ReadU64(it->second.cfg.sq_base);
      const uint8_t zero = 0;
      (void)port_.Write(it->second.cfg.cq_base, std::span<const uint8_t>(&zero, 1));
    }
  }
  NvmeController::OnSqDoorbell(qid, tail);
}

void MaliciousNvme::Execute(uint16_t qid, const Sqe& sqe, Cqe& cqe) {
  if (qid != 0 && complete_before_transfer_ &&
      (sqe.opcode == kOpRead || sqe.opcode == kOpWrite)) {
    const uint64_t blocks = static_cast<uint64_t>(sqe.nlb) + 1;
    if (sqe.slba + blocks > capacity_blocks()) {
      cqe.status = kScLbaOutOfRange;
      return;
    }
    const uint64_t total = blocks << kLbaShift;
    uint8_t walk_status = kScSuccess;
    Result<std::vector<PrpChunk>> chunks = WalkPrps(sqe, total, walk_status);
    if (!chunks.ok()) {
      cqe.status = walk_status;
      return;
    }
    if (warm_iotlb_) {
      WarmChunks(sqe.opcode, *chunks);
    }
    // Poisoned Completion: a success CQE claiming the full transfer, with the
    // data phase parked for later. The driver will unmap and free the buffer
    // believing the device is done with it.
    pending_.push_back(PendingTransfer{sqe.opcode, sqe.slba << kLbaShift, total,
                                       std::move(*chunks)});
    cqe.status = kScSuccess;
    cqe.dw0 = static_cast<uint32_t>(total);
    return;
  }
  NvmeController::Execute(qid, sqe, cqe);
}

void MaliciousNvme::WarmChunks(uint8_t opcode,
                               const std::vector<PrpChunk>& chunks) {
  // Warm with the access direction the mapping permits: read commands map
  // device-writable buffers (warm with a one-byte zero write, like a partial
  // fill), write commands map device-readable ones.
  for (const PrpChunk& chunk : chunks) {
    if (opcode == kOpRead) {
      const uint8_t zero = 0;
      (void)port_.Write(chunk.iova, std::span<const uint8_t>(&zero, 1));
    } else {
      uint8_t byte = 0;
      (void)port_.Read(chunk.iova, std::span<uint8_t>(&byte, 1));
    }
  }
}

Status MaliciousNvme::ReplayPendingTransfer() {
  if (pending_.empty()) {
    return FailedPrecondition("no withheld transfer to replay");
  }
  PendingTransfer transfer = std::move(pending_.front());
  pending_.pop_front();
  uint64_t moved = 0;
  for (const PrpChunk& chunk : transfer.chunks) {
    const uint64_t n = std::min(chunk.len, transfer.total - moved);
    if (n == 0) {
      break;
    }
    const std::span<uint8_t> media = media_.Span(PhysAddr{transfer.media_off + moved}, n);
    const Status io = transfer.opcode == kOpRead ? port_.Write(chunk.iova, media)
                                                 : port_.Read(chunk.iova, media);
    if (!io.ok()) {
      return io;
    }
    moved += n;
  }
  return OkStatus();
}

Status MaliciousNvme::ForgePoisonedCompletion(uint16_t qid, uint16_t cid,
                                              uint8_t status, uint32_t dw0) {
  auto it = queues_.find(qid);
  if (it == queues_.end()) {
    return NotFound("no such queue");
  }
  Cqe cqe;
  cqe.dw0 = dw0;
  cqe.sq_head = it->second.sq_head;
  cqe.sq_id = qid;
  cqe.cid = cid;
  cqe.status = status;
  return PostCqe(it->second, cqe);
}

Result<std::vector<uint64_t>> MaliciousNvme::HarvestPrpQwords() {
  std::vector<uint64_t> harvest;
  std::unordered_set<uint64_t> pages_seen;
  for (const Iova segment : prp_segments_seen_) {
    if (!pages_seen.insert(segment.PageBase().value).second) {
      continue;
    }
    Result<std::vector<uint64_t>> qwords = port_.ReadPageQwords(segment);
    if (!qwords.ok()) {
      continue;  // segment page already revoked; harvest what is still live
    }
    harvest.insert(harvest.end(), qwords->begin(), qwords->end());
  }
  if (harvest.empty()) {
    return Unavailable("no PRP segment pages readable");
  }
  return harvest;
}

}  // namespace spv::nvme
