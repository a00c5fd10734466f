#include "net/gro.h"

namespace spv::net {

Result<SkBuffPtr> GroEngine::Receive(SkBuffPtr skb) {
  if (!skb) {
    return InvalidArgument("null skb");
  }
  if (!skb->header_parsed || skb->header.proto != kProtoTcp) {
    return skb;  // pass through
  }
  const FlowKey key{skb->header.src_ip, skb->header.dst_ip, skb->header.src_port,
                    skb->header.dst_port};
  auto it = held_.find(key);
  if (it == held_.end()) {
    // First segment of the flow becomes the head.
    held_nodes_.Put(held_, key, std::move(skb));
    return SkBuffPtr{};
  }
  SkBuff& head = *it->second;
  SharedInfoView shinfo{kmem_, head.shared_info()};
  Result<uint8_t> nr_frags = shinfo.nr_frags();
  if (!nr_frags.ok()) {
    return nr_frags.status();
  }
  if (*nr_frags >= kMaxSkbFrags) {
    // Batch full: release the aggregate; the new segment starts a fresh head.
    SkBuffPtr done = std::move(it->second);
    it->second = std::move(skb);
    return done;
  }
  SPV_RETURN_IF_ERROR(MergeIntoHead(head, std::move(skb)));
  return SkBuffPtr{};
}

Status GroEngine::MergeIntoHead(SkBuff& head, SkBuffPtr segment) {
  // The segment's payload (past the header) becomes a frag of the head,
  // described by the struct page of the segment's data page.
  const Kva payload = segment->data + PacketHeader::kSize;
  const uint32_t payload_len = segment->linear_len() - PacketHeader::kSize;

  Result<PhysAddr> phys = kmem_.layout().DirectMapKvaToPhys(payload);
  if (!phys.ok()) {
    return phys.status();
  }
  FragRef frag;
  frag.struct_page = kmem_.layout().StructPageKva(phys->pfn());
  frag.page_offset = static_cast<uint32_t>(phys->page_offset());
  frag.size = payload_len;

  // Ownership of the segment's data buffer moves to the head skb; the
  // segment's sk_buff metadata is discarded (metadata-only free).
  SPV_RETURN_IF_ERROR(skb_alloc_.AddFrag(head, frag, segment->linear));
  for (const OwnedBuffer& extra : segment->frag_buffers) {
    head.frag_buffers.push_back(extra);
  }
  ++merged_segments_;
  return OkStatus();
}

std::vector<SkBuffPtr> GroEngine::FlushAll() {
  std::vector<SkBuffPtr> out;
  FlushInto(out);
  return out;
}

void GroEngine::FlushInto(std::vector<SkBuffPtr>& out) {
  out.reserve(out.size() + held_.size());
  while (!held_.empty()) {
    out.push_back(held_nodes_.Take(held_, held_.begin()));
  }
}

}  // namespace spv::net
