// Generic Receive Offload (§5.5, Figure 9).
//
// GRO converts multiple *linear* sk_buffs of one TCP stream into a single
// sk_buff with fragments: the head keeps its linear part, each subsequent
// segment's payload is attached as a frag referencing the segment's data page
// (struct page pointer + offset + length) and the segment's buffer ownership
// moves to the head. This is precisely the machinery the Forward-Thinking
// attack uses to get struct page pointers written into a device-readable
// shared_info.

#ifndef SPV_NET_GRO_H_
#define SPV_NET_GRO_H_

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "base/node_recycler.h"
#include "base/status.h"
#include "base/types.h"
#include "dma/kernel_memory.h"
#include "net/skbuff.h"

namespace spv::net {

struct FlowKey {
  uint32_t src_ip;
  uint32_t dst_ip;
  uint16_t src_port;
  uint16_t dst_port;

  auto operator<=>(const FlowKey&) const = default;
};

class GroEngine {
 public:
  GroEngine(dma::KernelMemory& kmem, SkbAllocator& skb_alloc)
      : kmem_(kmem), skb_alloc_(skb_alloc) {}

  // napi_gro_receive: consumes `skb`; returns an aggregated skb when a batch
  // completes (frags full or non-mergeable packet), nullptr while coalescing.
  // Non-TCP packets pass through untouched.
  Result<SkBuffPtr> Receive(SkBuffPtr skb);

  // End of NAPI poll: releases all held flows.
  std::vector<SkBuffPtr> FlushAll();
  // FlushAll appending to `out`, so a caller can reuse one buffer per poll.
  void FlushInto(std::vector<SkBuffPtr>& out);

  uint64_t merged_segments() const { return merged_segments_; }
  size_t held_flows() const { return held_.size(); }

 private:
  Status MergeIntoHead(SkBuff& head, SkBuffPtr segment);

  dma::KernelMemory& kmem_;
  SkbAllocator& skb_alloc_;
  std::map<FlowKey, SkBuffPtr> held_;
  NodeRecycler<std::map<FlowKey, SkBuffPtr>> held_nodes_;  // per-burst reuse
  uint64_t merged_segments_ = 0;
};

}  // namespace spv::net

#endif  // SPV_NET_GRO_H_
