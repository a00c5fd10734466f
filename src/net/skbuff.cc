#include "net/skbuff.h"

namespace spv::net {

SkbAllocator::SkbAllocator(dma::KernelMemory& kmem, slab::SlabAllocator& slab)
    : kmem_(kmem), slab_(slab) {}

void SkbAllocator::RegisterFragPool(CpuId cpu, slab::PageFragPool* pool) {
  frag_pools_[cpu.value] = pool;
}

slab::PageFragPool* SkbAllocator::frag_pool(CpuId cpu) {
  auto it = frag_pools_.find(cpu.value);
  return it == frag_pools_.end() ? nullptr : it->second;
}

Result<SkBuffPtr> SkbAllocator::NetdevAllocSkb(CpuId cpu, uint32_t len, Site site) {
  slab::PageFragPool* pool = frag_pool(cpu);
  if (pool == nullptr) {
    return FailedPrecondition("no page_frag pool registered for cpu");
  }
  const uint64_t truesize = TruesizeFor(len);
  Result<Kva> head = pool->Alloc(truesize, kSmpCacheBytes, site);
  if (!head.ok()) {
    return head.status();
  }
  auto skb = std::make_unique<SkBuff>();
  skb->id = next_id_++;
  skb->head = *head;
  skb->data = *head + kNetSkbPad;
  skb->end = *head + SkbDataAlign(kNetSkbPad + len);
  skb->truesize = truesize;
  skb->linear = OwnedBuffer{*head, BufSource::kPageFrag, cpu};
  SharedInfoView shinfo{kmem_, skb->end};
  SPV_RETURN_IF_ERROR(shinfo.Initialize());
  return skb;
}

void SkbAllocator::set_damn_pool(slab::PageFragPool* pool) {
  damn_pool_ = pool;
  if (pool != nullptr) {
    RegisterFragPool(kDamnPoolCpu, pool);
  }
}

Result<SkBuffPtr> SkbAllocator::AllocSkb(uint32_t len, Site site) {
  const uint64_t truesize = TruesizeFor(len);
  Result<Kva> head = InvalidArgument("unset");
  OwnedBuffer ownership;
  if (damn_pool_ != nullptr) {
    // DAMN path: network buffers come from the dedicated I/O region, never
    // from the shared kmalloc caches.
    head = damn_pool_->Alloc(truesize, kSmpCacheBytes, site);
    ownership = OwnedBuffer{Kva{}, BufSource::kPageFrag, kDamnPoolCpu};
  } else {
    head = slab_.Kmalloc(truesize, site);
    ownership = OwnedBuffer{Kva{}, BufSource::kKmalloc, CpuId{0}};
  }
  if (!head.ok()) {
    return head.status();
  }
  ownership.kva = *head;
  auto skb = std::make_unique<SkBuff>();
  skb->id = next_id_++;
  skb->head = *head;
  skb->data = *head + kNetSkbPad;
  skb->end = *head + SkbDataAlign(kNetSkbPad + len);
  skb->truesize = truesize;
  skb->linear = ownership;
  SharedInfoView shinfo{kmem_, skb->end};
  SPV_RETURN_IF_ERROR(shinfo.Initialize());
  return skb;
}

Result<SkBuffPtr> SkbAllocator::BuildSkb(Kva head, uint32_t frag_size, OwnedBuffer ownership) {
  if (frag_size < SkbDataAlign(SharedInfoLayout::kSize) + PacketHeader::kSize) {
    return InvalidArgument("build_skb buffer too small for shared_info");
  }
  auto skb = std::make_unique<SkBuff>();
  skb->id = next_id_++;
  skb->head = head;
  skb->data = head;
  skb->end = head + (frag_size - SkbDataAlign(SharedInfoLayout::kSize));
  skb->truesize = frag_size;
  skb->linear = ownership;
  SharedInfoView shinfo{kmem_, skb->end};
  SPV_RETURN_IF_ERROR(shinfo.Initialize());
  return skb;
}

Status SkbAllocator::AddFrag(SkBuff& skb, const FragRef& frag,
                             std::optional<OwnedBuffer> buffer) {
  SharedInfoView shinfo{kmem_, skb.shared_info()};
  Result<uint8_t> nr = shinfo.nr_frags();
  if (!nr.ok()) {
    return nr.status();
  }
  if (*nr >= kMaxSkbFrags) {
    return ResourceExhausted("skb frags full");
  }
  SPV_RETURN_IF_ERROR(shinfo.set_frag(*nr, frag));
  SPV_RETURN_IF_ERROR(shinfo.set_nr_frags(*nr + 1));
  skb.len += frag.size;
  skb.data_len += frag.size;
  if (buffer.has_value()) {
    skb.frag_buffers.push_back(*buffer);
  }
  return OkStatus();
}

Result<SkBuffPtr> SkbAllocator::CloneSkb(const SkBuff& skb) {
  SharedInfoView shinfo{kmem_, skb.shared_info()};
  Result<uint32_t> dataref = shinfo.dataref();
  if (!dataref.ok()) {
    return dataref.status();
  }
  SPV_RETURN_IF_ERROR(shinfo.set_dataref(*dataref + 1));
  auto clone = std::make_unique<SkBuff>();
  *clone = SkBuff{};
  clone->id = next_id_++;
  clone->head = skb.head;
  clone->data = skb.data;
  clone->end = skb.end;
  clone->len = skb.len;
  clone->data_len = skb.data_len;
  clone->truesize = skb.truesize;
  clone->header = skb.header;
  clone->header_parsed = skb.header_parsed;
  // The clone shares the data but owns nothing: ownership stays with
  // whichever skb drops the last dataref (handled in FreeSkb).
  clone->linear = skb.linear;
  clone->frag_buffers = skb.frag_buffers;
  return clone;
}

Status SkbAllocator::FreeSkb(SkBuffPtr skb, CallbackInvoker* invoker) {
  if (!skb) {
    return OkStatus();
  }
  SharedInfoView shinfo{kmem_, skb->shared_info()};
  // Shared data (skb_clone): only the last reference releases and fires the
  // destructor. dataref lives in device-visible memory, like everything else
  // in shared_info.
  Result<uint32_t> dataref = shinfo.dataref();
  if (dataref.ok() && *dataref > 1) {
    SPV_RETURN_IF_ERROR(shinfo.set_dataref(*dataref - 1));
    ++skbs_freed_;
    return OkStatus();
  }
  // Step (d) of Figure 4: on release, the kernel consults destructor_arg in
  // the (device-exposed!) shared_info and calls through it.
  Result<uint64_t> destructor_arg = shinfo.destructor_arg();
  if (destructor_arg.ok() && *destructor_arg != 0 && invoker != nullptr) {
    UbufInfoView ubuf{kmem_, Kva{*destructor_arg}};
    Result<uint64_t> callback = ubuf.callback();
    if (callback.ok()) {
      // The callback result does not abort the free path (the kernel has no
      // idea the pointer was poisoned); faults are recorded by the invoker.
      (void)invoker->InvokeCallback(Kva{*callback}, Kva{*destructor_arg});
    }
  }
  SPV_RETURN_IF_ERROR(ReleaseBuffer(skb->linear));
  for (const OwnedBuffer& buffer : skb->frag_buffers) {
    SPV_RETURN_IF_ERROR(ReleaseBuffer(buffer));
  }
  ++skbs_freed_;
  return OkStatus();
}

Status SkbAllocator::ReleaseBuffer(const OwnedBuffer& buffer) {
  switch (buffer.source) {
    case BufSource::kPageFrag: {
      slab::PageFragPool* pool = frag_pool(buffer.cpu);
      if (pool == nullptr) {
        return Internal("page_frag buffer with unknown pool");
      }
      return pool->Free(buffer.kva);
    }
    case BufSource::kKmalloc:
      return slab_.Kfree(buffer.kva);
    case BufSource::kExternal:
      return OkStatus();  // caller-managed
  }
  return Internal("unknown buffer source");
}

}  // namespace spv::net
