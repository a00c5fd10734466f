// Interface between a NIC driver and the device it programs.
//
// The driver tells the device which IOVAs to use (descriptor posting); the
// device performs DMA through the IOMMU only. This is the paper's threat
// model made structural: everything the device learns arrives through these
// notifications or through memory it can legitimately DMA-read.

#ifndef SPV_NET_NIC_DEVICE_MODEL_H_
#define SPV_NET_NIC_DEVICE_MODEL_H_

#include <cstdint>

#include "base/inline_vector.h"
#include "base/types.h"
#include "net/layouts.h"

namespace spv::net {

struct RxPostedDescriptor {
  uint32_t queue = 0;  // which RX queue the slot belongs to
  uint32_t index = 0;
  Iova iova;          // where the device should DMA-write the packet
  uint32_t buf_len = 0;
};

struct TxPostedDescriptor {
  uint32_t queue = 0;  // which TX queue the slot belongs to
  uint32_t index = 0;
  Iova linear_iova;
  uint32_t linear_len = 0;
  // One entry per mapped frag, inline (an skb has at most kMaxSkbFrags).
  InlineVector<Iova, kMaxSkbFrags> frag_iovas;
  InlineVector<uint32_t, kMaxSkbFrags> frag_lens;
};

class NicDeviceModel {
 public:
  virtual ~NicDeviceModel() = default;

  virtual void OnRxPosted(const RxPostedDescriptor& descriptor) = 0;
  virtual void OnTxPosted(const TxPostedDescriptor& descriptor) = 0;

  // Fired inside the driver's RX completion path *after* sk_buff construction
  // but *before* dma_unmap, on drivers with the i40e-like ordering (§5.2.2
  // path (i)), for slot `index` of RX queue `queue`. Models the race the
  // device wins on real hardware.
  virtual void OnRxCompleting(uint32_t queue, uint32_t index) {
    (void)queue;
    (void)index;
  }
};

}  // namespace spv::net

#endif  // SPV_NET_NIC_DEVICE_MODEL_H_
