// MaliciousNic: a NIC whose firmware is attacker-controlled.
//
// It behaves like hardware — it receives descriptor postings and moves bytes
// via DMA — but it also records everything it legitimately learns (IOVAs,
// buffer sizes, completion timing control) for the attack playbooks in
// src/attack/. It cannot see anything the IOMMU does not let it see.

#ifndef SPV_DEVICE_MALICIOUS_NIC_H_
#define SPV_DEVICE_MALICIOUS_NIC_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "base/status.h"
#include "base/types.h"
#include "device/device_port.h"
#include "net/layouts.h"
#include "net/nic_device_model.h"

namespace spv::device {

class MaliciousNic : public net::NicDeviceModel {
 public:
  explicit MaliciousNic(DevicePort port) : port_(port) {}

  // ---- NicDeviceModel ---------------------------------------------------------

  void OnRxPosted(const net::RxPostedDescriptor& descriptor) override {
    rx_posted_.push_back(descriptor);
    if (warm_iotlb_on_post_) {
      // Touch the buffer's last byte so the IOTLB caches the translation for
      // every page of the mapping — the entry that stays usable after a
      // deferred unmap (§5.2.1). A zero write into a fresh buffer is
      // indistinguishable from normal device behaviour.
      const uint8_t zero = 0;
      (void)port_.Write(descriptor.iova + (descriptor.buf_len - 1),
                        std::span<const uint8_t>(&zero, 1));
    }
  }

  // Keep translations warm for later stale-IOTLB exploitation.
  void set_warm_iotlb_on_post(bool warm) { warm_iotlb_on_post_ = warm; }
  void OnTxPosted(const net::TxPostedDescriptor& descriptor) override {
    tx_posted_.push_back(descriptor);
    // Completion is *not* signalled automatically: the attacker decides when
    // (delaying TX completion keeps the malicious buffer alive, §5.4).
  }
  void OnRxCompleting(uint32_t /*queue*/, uint32_t index) override {
    if (rx_completing_hook_) {
      rx_completing_hook_(index);
    }
  }

  // ---- Device-side primitives ----------------------------------------------------

  DevicePort& port() { return port_; }

  // Serializes a packet header + payload and DMA-writes it into the oldest
  // posted RX descriptor. Returns the descriptor index (the "interrupt").
  Result<uint32_t> InjectRx(const net::PacketHeader& header, std::span<const uint8_t> payload);

  // The same, but into the oldest descriptor posted by a specific RX queue —
  // how a multi-queue device lands an RSS-steered flow on its chosen CPU.
  // Returns the consumed descriptor (queue + index) for the completion call.
  Result<net::RxPostedDescriptor> InjectRxOn(uint32_t queue, const net::PacketHeader& header,
                                             std::span<const uint8_t> payload);

  // The same, but into a *specific* posted descriptor.
  Status WriteWirePacket(Iova iova, const net::PacketHeader& header,
                         std::span<const uint8_t> payload);

  std::deque<net::RxPostedDescriptor>& rx_posted() { return rx_posted_; }
  std::vector<net::TxPostedDescriptor>& tx_posted() { return tx_posted_; }

  // Attack hook run inside the driver's build-then-unmap window (path (i)).
  void set_rx_completing_hook(std::function<void(uint32_t)> hook) {
    rx_completing_hook_ = std::move(hook);
  }

  // Harvests every qword the device can currently READ through its posted TX
  // descriptors (whole pages, thanks to the sub-page vulnerability).
  Result<std::vector<uint64_t>> HarvestReadableQwords();

 private:
  DevicePort port_;
  bool warm_iotlb_on_post_ = false;
  std::deque<net::RxPostedDescriptor> rx_posted_;
  std::vector<net::TxPostedDescriptor> tx_posted_;
  std::function<void(uint32_t)> rx_completing_hook_;
};

}  // namespace spv::device

#endif  // SPV_DEVICE_MALICIOUS_NIC_H_
