// Test helper: a benign NIC device model that performs DMA strictly through
// the IOMMU, records the descriptors the driver posts, and can inject RX
// packets like real hardware would.

#ifndef SPV_TESTS_TEST_DEVICE_H_
#define SPV_TESTS_TEST_DEVICE_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "base/status.h"
#include "base/types.h"
#include "dma/kernel_memory.h"
#include "iommu/iommu.h"
#include "net/layouts.h"
#include "net/nic_device_model.h"

namespace spv::testing {

class TestNicDevice : public net::NicDeviceModel {
 public:
  TestNicDevice(DeviceId id, iommu::Iommu& iommu) : id_(id), iommu_(iommu) {}

  void OnRxPosted(const net::RxPostedDescriptor& descriptor) override {
    rx_posted_.push_back(descriptor);
  }
  void OnTxPosted(const net::TxPostedDescriptor& descriptor) override {
    tx_posted_.push_back(descriptor);
  }
  void OnRxCompleting(uint32_t /*queue*/, uint32_t index) override {
    rx_completing_.push_back(index);
  }

  // Picks the oldest posted RX descriptor, DMA-writes header+payload into it,
  // and returns its index (the "interrupt" the driver would then service).
  Result<uint32_t> InjectRx(dma::KernelMemory& kmem, const net::PacketHeader& header,
                            std::span<const uint8_t> payload) {
    if (rx_posted_.empty()) {
      return Unavailable("no posted RX descriptors");
    }
    net::RxPostedDescriptor descriptor = rx_posted_.front();
    rx_posted_.pop_front();

    std::vector<uint8_t> wire(net::PacketHeader::kSize + payload.size());
    // Header serialization without KernelMemory (device side): little-endian.
    auto put32 = [&](uint64_t at, uint32_t v) { std::memcpy(wire.data() + at, &v, 4); };
    auto put16 = [&](uint64_t at, uint16_t v) { std::memcpy(wire.data() + at, &v, 2); };
    put32(net::PacketHeader::kSrcIp, header.src_ip);
    put32(net::PacketHeader::kDstIp, header.dst_ip);
    put16(net::PacketHeader::kSrcPort, header.src_port);
    put16(net::PacketHeader::kDstPort, header.dst_port);
    wire[net::PacketHeader::kProto] = header.proto;
    wire[net::PacketHeader::kFlags] = header.flags;
    put16(net::PacketHeader::kLen, static_cast<uint16_t>(payload.size()));
    put32(net::PacketHeader::kSeq, header.seq);
    std::copy(payload.begin(), payload.end(), wire.begin() + net::PacketHeader::kSize);
    (void)kmem;
    SPV_RETURN_IF_ERROR(iommu_.DeviceWrite(id_, descriptor.iova, wire));
    return descriptor.index;
  }

  std::deque<net::RxPostedDescriptor>& rx_posted() { return rx_posted_; }
  std::vector<net::TxPostedDescriptor>& tx_posted() { return tx_posted_; }
  std::vector<uint32_t>& rx_completing() { return rx_completing_; }

  Status DeviceWrite(Iova iova, std::span<const uint8_t> data) {
    return iommu_.DeviceWrite(id_, iova, data);
  }
  Status DeviceRead(Iova iova, std::span<uint8_t> out) {
    return iommu_.DeviceRead(id_, iova, out);
  }

 private:
  DeviceId id_;
  iommu::Iommu& iommu_;
  std::deque<net::RxPostedDescriptor> rx_posted_;
  std::vector<net::TxPostedDescriptor> tx_posted_;
  std::vector<uint32_t> rx_completing_;
};

}  // namespace spv::testing

#endif  // SPV_TESTS_TEST_DEVICE_H_
