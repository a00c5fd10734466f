// Observer hooks for DMA-map and CPU-access events.
//
// D-KASAN registers one of these to see every dma_map/dma_unmap with its call
// site plus every CPU access to kernel memory — the event stream from which
// its four report classes (§4.2) are derived.
//
// Dispatch rides the telemetry bus: DmaApi publishes kDmaMap / kDmaUnmap /
// kCpuAccess events to its telemetry::Hub, and each registered DmaObserver is
// wrapped in a DmaObserverSink that decodes those events back into the typed
// interface. One fan-out path serves the sanitizer and the trace ring alike.

#ifndef SPV_DMA_OBSERVER_H_
#define SPV_DMA_OBSERVER_H_

#include <cassert>
#include <cstdint>
#include <string_view>

#include "base/types.h"
#include "iommu/access_rights.h"
#include "telemetry/telemetry.h"

namespace spv::dma {

class DmaObserver {
 public:
  virtual ~DmaObserver() = default;

  // `site` is the mapping's Site name, valid for the whole process, so an
  // observer may keep the view.
  virtual void OnMap(DeviceId device, Kva kva, uint64_t len, Iova iova,
                     iommu::AccessRights rights, std::string_view site) = 0;
  virtual void OnUnmap(DeviceId device, Kva kva, uint64_t len) = 0;
  // CPU touching kernel memory (KASAN-style instrumented access).
  virtual void OnCpuAccess(Kva kva, uint64_t len, bool is_write) = 0;
};

// Bridges bus events published by one DmaApi (`origin`) back into the typed
// DmaObserver interface. Events from other components sharing the Hub are
// ignored, preserving the attach-to-one-source semantics.
class DmaObserverSink : public telemetry::EventSink {
 public:
  DmaObserverSink(const void* origin, DmaObserver* observer)
      : origin_(origin), observer_(observer) {}

  DmaObserver* observer() const { return observer_; }

  void OnEvent(const telemetry::Event& event) override {
    if (event.origin != origin_) {
      return;
    }
    switch (event.kind) {
      case telemetry::EventKind::kDmaMap:
        assert(!event.site.owned() && "DMA-map events carry a Site");
        observer_->OnMap(DeviceId{event.device}, Kva{event.addr}, event.len,
                         Iova{event.addr2}, static_cast<iommu::AccessRights>(event.aux),
                         event.site);
        break;
      case telemetry::EventKind::kDmaUnmap:
        observer_->OnUnmap(DeviceId{event.device}, Kva{event.addr}, event.len);
        break;
      case telemetry::EventKind::kCpuAccess:
        observer_->OnCpuAccess(Kva{event.addr}, event.len, event.flag);
        break;
      default:
        break;
    }
  }

 private:
  const void* origin_;
  DmaObserver* observer_;
};

}  // namespace spv::dma

#endif  // SPV_DMA_OBSERVER_H_
