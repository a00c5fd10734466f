// Observer hooks for allocator events.
//
// This is the simulator's stand-in for KASAN's compile-time instrumentation:
// D-KASAN registers an observer here and at the DMA API to see every
// (allocate, free) event with its call site, exactly the information the real
// tool gets from __kasan_kmalloc hooks.
//
// Dispatch rides the telemetry bus: SlabAllocator publishes kSlabAlloc /
// kSlabFree (and PageFragPool kFragAlloc / kFragFree) events to its
// telemetry::Hub, and each registered SlabObserver is wrapped in a
// SlabObserverSink that decodes those events back into the typed interface —
// the same fan-out path the trace ring records.

#ifndef SPV_SLAB_OBSERVER_H_
#define SPV_SLAB_OBSERVER_H_

#include <cassert>
#include <cstdint>
#include <string_view>

#include "base/types.h"
#include "telemetry/telemetry.h"

namespace spv::slab {

class SlabObserver {
 public:
  virtual ~SlabObserver() = default;

  // `site` is the allocating location (function+offset), as KASAN would
  // recover from the return address. It is a Site's name, valid for the
  // whole process, so an observer may keep the view.
  virtual void OnAlloc(Kva kva, uint64_t size, std::string_view site) = 0;
  virtual void OnFree(Kva kva, uint64_t size) = 0;
};

// Bridges bus events published by one allocator (`origin` — a SlabAllocator
// or one specific PageFragPool) back into the typed SlabObserver interface.
// Origin filtering keeps per-pool attachment semantics on a shared Hub.
class SlabObserverSink : public telemetry::EventSink {
 public:
  SlabObserverSink(const void* origin, SlabObserver* observer)
      : origin_(origin), observer_(observer) {}

  SlabObserver* observer() const { return observer_; }

  void OnEvent(const telemetry::Event& event) override {
    if (event.origin != origin_) {
      return;
    }
    switch (event.kind) {
      case telemetry::EventKind::kSlabAlloc:
      case telemetry::EventKind::kFragAlloc:
        assert(!event.site.owned() && "allocation events carry a Site");
        observer_->OnAlloc(Kva{event.addr}, event.len, event.site);
        break;
      case telemetry::EventKind::kSlabFree:
      case telemetry::EventKind::kFragFree:
        observer_->OnFree(Kva{event.addr}, event.len);
        break;
      default:
        break;
    }
  }

 private:
  const void* origin_;
  SlabObserver* observer_;
};

}  // namespace spv::slab

#endif  // SPV_SLAB_OBSERVER_H_
