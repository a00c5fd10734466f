// SupervisedDriver: what the RecoveryManager and the trust policy need from a
// device driver, plus the plumbing every queue-protocol driver shares.
//
// Quarantine tears a device's host-side state down (Shutdown) and supervised
// re-attach brings it back (Resume). The first device class here was the NIC;
// keeping the contract to these two verbs is what lets a second class (the
// NVMe block driver) ride the same lifecycle without the manager knowing
// either driver's shape.
//
// The base also carries the driver core both classes would otherwise copy:
// the device id, the DMA API, the sim clock and the span tracer; the trust
// policy's limits (one concrete ApplyDmaPolicy) and the clamps they impose on
// the poll deadline and ring occupancy; the poll-deadline check of a bounded
// polling loop; and the telemetry emit of a driver milestone. Each driver
// passes in what differs as values — its deadline event kind, metric name
// and site prefix — so nothing here branches on which driver is calling. The
// header stays header-only: drivers use it without linking spv_recovery.

#ifndef SPV_RECOVERY_SUPERVISED_H_
#define SPV_RECOVERY_SUPERVISED_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "base/clock.h"
#include "base/site.h"
#include "base/stat_counter.h"
#include "base/status.h"
#include "base/types.h"
#include "dma/dma_api.h"
#include "telemetry/telemetry.h"
#include "trace/tracer.h"

namespace spv::recovery {

// DMA-side service limits a trust policy (spv::policy) may impose on a
// driver without knowing its shape. Zero means "driver default" for every
// field, so ApplyDmaPolicy(DmaPolicyLimits{}) restores full service.
struct DmaPolicyLimits {
  // Cap on the driver's NAPI/CQ polling budget, in sim cycles.
  uint64_t poll_deadline_cycles = 0;
  // Cap on ring occupancy: RX descriptors posted per queue (NIC) or
  // outstanding commands per IO queue (NVMe).
  uint32_t ring_limit = 0;
};

class SupervisedDriver {
 public:
  virtual ~SupervisedDriver() = default;

  SupervisedDriver(const SupervisedDriver&) = delete;
  SupervisedDriver& operator=(const SupervisedDriver&) = delete;

  // Releases every resource the driver holds for its device — mappings,
  // buffers, queue memory. Called with the device already fenced; must not
  // require device cooperation and must be leak-free (best-effort teardown:
  // report the first error, keep going).
  virtual Status Shutdown() = 0;

  // Brings the device back into service after the fence lifts (rings
  // refilled, queues re-created). Failures are not fatal to the manager: a
  // still-broken device re-breaches during probation.
  virtual Status Resume() = 0;

  // Trust-probation hook (spv::policy): clamps the polling budget and the
  // ring occupancy while the device sits on probation. A zeroed struct
  // restores the config defaults; limits only ever tighten, never exceed
  // them.
  void ApplyDmaPolicy(const DmaPolicyLimits& limits) { policy_limits_ = limits; }
  const DmaPolicyLimits& policy_limits() const { return policy_limits_; }

  DeviceId device_id() const { return device_id_; }

  // Optional causal span tracer (the driver's ring and IO spans): nullptr
  // detaches.
  void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }

 protected:
  // What a driver's poll-deadline hit reports: the event kind it emits and
  // the hub counter it bumps.
  struct PollDeadlineReport {
    telemetry::EventKind kind;
    std::string_view metric;
  };

  SupervisedDriver(DeviceId device_id, dma::DmaApi& dma, SimClock& clock,
                   uint64_t poll_deadline_cycles, PollDeadlineReport deadline_report)
      : device_id_(device_id),
        dma_(dma),
        clock_(clock),
        poll_deadline_cycles_(poll_deadline_cycles),
        deadline_report_(deadline_report) {}

  // The configured poll budget after the trust-policy clamp (identity when
  // no limits are in force).
  uint64_t EffectivePollDeadline() const {
    return ClampTo(policy_limits_.poll_deadline_cycles, poll_deadline_cycles_);
  }

  // `capacity` (ring slots or queue depth) after the trust-policy clamp.
  uint32_t ClampRingLimit(uint32_t capacity) const {
    return static_cast<uint32_t>(ClampTo(policy_limits_.ring_limit, capacity));
  }

  // True once the polling loop that started at `start_cycle` has spent the
  // poll budget. On that transition it counts the hit in `hits` and emits the
  // driver's deadline event at site "<site_prefix>_<loop>".
  bool PollDeadlineHit(uint64_t start_cycle, StatCounter& hits, std::string_view site_prefix,
                       std::string_view loop) {
    const uint64_t spent = clock_.now() - start_cycle;
    if (spent < EffectivePollDeadline()) {
      return false;
    }
    ++hits;
    telemetry::Hub& hub = dma_.telemetry();
    if (hub.active()) {
      // Rare (a bounded loop gave up), so the name is interned here.
      std::string site(site_prefix);
      site += '_';
      site += loop;
      Emit(deadline_report_.kind, telemetry::Severity::kWarn, spent, 0, Site::Intern(site));
    }
    if (hub.enabled()) {
      hub.counter(deadline_report_.metric).Add();
    }
    return true;
  }

  // Publishes one driver milestone: every emit point shares the shape
  // (device + length + address + site, this driver as origin); only the kind
  // and severity vary. Sites are names interned at construction.
  void Emit(telemetry::EventKind kind, telemetry::Severity severity, uint64_t len,
            uint64_t addr, Site site) {
    telemetry::Hub& hub = dma_.telemetry();
    if (!hub.active()) {
      return;
    }
    telemetry::Event event;
    event.kind = kind;
    event.severity = severity;
    event.device = device_id_.value;
    event.len = len;
    event.addr = addr;
    event.origin = this;
    event.site = site;
    hub.Publish(std::move(event));
  }

  const DeviceId device_id_;
  dma::DmaApi& dma_;
  SimClock& clock_;
  trace::Tracer* tracer_ = nullptr;

 private:
  // `limit` when it is set and tighter than `configured`, else `configured`.
  static uint64_t ClampTo(uint64_t limit, uint64_t configured) {
    return limit != 0 && limit < configured ? limit : configured;
  }

  const uint64_t poll_deadline_cycles_;
  const PollDeadlineReport deadline_report_;
  DmaPolicyLimits policy_limits_;  // zeroed = full service
};

}  // namespace spv::recovery

#endif  // SPV_RECOVERY_SUPERVISED_H_
