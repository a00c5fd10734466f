#include "trace/window_tracker.h"

#include <algorithm>

#include "base/types.h"

namespace spv::trace {

namespace {

constexpr uint64_t PageBase(uint64_t addr) { return addr & ~(kPageSize - 1); }

constexpr uint64_t PagesFor(uint64_t addr, uint64_t len) {
  return ((addr & (kPageSize - 1)) + len + kPageSize - 1) >> kPageShift;
}

}  // namespace

std::string_view WindowKindName(WindowKind kind) {
  switch (kind) {
    case WindowKind::kStaleIotlb:
      return "stale_iotlb";
    case WindowKind::kSubPage:
      return "sub_page";
  }
  return "?";
}

WindowTracker::WindowTracker(telemetry::Hub& hub, Tracer* tracer, Config config)
    : hub_(hub), tracer_(tracer), config_(config) {}

void WindowTracker::OnEvent(const telemetry::Event& event) {
  switch (event.kind) {
    case telemetry::EventKind::kSpanOpen:
    case telemetry::EventKind::kSpanClose:
    case telemetry::EventKind::kWindowOpen:
    case telemetry::EventKind::kWindowClose:
      return;  // our own output (possibly recursive); structure, not signal
    case telemetry::EventKind::kDmaMap:
      OnDmaMap(event);
      return;
    case telemetry::EventKind::kDmaUnmap:
      OnDmaUnmap(event);
      return;
    case telemetry::EventKind::kIotlbInvalidate:
      if (event.site == "unmap_strict") {
        // The event is stamped *after* the synchronous stall; aux carries its
        // cost, so the window opens back at the start of the invalidation.
        pending_strict_.push_back(PendingStrictInvalidation{
            event.device, PageBase(event.addr2),
            event.cycle > event.aux ? event.cycle - event.aux : 0});
      }
      return;
    case telemetry::EventKind::kIommuFlush:
      OnFlush(event);
      return;
    case telemetry::EventKind::kStaleIotlbHit:
      OnStaleHit(event);
      return;
    case telemetry::EventKind::kSpadeFinding:
      OnDetection(event, /*dkasan=*/false);
      return;
    case telemetry::EventKind::kDkasanReport:
      OnDetection(event, /*dkasan=*/true);
      return;
    default:
      return;
  }
}

size_t WindowTracker::NewWindow(WindowKind kind, const telemetry::Event& event,
                                uint64_t iova_page, uint64_t pages, uint64_t exposed) {
  if (windows_.size() >= config_.max_windows) {
    ++dropped_windows_;
    return SIZE_MAX;
  }
  Window window;
  window.kind = kind;
  window.device = event.device;
  window.iova_page = iova_page;
  window.pages = pages;
  window.exposed_bytes = exposed;
  window.open_cycle = event.cycle;
  if (tracer_ != nullptr) {
    window.span = tracer_->OpenDetached(
        kind == WindowKind::kStaleIotlb ? Site("window.stale") : Site("window.subpage"),
        SpanId{hub_.current_span()});
  }
  windows_.push_back(std::move(window));
  return windows_.size() - 1;
}

void WindowTracker::PublishWindowEvent(const Window& window, bool open,
                                       telemetry::Severity severity) {
  if (!hub_.active()) {
    return;
  }
  telemetry::Event event;
  event.kind = open ? telemetry::EventKind::kWindowOpen : telemetry::EventKind::kWindowClose;
  event.severity = severity;
  event.device = window.device;
  event.addr2 = window.iova_page;
  event.len = window.pages << kPageShift;
  event.aux = open ? window.exposed_bytes : window.duration();
  event.flag = window.detected;
  event.span = window.span.value;  // 0 lets the Hub stamp the current span
  event.origin = this;
  event.site = WindowSite(window.kind, open ? std::string_view() : window.close_reason);
  hub_.Publish(std::move(event));
}

Site WindowTracker::WindowSite(WindowKind kind, std::string_view close_reason) {
  const bool stale = kind == WindowKind::kStaleIotlb;
  if (close_reason.empty()) {
    return stale ? Site("window.stale") : Site("window.subpage");
  }
  for (const WindowSiteEntry& entry : window_sites_) {
    if (entry.kind == kind && entry.close_reason == close_reason) {
      return entry.site;
    }
  }
  std::string name = stale ? "window.stale:" : "window.subpage:";
  name += close_reason;
  const Site site = Site::Intern(name);
  window_sites_.push_back(WindowSiteEntry{kind, close_reason, site});
  return site;
}

Site WindowTracker::FlushCloseReason(std::string_view flush_site) {
  const size_t colon = flush_site.find(':');
  if (colon == std::string_view::npos) {
    return "flush";
  }
  for (const FlushReasonEntry& entry : flush_reasons_) {
    if (entry.flush_site == flush_site) {
      return entry.reason;
    }
  }
  std::string reason = "flush:";
  reason += flush_site.substr(colon + 1);
  flush_reasons_.push_back(FlushReasonEntry{std::string(flush_site), Site::Intern(reason)});
  return flush_reasons_.back().reason;
}

void WindowTracker::CloseWindow(size_t index, uint64_t cycle, Site reason) {
  Window& window = windows_[index];
  if (!window.open) {
    return;
  }
  window.open = false;
  window.close_cycle = cycle;
  window.close_reason = reason;
  const uint64_t duration = window.duration();
  const bool stale = window.kind == WindowKind::kStaleIotlb;
  (stale ? stale_open_cycles_ : subpage_open_cycles_).Record(duration);
  if (hub_.enabled()) {
    (stale ? c_stale_closed_ : c_subpage_closed_).Get(hub_).Add();
    (stale ? h_stale_open_cycles_ : h_subpage_open_cycles_).Get(hub_).Record(duration);
  }
  PublishWindowEvent(window, /*open=*/false,
                     window.kind == WindowKind::kStaleIotlb
                         ? telemetry::Severity::kInfo
                         : telemetry::Severity::kTrace);
  if (tracer_ != nullptr && window.span.valid()) {
    tracer_->Close(window.span);
  }
}

void WindowTracker::OnDmaMap(const telemetry::Event& event) {
  // Sub-page exposure: the mapping covers whole pages; a writable mapping
  // whose buffer does not fill them exposes the remainder to the device.
  const bool writable = (event.aux & 2) != 0;  // AccessRights::kWrite bit
  const uint64_t pages = PagesFor(event.addr2, event.len);
  const uint64_t exposed = (pages << kPageShift) - event.len;
  if (!writable || exposed == 0) {
    return;
  }
  const uint64_t page = PageBase(event.addr2);
  const size_t index = NewWindow(WindowKind::kSubPage, event, page, pages, exposed);
  if (index == SIZE_MAX) {
    return;
  }
  open_subpage_nodes_.Put(open_subpage_, {event.device, page}, index);
  if (hub_.enabled()) {
    c_subpage_opened_.Get(hub_).Add();
  }
  PublishWindowEvent(windows_[index], /*open=*/true, telemetry::Severity::kTrace);
}

void WindowTracker::OnDmaUnmap(const telemetry::Event& event) {
  const uint64_t page = PageBase(event.addr2);
  const uint64_t pages = PagesFor(event.addr2, event.len);

  // The mapping is gone either way: close its sub-page window.
  if (auto it = open_subpage_.find({event.device, page}); it != open_subpage_.end()) {
    CloseWindow(it->second, event.cycle, "unmap");
    open_subpage_nodes_.Take(open_subpage_, it);
  }

  if (!config_.iommu_enabled) {
    return;  // no translations, no stale windows
  }

  // Strict mode announced itself: per-page kIotlbInvalidate events with site
  // "unmap_strict" immediately precede this kDmaUnmap. The stale window then
  // spans only the synchronous invalidation itself.
  uint64_t first_invalidate_cycle = UINT64_MAX;
  size_t covered = 0;
  for (const PendingStrictInvalidation& pending : pending_strict_) {
    if (pending.device == event.device && pending.iova_page >= page &&
        pending.iova_page < page + (pages << kPageShift)) {
      first_invalidate_cycle = std::min(first_invalidate_cycle, pending.cycle);
      ++covered;
    }
  }
  pending_strict_.clear();

  if (covered >= pages) {
    // Record the (already closed) strict window without a detached span —
    // it opened in the past and tracer spans cannot be backdated.
    if (windows_.size() >= config_.max_windows) {
      ++dropped_windows_;
      return;
    }
    Window window;
    window.kind = WindowKind::kStaleIotlb;
    window.device = event.device;
    window.iova_page = page;
    window.pages = pages;
    window.open_cycle = first_invalidate_cycle;
    window.open = false;
    window.close_cycle = event.cycle;
    window.close_reason = "strict";
    const uint64_t duration = window.duration();
    stale_open_cycles_.Record(duration);
    if (hub_.enabled()) {
      c_stale_opened_.Get(hub_).Add();
      c_stale_closed_.Get(hub_).Add();
      h_stale_open_cycles_.Get(hub_).Record(duration);
    }
    PublishWindowEvent(window, /*open=*/false, telemetry::Severity::kInfo);
    windows_.push_back(std::move(window));
    return;
  }

  // Deferred: the translation stays cached until the next flush.
  const size_t index =
      NewWindow(WindowKind::kStaleIotlb, event, page, pages, /*exposed=*/0);
  if (index == SIZE_MAX) {
    return;
  }
  open_stale_.push_back(index);
  if (hub_.enabled()) {
    c_stale_opened_.Get(hub_).Add();
  }
  PublishWindowEvent(windows_[index], /*open=*/true, telemetry::Severity::kInfo);
}

void WindowTracker::OnFlush(const telemetry::Event& event) {
  // FlushNow drains the whole queue: every open stale window closes here.
  // site is "flush_now:<reason>"; keep the reason in the close record.
  const Site reason = FlushCloseReason(event.site);
  for (const size_t index : open_stale_) {
    CloseWindow(index, event.cycle, reason);
  }
  open_stale_.clear();
}

void WindowTracker::OnStaleHit(const telemetry::Event& event) {
  const uint64_t page = PageBase(event.addr2);
  // Prefer a device-exact match; fall back to page-only (shared domains).
  size_t match = SIZE_MAX;
  for (const size_t index : open_stale_) {
    const Window& window = windows_[index];
    const bool in_range = page >= window.iova_page &&
                          page < window.iova_page + (window.pages << kPageShift);
    if (!in_range) {
      continue;
    }
    if (window.device == event.device) {
      match = index;
      break;
    }
    if (match == SIZE_MAX) {
      match = index;
    }
  }
  if (match == SIZE_MAX) {
    return;
  }
  Window& window = windows_[match];
  if (window.device_hits == 0) {
    window.first_hit_cycle = event.cycle;
  }
  ++window.device_hits;
  if (hub_.enabled()) {
    c_stale_hits_.Get(hub_).Add();
  }
}

void WindowTracker::OnDetection(const telemetry::Event& event, bool dkasan) {
  // Attribute the detection to the most recent open window, falling back to
  // the most recently opened record of any state (the detector may fire
  // right after a flush closed the window it caught).
  size_t target = SIZE_MAX;
  if (!open_stale_.empty()) {
    target = open_stale_.back();
  } else {
    for (size_t i = windows_.size(); i > 0; --i) {
      if (windows_[i - 1].kind == WindowKind::kStaleIotlb) {
        target = i - 1;
        break;
      }
    }
  }
  if (target == SIZE_MAX) {
    return;
  }
  Window& window = windows_[target];
  const uint64_t latency =
      event.cycle > window.open_cycle ? event.cycle - window.open_cycle : 0;
  telemetry::Histogram& internal = dkasan ? detect_latency_dkasan_ : detect_latency_spade_;
  internal.Record(latency);
  if (!window.detected) {
    window.detected = true;
    window.detect_cycle = event.cycle;
  }
  if (hub_.enabled()) {
    (dkasan ? h_latency_dkasan_ : h_latency_spade_).Get(hub_).Record(latency);
    (dkasan ? c_detected_dkasan_ : c_detected_spade_).Get(hub_).Add();
  }
  // D-KASAN is a runtime detector: its report ends the exploitable interval
  // (the kernel now knows). SPADE is static analysis over sites — a finding
  // does not invalidate a live translation, so the window stays open.
  if (dkasan && window.open) {
    CloseWindow(target, event.cycle, "detected:dkasan");
    open_stale_.erase(std::remove(open_stale_.begin(), open_stale_.end(), target),
                      open_stale_.end());
  }
}

}  // namespace spv::trace
