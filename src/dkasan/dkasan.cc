#include "dkasan/dkasan.h"

#include <sstream>

namespace spv::dkasan {

std::string_view ReportKindName(ReportKind kind) {
  switch (kind) {
    case ReportKind::kAllocAfterMap:
      return "alloc-after-map";
    case ReportKind::kMapAfterAlloc:
      return "map-after-alloc";
    case ReportKind::kAccessAfterMap:
      return "access-after-map";
    case ReportKind::kMultipleMap:
      return "multiple-map";
  }
  return "?";
}

std::string Report::ToLine(int index) const {
  std::ostringstream out;
  out << "[" << index << "] size " << size << " [" << iommu::AccessRightsName(rights) << "] "
      << site;
  if (!detail.empty()) {
    out << "  (" << ReportKindName(kind) << ": " << detail << ")";
  } else {
    out << "  (" << ReportKindName(kind) << ")";
  }
  return out.str();
}

DKasan::PageShadow* DKasan::FindShadow(Kva kva) {
  Result<PhysAddr> phys = layout_.DirectMapKvaToPhys(kva);
  return phys.ok() ? shadow_.Find(phys->pfn().value) : nullptr;
}

DKasan::PageShadow* DKasan::ShadowFor(Kva kva) {
  Result<PhysAddr> phys = layout_.DirectMapKvaToPhys(kva);
  if (!phys.ok()) {
    return nullptr;
  }
  return shadow_.TryEmplace(phys->pfn().value, PageShadow{}).first;
}

bool DKasan::FirstSighting(ReportKind kind, bool is_write, std::string_view site) {
  if (!dedup_) {
    return true;
  }
  const DedupKey key{kind, is_write, site};
  if (seen_.contains(key)) {
    return false;  // looked up first: emplace would build a node to throw away
  }
  seen_.insert(key);
  return true;
}

void DKasan::AddReport(Report report) {
  if (hub_ != nullptr && hub_->active()) {
    telemetry::Event event;
    event.kind = telemetry::EventKind::kDkasanReport;
    event.severity = telemetry::Severity::kCritical;
    event.addr = report.kva.value;
    event.len = report.size;
    event.aux = static_cast<uint64_t>(report.kind);
    event.origin = this;
    // The report line is run-time text, so the event owns it.
    event.site = telemetry::EventSite::Own({ReportKindName(report.kind), ": ", report.site});
    hub_->Publish(std::move(event));
    if (hub_->enabled()) {
      c_reports_.Get(*hub_).Add();
      c_reports_by_kind_[static_cast<size_t>(report.kind)].Get(*hub_).Add();
    }
  }
  reports_.push_back(std::move(report));
}

void DKasan::OnAlloc(Kva kva, uint64_t size, std::string_view site) {
  live_nodes_.Put(live_objects_, kva.value, LiveObject{size, site});
  // alloc-after-map: any page the object touches is currently mapped.
  const uint64_t first = kva.PageBase().value;
  const uint64_t last = (kva.value + size - 1) & ~kPageMask;
  for (uint64_t page = first; page <= last; page += kPageSize) {
    const PageShadow* shadow = FindShadow(Kva{page});
    if (shadow != nullptr && shadow->map_count > 0) {
      if (FirstSighting(ReportKind::kAllocAfterMap, false, site)) {
        Report report;
        report.kind = ReportKind::kAllocAfterMap;
        report.kva = kva;
        report.size = size;
        report.rights = static_cast<iommu::AccessRights>(shadow->merged_rights);
        report.site = std::string(site);
        report.detail = "object allocated on a DMA-mapped page (mapped at " +
                        std::string(shadow->first_map_site) + ")";
        AddReport(std::move(report));
      }
      return;
    }
  }
}

void DKasan::OnFree(Kva kva, uint64_t size) {
  (void)size;
  if (auto it = live_objects_.find(kva.value); it != live_objects_.end()) {
    live_nodes_.Take(live_objects_, it);
  }
}

void DKasan::OnMap(DeviceId device, Kva kva, uint64_t len, Iova iova,
                   iommu::AccessRights rights, std::string_view site) {
  (void)device;
  (void)iova;
  const uint64_t first = kva.PageBase().value;
  const uint64_t last = (kva.value + len - 1) & ~kPageMask;
  for (uint64_t page = first; page <= last; page += kPageSize) {
    PageShadow* shadow = ShadowFor(Kva{page});
    if (shadow == nullptr) {
      continue;
    }
    if (shadow->map_count > 0 && FirstSighting(ReportKind::kMultipleMap, false, site)) {
      Report report;
      report.kind = ReportKind::kMultipleMap;
      report.kva = Kva{page};
      report.size = len;
      report.rights =
          static_cast<iommu::AccessRights>(shadow->merged_rights |
                                           static_cast<uint8_t>(rights));
      report.site = std::string(site);
      report.detail = "page mapped " + std::to_string(shadow->map_count + 1) +
                      " times (first at " + std::string(shadow->first_map_site) + ")";
      AddReport(std::move(report));
    }
    if (shadow->map_count == 0) {
      shadow->first_map_site = site;
    }
    ++shadow->map_count;
    shadow->merged_rights |= static_cast<uint8_t>(rights);

    // map-after-alloc: a live object that is NOT the mapped buffer shares
    // this page.
    auto it = live_objects_.lower_bound(page > kPageSize ? page - kPageSize + 1 : 0);
    for (; it != live_objects_.end() && it->first < page + kPageSize; ++it) {
      const uint64_t obj_start = it->first;
      const uint64_t obj_end = obj_start + it->second.size;
      if (obj_end <= page || obj_start >= page + kPageSize) {
        continue;  // does not intersect this page
      }
      if (obj_start >= kva.value && obj_end <= kva.value + len) {
        continue;  // the mapped buffer itself
      }
      if (!FirstSighting(ReportKind::kMapAfterAlloc, false, it->second.site)) {
        continue;
      }
      Report report;
      report.kind = ReportKind::kMapAfterAlloc;
      report.kva = Kva{obj_start};
      report.size = it->second.size;
      report.rights = rights;
      report.site = std::string(it->second.site);
      report.detail = "containing page mapped after allocation (map at " +
                      std::string(site) + ")";
      AddReport(std::move(report));
    }
  }
}

void DKasan::OnUnmap(DeviceId device, Kva kva, uint64_t len) {
  (void)device;
  const uint64_t first = kva.PageBase().value;
  const uint64_t last = (kva.value + len - 1) & ~kPageMask;
  for (uint64_t page = first; page <= last; page += kPageSize) {
    PageShadow* shadow = FindShadow(Kva{page});
    if (shadow != nullptr && shadow->map_count > 0) {
      --shadow->map_count;
      if (shadow->map_count == 0) {
        shadow->merged_rights = 0;
        shadow->first_map_site = {};
      }
    }
  }
}

void DKasan::OnCpuAccess(Kva kva, uint64_t len, bool is_write) {
  const uint64_t first = kva.PageBase().value;
  const uint64_t last = len > 0 ? ((kva.value + len - 1) & ~kPageMask) : first;
  for (uint64_t page = first; page <= last; page += kPageSize) {
    const PageShadow* shadow = FindShadow(Kva{page});
    if (shadow != nullptr && shadow->map_count > 0) {
      if (FirstSighting(ReportKind::kAccessAfterMap, is_write, shadow->first_map_site)) {
        Report report;
        report.kind = ReportKind::kAccessAfterMap;
        report.kva = kva;
        report.size = len;
        report.rights = static_cast<iommu::AccessRights>(shadow->merged_rights);
        report.site = std::string(is_write ? "cpu-write" : "cpu-read") +
                      " on page mapped at " + std::string(shadow->first_map_site);
        AddReport(std::move(report));
      }
      return;
    }
  }
}

std::vector<Report> DKasan::ReportsOfKind(ReportKind kind) const {
  std::vector<Report> out;
  for (const Report& report : reports_) {
    if (report.kind == kind) {
      out.push_back(report);
    }
  }
  return out;
}

uint64_t DKasan::count(ReportKind kind) const {
  uint64_t n = 0;
  for (const Report& report : reports_) {
    n += report.kind == kind ? 1 : 0;
  }
  return n;
}

std::string DKasan::FormatReport(size_t max_lines) const {
  std::ostringstream out;
  out << "D-KASAN report (" << reports_.size() << " findings)\n";
  int index = 1;
  for (const Report& report : reports_) {
    if (static_cast<size_t>(index) > max_lines) {
      out << "  ... " << (reports_.size() - max_lines) << " more\n";
      break;
    }
    out << "  " << report.ToLine(index++) << "\n";
  }
  return out.str();
}

}  // namespace spv::dkasan
