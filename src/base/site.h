// Call-site names ("dma_map_single", "nic0.q1_map_rx") that live for the
// whole process.
//
// Every allocation and mapping record keeps the name of the code that made
// it — D-KASAN reports, leak audits and the flight recorder print it. A
// record holding a std::string pays a heap copy per op for any name past the
// small-string limit, and drivers that compose per-queue names used to build
// them on every packet. A Site is a view of storage that outlives every
// record, so records store a std::string_view and copying one is free:
//
//  * a string literal converts implicitly (static storage);
//  * a name composed at run time goes through Site::Intern() once — at
//    driver init, not per op — which copies it into a process-wide table
//    that is never freed (equal names share one copy).
//
// A std::string or std::string_view does not convert, so a view of a
// temporary cannot be stored by accident.

#ifndef SPV_BASE_SITE_H_
#define SPV_BASE_SITE_H_

#include <cstddef>
#include <string_view>

namespace spv {

class Site {
 public:
  constexpr Site() = default;

  // A string literal: its storage is static.
  template <size_t N>
  constexpr Site(const char (&literal)[N])  // NOLINT(google-explicit-constructor)
      : name_(literal) {}

  // Copies `name` into the process-wide table (once per distinct name) and
  // returns a Site viewing the copy. Thread-safe; takes a lock, so call it
  // where names are built, not per op.
  static Site Intern(std::string_view name);

  constexpr operator std::string_view() const { return name_; }  // NOLINT

 private:
  explicit constexpr Site(std::string_view interned) : name_(interned) {}

  std::string_view name_;
};

}  // namespace spv

#endif  // SPV_BASE_SITE_H_
