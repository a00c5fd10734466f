#include "base/site.h"

#include <mutex>
#include <set>
#include <string>

namespace spv {

Site Site::Intern(std::string_view name) {
  // Never destroyed: records may be read during static destruction, and a
  // set's nodes never move, so every view handed out stays valid.
  static std::mutex* mu = new std::mutex;
  static std::set<std::string, std::less<>>* names = new std::set<std::string, std::less<>>;
  std::lock_guard<std::mutex> lock(*mu);
  auto it = names->find(name);
  if (it == names->end()) {
    it = names->emplace(name).first;
  }
  return Site(std::string_view(*it));
}

}  // namespace spv
