// Reuses the nodes of a node-based std::map.
//
// An ordered map on a per-op path (in-flight commands by id, live bounces
// by IOVA) allocates a node per insert and frees it per erase. Erasing
// through Take() parks the node instead, and Put() refills a parked node, so
// a map whose size stays bounded stops allocating once warm. Ordering,
// iteration and every other operation are the map's own.

#ifndef SPV_BASE_NODE_RECYCLER_H_
#define SPV_BASE_NODE_RECYCLER_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace spv {

template <typename Map>
class NodeRecycler {
 public:
  using Key = typename Map::key_type;
  using Value = typename Map::mapped_type;

  // map[key] = value, on a parked node when the key is new and one is free.
  void Put(Map& map, const Key& key, Value value) {
    if (auto it = map.find(key); it != map.end()) {
      it->second = std::move(value);
      return;
    }
    if (spare_.empty()) {
      map.emplace(key, std::move(value));
      return;
    }
    typename Map::node_type node = std::move(spare_.back());
    spare_.pop_back();
    node.key() = key;
    node.mapped() = std::move(value);
    map.insert(std::move(node));
  }

  // Erases `it` from `map`, parking its node; returns the value it held.
  Value Take(Map& map, typename Map::iterator it) {
    typename Map::node_type node = map.extract(it);
    Value value = std::move(node.mapped());
    if (spare_.size() < kMaxSpares) {
      spare_.push_back(std::move(node));
    }
    return value;
  }

 private:
  static constexpr size_t kMaxSpares = 64;
  std::vector<typename Map::node_type> spare_;
};

}  // namespace spv

#endif  // SPV_BASE_NODE_RECYCLER_H_
