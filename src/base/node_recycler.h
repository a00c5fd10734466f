// Reuses the nodes of a node-based std::map or std::set.
//
// An ordered container on a per-op path (in-flight commands by id, live
// bounces by IOVA, buddy free blocks) allocates a node per insert and frees
// it per erase. Erasing through Take() (maps) or Erase() (sets) parks the
// node instead, and Put() / Insert() refill a parked node, so a container
// whose size stays bounded stops allocating once warm. Ordering, iteration
// and every other operation are the container's own. One recycler may serve
// several containers of the same type (node handles are interchangeable).

#ifndef SPV_BASE_NODE_RECYCLER_H_
#define SPV_BASE_NODE_RECYCLER_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace spv {

template <typename Container>
class NodeRecycler {
 public:
  using Key = typename Container::key_type;
  using Node = typename Container::node_type;

  // ---- maps -------------------------------------------------------------------

  // map[key] = value, on a parked node when the key is new and one is free.
  template <typename Value>
  void Put(Container& map, const Key& key, Value value) {
    if (auto it = map.find(key); it != map.end()) {
      it->second = std::move(value);
      return;
    }
    if (spare_.empty()) {
      map.emplace(key, std::move(value));
      return;
    }
    Node node = Pop();
    node.key() = key;
    node.mapped() = std::move(value);
    map.insert(std::move(node));
  }

  // Erases `it` from `map`, parking its node; returns the value it held.
  auto Take(Container& map, typename Container::iterator it) {
    Node node = map.extract(it);
    auto value = std::move(node.mapped());
    Park(std::move(node));
    return value;
  }

  // ---- sets -------------------------------------------------------------------

  // set.insert(key), on a parked node when one is free.
  void Insert(Container& set, const Key& key) {
    if (spare_.empty()) {
      set.insert(key);
      return;
    }
    Node node = Pop();
    node.value() = key;
    auto result = set.insert(std::move(node));
    if (!result.inserted) {
      Park(std::move(result.node));  // already present: the node stays spare
    }
  }

  // Erases `it` from `set`, parking its node.
  void Erase(Container& set, typename Container::iterator it) { Park(set.extract(it)); }

 private:
  static constexpr size_t kMaxSpares = 64;

  Node Pop() {
    Node node = std::move(spare_.back());
    spare_.pop_back();
    return node;
  }
  void Park(Node node) {
    if (spare_.size() < kMaxSpares) {
      spare_.push_back(std::move(node));
    }
  }

  std::vector<Node> spare_;
};

}  // namespace spv

#endif  // SPV_BASE_NODE_RECYCLER_H_
