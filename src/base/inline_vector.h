// A vector with fixed inline capacity: no heap, ever.
//
// For short per-op lists with a hard bound known at compile time (an skb's
// frags, at most kMaxSkbFrags). Reads like the std::vector subset its users
// need — size(), empty(), operator[], push_back() and range-for —
// so code that indexes a descriptor's lists does not care which it holds.

#ifndef SPV_BASE_INLINE_VECTOR_H_
#define SPV_BASE_INLINE_VECTOR_H_

#include <array>
#include <cassert>
#include <cstddef>

namespace spv {

template <typename T, size_t N>
class InlineVector {
 public:
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  T& operator[](size_t i) {
    assert(i < size_);
    return items_[i];
  }
  const T& operator[](size_t i) const {
    assert(i < size_);
    return items_[i];
  }

  void push_back(const T& item) {
    assert(size_ < N && "InlineVector over capacity");
    items_[size_++] = item;
  }

  T* begin() { return items_.data(); }
  T* end() { return items_.data() + size_; }
  const T* begin() const { return items_.data(); }
  const T* end() const { return items_.data() + size_; }

 private:
  std::array<T, N> items_{};
  size_t size_ = 0;
};

}  // namespace spv

#endif  // SPV_BASE_INLINE_VECTOR_H_
