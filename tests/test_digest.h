// FNV-1a digest for golden tests: pins long deterministic outputs (reports,
// JSON documents, trace CSVs) to one 64-bit value recorded at a known-good
// commit, so a refactor that must not change them is checked exactly.

#ifndef SPV_TESTS_TEST_DIGEST_H_
#define SPV_TESTS_TEST_DIGEST_H_

#include <cstdint>
#include <string_view>

namespace spv::testing {

inline uint64_t Fnv1a(std::string_view text) {
  uint64_t hash = 1469598103934665603ull;
  for (const unsigned char c : text) {
    hash = (hash ^ c) * 1099511628211ull;
  }
  return hash;
}

}  // namespace spv::testing

#endif  // SPV_TESTS_TEST_DIGEST_H_
