// Byte-size accounting for values stored in / fetched from the simulated
// DHT. Communication metrics (Figs 3 and 9 of the paper) are computed from
// these sizes, so they model wire size, not C++ object overheads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace ampc::kv {

/// Wire size of a trivially copyable scalar/struct.
template <typename T>
int64_t KvByteSize(const T&) {
  static_assert(std::is_trivially_copyable_v<T>,
                "provide a KvByteSize overload for non-trivial types");
  return sizeof(T);
}

/// Wire size of a vector payload: packed elements (length is part of the
/// record framing and is charged as one word).
template <typename T>
int64_t KvByteSize(const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  return static_cast<int64_t>(sizeof(int64_t) + v.size() * sizeof(T));
}

/// A view of packed elements ships exactly what a vector of them does.
template <typename T, std::size_t Extent>
int64_t KvByteSize(const std::span<T, Extent>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  return static_cast<int64_t>(sizeof(int64_t) + v.size() * sizeof(T));
}

template <typename A, typename B>
int64_t KvByteSize(const std::pair<A, B>& p) {
  return KvByteSize(p.first) + KvByteSize(p.second);
}

/// Wire size of a key (all DHT keys are 64-bit).
inline constexpr int64_t kKeyBytes = sizeof(uint64_t);

}  // namespace ampc::kv
