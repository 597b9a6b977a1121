#include "common/parallel.h"

#include <algorithm>

namespace ampc {

std::vector<IndexChunk> SplitIndexChunks(int64_t begin, int64_t end,
                                         int64_t grain, int64_t max_chunks) {
  std::vector<IndexChunk> chunks;
  if (begin >= end) return chunks;
  grain = std::max<int64_t>(1, grain);
  max_chunks = std::max<int64_t>(1, max_chunks);
  const int64_t n = end - begin;
  const int64_t chunk =
      std::max(grain, (n + max_chunks - 1) / max_chunks);
  chunks.reserve((n + chunk - 1) / chunk);
  for (int64_t lo = begin; lo < end; lo += chunk) {
    chunks.push_back({lo, std::min(end, lo + chunk)});
  }
  return chunks;
}

}  // namespace ampc
