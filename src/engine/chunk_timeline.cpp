#include "engine/chunk_timeline.hpp"

#include "util/error.hpp"
#include "util/saturate.hpp"

namespace omega {

void ChunkTimeline::throw_too_many_chunks() {
  throw ResourceError("chunk timeline exceeds 2^32 - 1 chunks");
}

std::vector<std::uint64_t> ChunkTimeline::expand() const {
  std::vector<std::uint64_t> out;
  out.reserve(size());
  std::uint64_t total = 0;
  for (const Run& run : runs_) {
    const std::uint64_t v = run.value();
    while (out.size() < run.end) {
      if (kind_ == Kind::kDurations) {
        out.push_back(v);
      } else {
        total = sat_add_u64(total, v);
        out.push_back(total);
      }
    }
  }
  return out;
}

}  // namespace omega
