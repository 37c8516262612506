#include "engine/chunk_timeline.hpp"

#include "util/error.hpp"
#include "util/saturate.hpp"

namespace omega {

template <typename Stored>
void ChunkTimeline::assign_runs(std::size_t n, const Stored& stored) {
  if (n > kMaxChunks) throw_too_many_chunks();
  runs_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t x = stored(i);
    const auto end = static_cast<std::uint32_t>(i + 1);
    if (runs_.empty() || x != runs_.back().value()) {
      runs_.push_back(Run::of(x, end));
    } else {
      runs_.back().end = end;
    }
  }
  runs_.shrink_to_fit();
}

ChunkTimeline ChunkTimeline::durations(
    std::span<const std::uint64_t> per_chunk) {
  ChunkTimeline t(Kind::kDurations);
  t.assign_runs(per_chunk.size(),
                [&](std::size_t i) { return per_chunk[i]; });
  return t;
}

ChunkTimeline ChunkTimeline::completions(
    std::span<const std::uint64_t> per_chunk) {
  for (std::size_t i = 1; i < per_chunk.size(); ++i) {
    if (per_chunk[i] < per_chunk[i - 1]) {
      throw InvalidArgumentError("chunk completions must be non-decreasing");
    }
  }
  ChunkTimeline t(Kind::kCompletions);
  t.assign_runs(per_chunk.size(), [&](std::size_t i) {
    return i == 0 ? per_chunk[0] : per_chunk[i] - per_chunk[i - 1];
  });
  return t;
}

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
