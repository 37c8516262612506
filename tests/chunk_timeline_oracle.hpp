// Canonical-form oracles for ChunkTimeline (test helper, not library code).
//
// Compresses per-chunk values into a timeline's maximal runs. The runs are
// found here one at a time, not through append's merging, so a test can
// check an engine's timeline (or a chunk-at-a-time append) against the
// compression of its expansion.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "engine/chunk_timeline.hpp"
#include "util/error.hpp"

namespace omega {

/// The timeline of `kind` whose stored values (durations, or completion
/// increments) are `stored`, one per chunk.
inline ChunkTimeline compress_runs(ChunkTimeline::Kind kind,
                                   std::span<const std::uint64_t> stored) {
  ChunkTimeline t(kind);
  for (std::size_t i = 0; i < stored.size();) {
    std::size_t j = i + 1;
    while (j < stored.size() && stored[j] == stored[i]) ++j;
    t.append(stored[i], j - i);
    i = j;
  }
  return t;
}

/// Compresses per-chunk durations.
inline ChunkTimeline compress_durations(
    std::span<const std::uint64_t> per_chunk) {
  return compress_runs(ChunkTimeline::Kind::kDurations, per_chunk);
}

/// Compresses per-chunk completions; they must be non-decreasing.
inline ChunkTimeline compress_completions(
    std::span<const std::uint64_t> per_chunk) {
  std::vector<std::uint64_t> increments(per_chunk.size());
  for (std::size_t i = 0; i < per_chunk.size(); ++i) {
    if (i > 0 && per_chunk[i] < per_chunk[i - 1]) {
      throw InvalidArgumentError("chunk completions must be non-decreasing");
    }
    increments[i] = i == 0 ? per_chunk[0] : per_chunk[i] - per_chunk[i - 1];
  }
  return compress_runs(ChunkTimeline::Kind::kCompletions, increments);
}

}  // namespace omega
