// Run-length encoded per-chunk pipeline timeline (Section IV-D chunk grid).
//
// A phase reports two timelines aligned with its ChunkSpec grid: the
// duration of every chunk and the absolute cycle at which every chunk is
// complete. Both are piecewise constant or piecewise linear over long
// stretches of the grid (a row block split evenly over its column chunks,
// the dense engine's replayed chunk plateaus), so storing one u64 per chunk
// wastes most of the bytes a sweep's term store holds. A ChunkTimeline
// stores maximal runs of equal per-chunk values instead: a u64 value and a
// u32 run end per run, 12 bytes a run, in one allocation.
//
// A completion timeline stores the runs of its per-chunk *increments*
// (completion[i] - completion[i-1], with completion[-1] = 0), so a linear
// stretch is one run; it expands to their saturating prefix sums, which is
// exact for every non-decreasing sequence of u64 completions.
#pragma once

#include <cstdint>
#include <vector>

namespace omega {

class ChunkTimeline {
 public:
  /// Most chunks a timeline holds (its run ends are u32).
  static constexpr std::size_t kMaxChunks = UINT32_MAX;

  /// What a chunk's expanded value means.
  enum class Kind : std::uint8_t {
    kDurations,    // cycles attributable to the chunk
    kCompletions,  // absolute cycle at which the chunk is complete
  };

  explicit ChunkTimeline(Kind kind = Kind::kDurations) : kind_(kind) {}

  /// The completion timeline of chunks that run back to back with these
  /// durations: the same runs, read as increments.
  [[nodiscard]] ChunkTimeline back_to_back_completions() const {
    ChunkTimeline t = *this;
    t.kind_ = Kind::kCompletions;
    return t;
  }

  /// Appends `count` chunks whose stored value is `value` (a duration, or a
  /// completion increment), extending the last run when it holds the same
  /// value. Throws Error past kMaxChunks chunks.
  void append(std::uint64_t value, std::size_t count = 1) {
    if (count == 0) return;
    if (count > kMaxChunks - size()) throw_too_many_chunks();
    const auto end = static_cast<std::uint32_t>(size() + count);
    if (!runs_.empty() && runs_.back().value() == value) {
      runs_.back().end = end;
      return;
    }
    runs_.push_back(Run::of(value, end));
  }
  /// Reserves storage for `runs` runs.
  void reserve(std::size_t runs) { runs_.reserve(runs); }
  /// Drops spare capacity, so bytes() is what the timeline holds.
  void shrink_to_fit() { runs_.shrink_to_fit(); }

  /// Number of chunks.
  [[nodiscard]] std::size_t size() const {
    return runs_.empty() ? 0 : runs_.back().end;
  }
  [[nodiscard]] bool empty() const { return runs_.empty(); }
  [[nodiscard]] std::size_t runs() const { return runs_.size(); }
  /// Stored value of run k: a duration, or a completion increment.
  [[nodiscard]] std::uint64_t run_value(std::size_t k) const {
    return runs_[k].value();
  }
  /// One past the last chunk of run k.
  [[nodiscard]] std::size_t run_end(std::size_t k) const {
    return runs_[k].end;
  }
  /// Bytes of run storage (12 per run).
  [[nodiscard]] std::size_t bytes() const { return runs_.size() * sizeof(Run); }

  /// One value per chunk: durations, or absolute completions.
  [[nodiscard]] std::vector<std::uint64_t> expand() const;

  [[nodiscard]] bool operator==(const ChunkTimeline&) const = default;

 private:
  /// One run: its value split into 32-bit halves, so a run packs into 12
  /// bytes with 4-byte alignment.
  struct Run {
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;
    std::uint32_t end = 0;  // one past the run's last chunk

    [[nodiscard]] static Run of(std::uint64_t value, std::uint32_t end) {
      return {static_cast<std::uint32_t>(value),
              static_cast<std::uint32_t>(value >> 32), end};
    }
    [[nodiscard]] std::uint64_t value() const {
      return static_cast<std::uint64_t>(hi) << 32 | lo;
    }
    [[nodiscard]] bool operator==(const Run&) const = default;
  };
  static_assert(sizeof(Run) == 12);

  [[noreturn]] static void throw_too_many_chunks();

  std::vector<Run> runs_;
  Kind kind_;
};

}  // namespace omega
