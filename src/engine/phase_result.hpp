// Result of simulating one phase, plus the chunking contract used to stitch
// two phases into a pipeline.
#pragma once

#include <array>
#include <cstdint>
#include <limits>

#include "dataflow/descriptor.hpp"
#include "engine/chunk_timeline.hpp"
#include "engine/traffic.hpp"

namespace omega {

/// How the intermediate matrix is carved into pipeline chunks (Section IV-D).
/// A chunk is a `row_block x col_block` region; chunks are traversed in
/// `major` order, which the feasibility analysis guarantees both phases
/// share. Seq / SP-Optimized use a single all-covering chunk.
struct ChunkSpec {
  std::size_t rows = 1;       // intermediate row extent
  std::size_t cols = 1;       // intermediate column extent
  std::size_t row_block = std::numeric_limits<std::size_t>::max();
  std::size_t col_block = std::numeric_limits<std::size_t>::max();
  TraversalMajor major = TraversalMajor::kRowMajor;

  [[nodiscard]] std::size_t row_blocks() const {
    const std::size_t rb = std::min(row_block, rows);
    return rb == 0 ? 1 : (rows + rb - 1) / rb;
  }
  [[nodiscard]] std::size_t col_blocks() const {
    const std::size_t cb = std::min(col_block, cols);
    return cb == 0 ? 1 : (cols + cb - 1) / cb;
  }
  [[nodiscard]] std::size_t num_chunks() const {
    return row_blocks() * col_blocks();
  }

  /// Flattened chunk index for an intermediate coordinate.
  [[nodiscard]] std::size_t chunk_of(std::size_t row, std::size_t col) const {
    const std::size_t rb = std::min(row_block, rows);
    const std::size_t cb = std::min(col_block, cols);
    const std::size_t ri = rb == 0 ? 0 : row / rb;
    const std::size_t ci = cb == 0 ? 0 : col / cb;
    return major == TraversalMajor::kRowMajor ? ri * col_blocks() + ci
                                              : ci * row_blocks() + ri;
  }

  /// Single-chunk spec covering the whole intermediate (Seq / SP).
  static ChunkSpec whole(std::size_t rows, std::size_t cols) {
    ChunkSpec s;
    s.rows = rows;
    s.cols = cols;
    return s;
  }
};

/// POD signature of one phase config: every field that determines its
/// PhaseResult except the graph an spmm phase walks. Built by the engines'
/// `term_key` (gemm_engine.hpp, spmm_engine.hpp); it keys both the
/// WorkloadContext phase memo and a PipelineEvalPlan's TermStore. w[0] tags
/// the engine so spmm and gemm keys never collide; an spmm key leaves w[19]
/// zero for the caller's graph tag (see PipelineEvalPlan::resolve_phase).
struct EvalTermKey {
  std::array<std::uint64_t, 22> w{};
  [[nodiscard]] bool operator==(const EvalTermKey&) const = default;
};

struct EvalTermKeyHash {
  [[nodiscard]] std::size_t operator()(const EvalTermKey& k) const noexcept {
    // FNV-1a over the words; the fields are small integers, so the byte-wise
    // avalanche matters more than speed here (the map is behind the L1).
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const std::uint64_t w : k.w) {
      h ^= w;
      h *= 0x100000001b3ull;
    }
    return static_cast<std::size_t>(h);
  }
};

/// One key word for a loop order (term_key).
[[nodiscard]] inline std::uint64_t pack_order(const LoopOrder& order) {
  return static_cast<std::uint64_t>(order.at(0)) << 8 |
         static_cast<std::uint64_t>(order.at(1)) << 4 |
         static_cast<std::uint64_t>(order.at(2));
}

/// Per-phase simulation output. The engines fill both chunk timelines in
/// run-length form (engine/chunk_timeline.hpp); a big-grid term in a
/// PipelineEvalPlan's TermStore keeps only the one compose_pipeline reads (a
/// PP producer's chunk_completion, a PP consumer's chunk_cycles) and neither
/// at an SP-generic boundary.
struct PhaseResult {
  std::uint64_t cycles = 0;         // total, including every stall/load
  std::uint64_t issue_steps = 0;    // MAC-issue steps (ideal cycle count)
  std::uint64_t load_cycles = 0;    // stationary-tile (re)loads (t_load)
  std::uint64_t stall_cycles = 0;   // distribution/reduction bandwidth stalls
  std::uint64_t psum_cycles = 0;    // partial-sum spill/reload serialization
  std::uint64_t fill_cycles = 0;    // one-time pipeline fill (tree depth etc.)
  std::uint64_t macs = 0;
  std::uint64_t active_pe_cycles = 0;  // sum over steps of active PEs

  TrafficCounters traffic;

  /// Duration of each pipeline chunk, aligned with the ChunkSpec grid;
  /// sums (saturating) to `cycles` (fill attributed to the first chunk).
  ChunkTimeline chunk_cycles{ChunkTimeline::Kind::kDurations};

  /// Absolute cycle at which each chunk is COMPLETE (its last contribution
  /// lands), stored as runs of per-chunk increments. For monotone producers
  /// this is the prefix sum of chunk_cycles; producers whose traversal
  /// revisits chunks (e.g. a CA Combination with T_G smaller than the
  /// handoff width) complete chunks only on the final sweep, which this
  /// captures.
  ChunkTimeline chunk_completion{ChunkTimeline::Kind::kCompletions};

  /// Run bytes both timelines hold (what a TermStore charges).
  [[nodiscard]] std::size_t timeline_bytes() const {
    return chunk_cycles.bytes() + chunk_completion.bytes();
  }

  /// Dynamic utilization of the PEs allocated to this phase.
  [[nodiscard]] double utilization(std::size_t pes) const {
    if (cycles == 0 || pes == 0) return 0.0;
    return static_cast<double>(active_pe_cycles) /
           (static_cast<double>(cycles) * static_cast<double>(pes));
  }
};

}  // namespace omega
