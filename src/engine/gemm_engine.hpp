// Dense-phase (Combination) cost engine.
//
// Simulates a tiled GEMM `Out[V,G] = A[V,F] x B[F,G]` on the PE array at
// tile-step granularity: each iteration of the temporal loop nest issues one
// wave of MACs across the spatially mapped tile and is charged
// max(1, distribution-stall, drain-stall) cycles; stationary-tile (re)loads,
// partial-sum spills/reloads and final drains add serial cycles. Traffic is
// counted event-by-event so the totals are exactly consistent with the
// cycle accounting (see DESIGN.md "Cost-model semantics").
#pragma once

#include "arch/accelerator.hpp"
#include "dataflow/intra.hpp"
#include "engine/phase_result.hpp"

namespace omega {

/// Which matrix the pipeline chunk grid tracks.
enum class ChunkTarget : std::uint8_t {
  kNone = 0,
  kMatrixA = 1,    // AC consumer: A is the intermediate being consumed
  kMatrixOut = 2,  // CA producer: Out is the intermediate being produced
};

struct GemmPhaseConfig {
  // Extents.
  std::size_t rows = 1;   // V
  std::size_t inner = 1;  // F (contraction)
  std::size_t cols = 1;   // G

  LoopOrder order;  // permutation of {V, F, G}
  TileSizes tiles;  // t_n ignored

  // Hardware binding.
  std::size_t pes = 512;
  std::size_t bw_dist = AcceleratorConfig::kUnbounded;
  std::size_t bw_red = AcceleratorConfig::kUnbounded;
  /// RF capacity per PE in elements. Half of it may hold live partial sums:
  /// when the output elements a PE must keep alive between contraction steps
  /// fit, accumulators persist in the RF and no psum spill occurs (this is
  /// what separates SP2's T_F=4 from SPhighV's T_F=1 in Section V-B2).
  std::size_t rf_elements = 16;

  /// SP-Optimized (AC): the intermediate already sits in the PE register
  /// files — A is neither loaded nor streamed from the GB (the t_load
  /// credit of Table III).
  bool a_from_rf = false;
  /// SP-Optimized (CA): outputs stay resident in the PE register files.
  bool out_to_rf = false;

  /// Overrides for spilled intermediates (Seq with V*F too large for the
  /// GB): stream A from DRAM / drain Out to DRAM at this bandwidth.
  /// 0 = not spilled (use bw_dist / bw_red).
  std::size_t a_stream_bw = 0;
  std::size_t out_drain_bw = 0;
  /// When spilled, A reads / Out writes are charged to DRAM, not the GB.
  bool a_in_dram = false;
  bool out_in_dram = false;

  TrafficCategory a_category = TrafficCategory::kIntermediate;
  TrafficCategory b_category = TrafficCategory::kWeight;
  TrafficCategory out_category = TrafficCategory::kOutput;
  /// Accesses to A (or Out) staged through the PP ping-pong partition are
  /// additionally mirrored into traffic.intermediate_partition.
  bool a_via_partition = false;
  bool out_via_partition = false;

  ChunkSpec chunks;  // identity grid unless pipelining
  ChunkTarget chunk_target = ChunkTarget::kNone;

  void validate() const;
};

/// Simulates one dense phase. A pure function of `cfg`: the memoized path
/// is simulate_phase (omega/pipeline.hpp).
[[nodiscard]] PhaseResult run_gemm_phase(const GemmPhaseConfig& cfg);

/// The config's memo key: every field above, one word each (flags and
/// traffic categories packed).
[[nodiscard]] EvalTermKey term_key(const GemmPhaseConfig& cfg);

/// ceil(a / b) with b >= 1.
[[nodiscard]] constexpr std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) {
  return (a + b - 1) / b;
}

}  // namespace omega
