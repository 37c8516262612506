// Sparse-phase (Aggregation) cost engine.
//
// Simulates `Out[V,Feat] = A[V,V] x B[V,Feat]` with A in CSR. The engine
// covers both traversal families of the taxonomy:
//
//  * gather orders (V outside N — VFN, VNF, FVN): each vertex lane walks its
//    own CSR row; spatially mapped vertices advance in lockstep, so a
//    vertex-tile takes max over its rows of ceil(deg/T_N) neighbor steps —
//    this is the load-imbalance / "evil row" effect of Section V-B.
//  * scatter orders (N outside V — NVF, NFV, FNV): intermediate rows are
//    walked in order and pushed to their reverse neighbors (AWB-GCN style,
//    Table II rows 7-9); outputs accumulate via read-modify-write traffic.
//
// Cycle and traffic accounting mirror gemm_engine.hpp.
#pragma once

#include "arch/accelerator.hpp"
#include "dataflow/intra.hpp"
#include "engine/gemm_engine.hpp"  // ChunkTarget, ceil_div
#include "engine/phase_result.hpp"
#include "engine/schedule_cache.hpp"
#include "graph/csr.hpp"

namespace omega {

struct SpmmPhaseConfig {
  const CSRGraph* graph = nullptr;  // adjacency (rows = output vertices)
  std::size_t feat = 1;             // feature width: F for AC, G for CA

  /// Optional per-workload cache (see schedule_cache.hpp): reuses the cached
  /// adjacency transpose and lane schedules across candidates of a sweep.
  /// Must be bound to `graph`; null recomputes both fresh (identical
  /// results, just slower — the parity is covered by schedule_cache_test).
  const WorkloadContext* context = nullptr;

  LoopOrder order;  // permutation of {V, N, F}
  TileSizes tiles;  // t_g ignored

  std::size_t pes = 512;
  std::size_t bw_dist = AcceleratorConfig::kUnbounded;
  std::size_t bw_red = AcceleratorConfig::kUnbounded;
  /// RF capacity per PE in elements; see GemmPhaseConfig::rf_elements.
  std::size_t rf_elements = 16;

  /// SP-Optimized (AC): aggregated outputs stay in the PE register files for
  /// the Combination phase (no GB writes, no drain cycles).
  bool out_to_rf = false;
  /// SP-Optimized (CA): the B matrix (the intermediate produced by
  /// Combination) is read from the PE register files.
  bool b_from_rf = false;

  /// Spill overrides (Seq with an oversized intermediate): B streamed from
  /// DRAM (CA consumer) or Out drained to DRAM (AC producer). 0 = on-chip.
  std::size_t b_stream_bw = 0;
  std::size_t out_drain_bw = 0;
  bool b_in_dram = false;
  bool out_in_dram = false;

  TrafficCategory b_category = TrafficCategory::kInput;
  TrafficCategory out_category = TrafficCategory::kIntermediate;
  bool b_via_partition = false;
  bool out_via_partition = false;

  ChunkSpec chunks;
  /// kMatrixOut: AC producer (chunks over the produced V x F intermediate).
  /// kMatrixA:   CA consumer (chunks over the consumed intermediate, whose
  ///             rows the N loop indexes and whose columns are this phase's
  ///             feature axis).
  ChunkTarget chunk_target = ChunkTarget::kNone;

  void validate() const;
};

/// Simulates one sparse phase. A pure function of `cfg` and its graph
/// (`context` only supplies the transpose and lane schedules); the memoized
/// path is simulate_phase (omega/pipeline.hpp).
[[nodiscard]] PhaseResult run_spmm_phase(const SpmmPhaseConfig& cfg);

/// The config's memo key: every field above except `graph` and `context`
/// (w[19], the graph tag, is left 0).
[[nodiscard]] EvalTermKey term_key(const SpmmPhaseConfig& cfg);

}  // namespace omega
