// Complete GNN dataflow descriptor (Section III-C):
//
//     <Inter><order>(<AggIntra>, <CmbIntra>)
//
// plus the hand-off analysis of the paper's Table II: which intra-phase loop
// order pairs can be pipelined, and at what granularity (element / row /
// column). The rules built on it, SP-Optimized's included, live in one
// place, check_pipeline (omega/pipeline.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "dataflow/intra.hpp"

namespace omega {

/// Inter-phase strategy (Section III-B). SP-Generic stages Pel elements of
/// the intermediate through the global buffer; SP-Optimized keeps them in
/// the PE register files (Table II rows 2-3).
enum class InterPhase : std::uint8_t {
  kSequential = 0,
  kSPGeneric = 1,
  kSPOptimized = 2,
  kParallelPipeline = 3,
};

/// Pipelining granularity of the intermediate matrix (Section IV-D).
enum class Granularity : std::uint8_t {
  kElement = 0,
  kRow = 1,
  kColumn = 2,
  kNone = 3,  // Seq and SP-Optimized do not stage chunks through a buffer
};

[[nodiscard]] const char* to_string(InterPhase ip);
[[nodiscard]] const char* to_string(Granularity g);

/// Traversal major of the intermediate matrix: rows first (V-major for AC)
/// or columns first (F-major for AC). Producer and consumer must agree for
/// pipelined hand-off to be possible.
enum class TraversalMajor : std::uint8_t { kRowMajor = 0, kColumnMajor = 1 };

/// Result of analyzing whether an (Agg, Cmb) loop-order pair can be
/// pipelined, and at which granularity. `feasible == false` comes with a
/// human-readable reason (used in error messages and the Table II bench).
struct PipelineAnalysis {
  bool feasible = false;
  Granularity granularity = Granularity::kNone;
  TraversalMajor major = TraversalMajor::kRowMajor;
  std::string reason;
};

/// Analyzes pipelined hand-off feasibility for a loop-order pair under a
/// phase order, independent of tile sizes (Table II rows 4-9): analyze_handoff
/// on the roles of the lowered pair (omega/pipeline.cpp).
[[nodiscard]] PipelineAnalysis analyze_pipeline(const LoopOrder& agg,
                                                const LoopOrder& cmb,
                                                PhaseOrder order);

/// One side of an intermediate hand-off, expressed in the phase's own loop
/// vocabulary: which of its dims index the intermediate's rows and columns,
/// and which is its "third" loop (the contraction for a producer, the
/// streamed/output dim for a consumer). The N-phase pipeline API
/// (omega/pipeline.hpp) derives a HandoffRole per phase and engine kind;
/// the classic two-phase analyze_pipeline() is a wrapper over this.
struct HandoffRole {
  LoopOrder order;
  Dim row = Dim::kV;
  Dim col = Dim::kF;
  Dim third = Dim::kN;
};

/// Generalized Table II feasibility analysis for one adjacent phase pair:
/// each role must complete intermediate units (elements / rows / columns)
/// in a traversal order the other side can consume, and the two traversal
/// majors must agree.
[[nodiscard]] PipelineAnalysis analyze_handoff(const HandoffRole& producer,
                                               const HandoffRole& consumer);

/// The complete dataflow description.
struct DataflowDescriptor {
  InterPhase inter = InterPhase::kSequential;
  PhaseOrder phase_order = PhaseOrder::kAC;
  IntraPhaseDataflow agg;  // phase == kAggregation
  IntraPhaseDataflow cmb;  // phase == kCombination

  /// Fraction of PEs given to Aggregation under PP (Fig. 14's 25-75 /
  /// 50-50 / 75-25 sweeps); ignored by the other inter-phase strategies.
  double pp_agg_pe_fraction = 0.5;

  /// Granularity implied by the loop orders (kNone for Seq / SP-Optimized).
  [[nodiscard]] Granularity granularity() const;

  /// Number of intermediate elements pipelined per step (Pel, Table III),
  /// given the extents of the intermediate matrix. `rows`/`cols` are the
  /// intermediate dims: V x F for AC, V x G for CA.
  [[nodiscard]] std::size_t pipeline_elements(std::size_t rows,
                                              std::size_t cols) const;

  /// Intermediate buffering requirement in elements (Table III):
  /// Seq: rows*cols, SP-Generic: Pel, SP-Optimized: 0, PP: 2*Pel.
  [[nodiscard]] std::size_t intermediate_buffer_elements(
      std::size_t rows, std::size_t cols) const;

  /// Max tile size across phases for the intermediate row dimension
  /// (T_Vmax in the paper; for CA the consumer side indexes rows by N).
  [[nodiscard]] std::size_t t_row_max() const;
  /// Max tile size across phases for the intermediate column dimension
  /// (T_Fmax for AC; T_G/T_F_AGG for CA).
  [[nodiscard]] std::size_t t_col_max() const;

  /// Paper notation, e.g. "PP_AC(VtFsNt, VsGsFt)".
  [[nodiscard]] std::string to_string() const;

  /// Parses the canonical notation produced by to_string().
  static DataflowDescriptor parse(const std::string& text);

  /// The Table II spec rules: intra-phase validity, inter-phase loop-order
  /// feasibility, SP-Optimized tile/reduction constraints, PP fraction.
  /// Throws InvalidDataflowError "<to_string()>: <reason>" on violation.
  /// Defined with the rules in omega/pipeline.cpp: the descriptor is lowered
  /// as two_phase_pipeline lowers it and checked by check_pipeline.
  void validate() const;

  /// Like validate() but returns the failure reason instead of throwing.
  [[nodiscard]] std::optional<std::string> validation_error() const;
};

}  // namespace omega
