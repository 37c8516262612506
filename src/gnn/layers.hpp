// GNN model layer specifications (Section II-A): GCN, GraphSAGE and GIN all
// decompose into Aggregation + Combination; they differ in the adjacency
// normalization, the allowed phase orders, and small epilogue details that
// do not affect the dataflow cost model.
#pragma once

#include <string>
#include <vector>

#include "graph/csr.hpp"
#include "omega/tiler.hpp"
#include "tensor/matrix.hpp"

namespace omega {

enum class GnnModel : std::uint8_t { kGCN = 0, kGraphSAGE = 1, kGIN = 2 };

[[nodiscard]] const char* to_string(GnnModel m);
/// Case-insensitive "gcn", "sage" (or "graphsage") or "gin"; throws
/// InvalidArgumentError otherwise.
[[nodiscard]] GnnModel gnn_model_from_string(const std::string& s);

/// One layer of a GNN: feature widths plus the aggregation semantics.
struct GnnLayerSpec {
  GnnModel model = GnnModel::kGCN;
  std::size_t in_features = 0;   // F
  std::size_t out_features = 0;  // G
  bool relu = true;

  /// GCN admits both phase orders (A(XW) == (AX)W); GraphSAGE aggregates
  /// before combining (Section II-A), pinning the order to AC.
  [[nodiscard]] bool allows_phase_order(PhaseOrder order) const {
    if (model == GnnModel::kGraphSAGE) return order == PhaseOrder::kAC;
    return true;
  }

  [[nodiscard]] LayerSpec layer() const {
    return LayerSpec{out_features, in_features};
  }
};

/// Multi-layer model description (e.g. the classic 2-layer GCN: F -> 16 ->
/// #classes).
struct GnnModelSpec {
  GnnModel model = GnnModel::kGCN;
  std::vector<std::size_t> feature_widths;  // layer i: widths[i] -> widths[i+1]

  [[nodiscard]] std::size_t num_layers() const {
    return feature_widths.size() < 2 ? 0 : feature_widths.size() - 1;
  }
  [[nodiscard]] GnnLayerSpec layer_spec(std::size_t i) const;
};

/// The paper's evaluation model: single GCN layer, hidden width 16.
[[nodiscard]] GnnModelSpec gcn_eval_model(std::size_t in_features,
                                          std::size_t hidden = 16);
/// Classic 2-layer GCN for end-to-end inference tests.
[[nodiscard]] GnnModelSpec gcn_two_layer(std::size_t in_features,
                                         std::size_t hidden,
                                         std::size_t classes);

/// Adjacency pre-normalization per model: GCN uses symmetric D^-1/2(A+I)D^-1/2,
/// GraphSAGE mean-normalizes rows, GIN sums (1+eps fused into weights).
[[nodiscard]] CSRGraph normalize_adjacency(const CSRGraph& raw, GnnModel model);

/// Reference multi-layer inference (dense kernels + ReLU), the ground truth
/// for the dataflow engines' functional mode.
[[nodiscard]] MatrixF reference_inference(const CSRGraph& adj, const MatrixF& x,
                                          const std::vector<MatrixF>& weights,
                                          const GnnModelSpec& spec);

/// ReLU in place.
void relu_inplace(MatrixF& m);

}  // namespace omega
