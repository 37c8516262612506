#include "gnn/layers.hpp"

#include "graph/spmm.hpp"
#include "tensor/gemm.hpp"
#include "util/error.hpp"
#include "util/format.hpp"

namespace omega {

const char* to_string(GnnModel m) {
  switch (m) {
    case GnnModel::kGCN: return "GCN";
    case GnnModel::kGraphSAGE: return "GraphSAGE";
    case GnnModel::kGIN: return "GIN";
  }
  return "?";
}

GnnModel gnn_model_from_string(const std::string& s) {
  const std::string m = to_lower(s);
  if (m == "gcn") return GnnModel::kGCN;
  if (m == "sage" || m == "graphsage") return GnnModel::kGraphSAGE;
  if (m == "gin") return GnnModel::kGIN;
  throw InvalidArgumentError("unknown model arch: " + s);
}

GnnLayerSpec GnnModelSpec::layer_spec(std::size_t i) const {
  OMEGA_CHECK(i + 1 < feature_widths.size(), "layer index out of range");
  GnnLayerSpec spec;
  spec.model = model;
  spec.in_features = feature_widths[i];
  spec.out_features = feature_widths[i + 1];
  spec.relu = (i + 2 < feature_widths.size());  // no ReLU on the last layer
  return spec;
}

GnnModelSpec gcn_eval_model(std::size_t in_features, std::size_t hidden) {
  return GnnModelSpec{GnnModel::kGCN, {in_features, hidden}};
}

GnnModelSpec gcn_two_layer(std::size_t in_features, std::size_t hidden,
                           std::size_t classes) {
  return GnnModelSpec{GnnModel::kGCN, {in_features, hidden, classes}};
}

CSRGraph normalize_adjacency(const CSRGraph& raw, GnnModel model) {
  switch (model) {
    case GnnModel::kGCN:
      return raw.with_self_loops().gcn_normalized();
    case GnnModel::kGraphSAGE:
      return raw.with_self_loops().mean_normalized();
    case GnnModel::kGIN:
      // Sum aggregation; the (1+eps) self term becomes a self-loop of
      // weight 1 here (eps folded into the MLP weights).
      return raw.with_self_loops();
  }
  return raw;
}

void relu_inplace(MatrixF& m) {
  for (std::size_t r = 0; r < m.rows(); ++r) {
    float* row = m.row(r);
    for (std::size_t c = 0; c < m.cols(); ++c) row[c] = std::max(0.0f, row[c]);
  }
}

MatrixF reference_inference(const CSRGraph& adj, const MatrixF& x,
                            const std::vector<MatrixF>& weights,
                            const GnnModelSpec& spec) {
  OMEGA_CHECK(weights.size() == spec.num_layers(),
              "one weight matrix per layer required");
  MatrixF h = x;
  for (std::size_t l = 0; l < spec.num_layers(); ++l) {
    const GnnLayerSpec layer = spec.layer_spec(l);
    OMEGA_CHECK(weights[l].rows() == layer.in_features &&
                    weights[l].cols() == layer.out_features,
                "weight shape mismatch at layer " + std::to_string(l));
    h = gemm(spmm(adj, h), weights[l]);
    if (layer.relu) relu_inplace(h);
  }
  return h;
}

}  // namespace omega
