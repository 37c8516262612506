#include "omega/tiler.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "graph/stats.hpp"
#include "omega/omega.hpp"
#include "util/error.hpp"

namespace omega {

WorkloadDims dims_of(const GnnWorkload& w, const LayerSpec& layer) {
  WorkloadDims d;
  d.vertices = w.num_vertices();
  d.in_features = layer.in_features > 0 ? layer.in_features : w.in_features;
  d.out_features = layer.out_features;
  d.avg_degree = w.adjacency.avg_degree();
  d.max_degree = w.adjacency.max_degree();
  return d;
}

std::size_t pow2_floor(std::size_t x) {
  return x == 0 ? 1 : std::bit_floor(x);
}

std::size_t pow2_ceil(std::size_t x) {
  return x == 0 ? 1 : std::bit_ceil(x);
}

double static_utilization(const IntraPhaseDataflow& phase,
                          std::size_t phase_pes) {
  if (phase_pes == 0) return 0.0;
  return static_cast<double>(phase.spatial_extent()) /
         static_cast<double>(phase_pes);
}

namespace {

/// Splits a multiplicative PE budget between two dimensions: dim A is grown
/// toward `a_target` first, B fills the rest, then A reclaims any leftover.
/// All quantities are powers of two; caps bound the useful tile size.
struct TwoWaySplit {
  std::size_t a = 1;
  std::size_t b = 1;
};

TwoWaySplit split_two(std::size_t budget, std::size_t a_cap, std::size_t b_cap,
                      std::size_t a_target) {
  TwoWaySplit s;
  s.a = std::min({pow2_floor(a_cap), pow2_floor(std::max<std::size_t>(a_target, 1)),
                  budget});
  s.b = std::min(pow2_floor(b_cap), budget / s.a);
  s.a = std::min(pow2_floor(a_cap), budget / s.b);
  return s;
}

std::size_t style_v_target(TileStyle style, std::size_t budget) {
  switch (style) {
    case TileStyle::kBalanced: return 32;
    case TileStyle::kSpatialN: return 16;
    case TileStyle::kHighF: return 1;
    case TileStyle::kHighV: return std::max<std::size_t>(budget / 4, 1);
    case TileStyle::kExtremeV: return budget;
    case TileStyle::kLowRows: return 8;
    case TileStyle::kHighRows: return 16;
  }
  return 16;
}

TileSizes bind_agg_tiles(const DataflowPattern& pattern,
                         const WorkloadDims& dims, std::size_t budget) {
  TileSizes t;
  // The Aggregation feature axis spans F for AC but only G for CA (the
  // intermediate handed over is V x G; Table II row 7 note).
  const std::size_t agg_feat = pattern.phase_order == PhaseOrder::kCA
                                   ? dims.out_features
                                   : dims.in_features;
  const bool spatial_n = pattern.agg.tag_of(Dim::kN) == MapTag::kSpatial;
  if (spatial_n) {
    // Neighbor lanes sized toward the average degree but capped at 8: the
    // ceil(deg/T_N) rounding wastes a growing share of lanes as T_N
    // approaches the mean degree, while dense rows still gain most of the
    // spatial-reduction benefit from the first few lanes.
    const auto deg = static_cast<std::size_t>(
        std::llround(std::clamp(dims.avg_degree, 2.0, 8.0)));
    t.n = std::clamp<std::size_t>(pow2_ceil(deg), 2,
                                  std::max<std::size_t>(budget / 2, 2));
    t.n = std::min(t.n, pow2_ceil(std::max<std::size_t>(dims.max_degree, 2)));
  }
  const std::size_t rem = std::max<std::size_t>(budget / t.n, 1);
  if (pattern.style == TileStyle::kHighF) {
    const auto s = split_two(rem, agg_feat, dims.vertices, agg_feat);
    t.f = s.a;
    t.v = s.b;
  } else {
    const auto s = split_two(rem, dims.vertices, agg_feat,
                             style_v_target(pattern.style, rem));
    t.v = s.a;
    t.f = s.b;
  }
  // Respect explicit temporal tags.
  if (pattern.agg.tag_of(Dim::kV) == MapTag::kTemporal) t.v = 1;
  if (pattern.agg.tag_of(Dim::kF) == MapTag::kTemporal) t.f = 1;
  if (pattern.agg.tag_of(Dim::kN) == MapTag::kTemporal) t.n = 1;
  return t;
}

TileSizes bind_cmb_tiles(const DataflowPattern& pattern,
                         const WorkloadDims& dims, std::size_t budget,
                         const TileSizes& agg_tiles) {
  TileSizes t;
  if (pattern.inter == InterPhase::kSPOptimized) {
    // Table II row 2: the intermediate tile is shared, so V/F tiles match
    // the Aggregation phase and G streams temporally over it.
    t.v = agg_tiles.v;
    t.f = agg_tiles.f;
    t.g = 1;
    return t;
  }
  const bool v_spatial_required = pattern.cmb.tag_of(Dim::kV) == MapTag::kSpatial;
  if (pattern.style == TileStyle::kHighRows || v_spatial_required) {
    // PP3/PP4: give V the budget first -> coarse pipeline rows.
    const std::size_t v_target = pattern.style == TileStyle::kHighRows
                                     ? budget
                                     : style_v_target(pattern.style, budget);
    const auto s = split_two(budget, dims.vertices, dims.out_features, v_target);
    t.v = s.a;
    t.g = s.b;
  } else {
    // VGF-style output-stationary: spatial G (bounded by the small hidden
    // width) and V.
    const auto s = split_two(budget, dims.out_features, dims.vertices,
                             std::min<std::size_t>(dims.out_features, 16));
    t.g = s.a;
    t.v = s.b;
  }
  // Leftover parallelism goes to F (spatially reduced partial products).
  const std::size_t used = t.v * t.g;
  if (used > 0 && pattern.cmb.tag_of(Dim::kF) != MapTag::kTemporal) {
    t.f = std::min(pow2_floor(dims.in_features),
                   std::max<std::size_t>(budget / used, 1));
  }
  if (pattern.cmb.tag_of(Dim::kV) == MapTag::kTemporal) t.v = 1;
  if (pattern.cmb.tag_of(Dim::kG) == MapTag::kTemporal) t.g = 1;
  if (pattern.cmb.tag_of(Dim::kF) == MapTag::kTemporal) t.f = 1;
  return t;
}

}  // namespace

DataflowDescriptor bind_tiles(const DataflowPattern& pattern,
                              const WorkloadDims& dims,
                              const AcceleratorConfig& hw) {
  OMEGA_CHECK(dims.vertices >= 1 && dims.in_features >= 1 &&
                  dims.out_features >= 1,
              "workload dims must be positive");
  hw.validate();

  std::size_t pes_agg = hw.num_pes;
  std::size_t pes_cmb = hw.num_pes;
  if (pattern.inter == InterPhase::kParallelPipeline) {
    // Bind-time validation (the pattern struct is plain data, so this is
    // the first place a bad fraction can be caught): 0 or 1 would starve a
    // phase of its tile budget below, and a NaN would reach llround —
    // undefined behavior.
    if (!(pattern.pp_agg_pe_fraction > 0.0 &&
          pattern.pp_agg_pe_fraction < 1.0)) {
      throw ResourceError(
          pattern.name + " (" + pattern.to_string() +
          "): pp_agg_pe_fraction must lie strictly inside (0, 1); 0, 1 or "
          "NaN would starve a phase of PEs before the allocation clamp");
    }
    if (hw.num_pes < 2) {
      throw ResourceError(pattern.name + " (" + pattern.to_string() +
                          "): parallel pipeline needs >= 2 PEs to split the "
                          "array between the phases");
    }
    pes_agg = pp_first_pes(hw.num_pes, pattern.pp_agg_pe_fraction);
    pes_cmb = hw.num_pes - pes_agg;
  }

  DataflowDescriptor df;
  df.inter = pattern.inter;
  df.phase_order = pattern.phase_order;
  df.pp_agg_pe_fraction = pattern.pp_agg_pe_fraction;
  df.agg.phase = GnnPhase::kAggregation;
  df.agg.order = pattern.agg.order;
  df.cmb.phase = GnnPhase::kCombination;
  df.cmb.order = pattern.cmb.order;

  // Power-of-two budgets keep tile products exact.
  df.agg.tiles = bind_agg_tiles(pattern, dims, pow2_floor(pes_agg));
  df.cmb.tiles = bind_cmb_tiles(pattern, dims, pow2_floor(pes_cmb),
                                df.agg.tiles);
  df.validate();
  return df;
}

}  // namespace omega
