#include "engine/spmm_engine.hpp"

#include <algorithm>
#include <bit>

#include "util/error.hpp"
#include "util/saturate.hpp"

namespace omega {

namespace {

/// Splits `total_cycles` across `n` chunks so that partial sums follow the
/// cumulative step profile `cum_steps(i)` (monotone, last == critical
/// path), passing each chunk's share to `emit(cycles)` in order.
/// Exact integer proportioning (128-bit multiply, then divide): chunk
/// timelines are bit-identical across platforms and never drop cycles to
/// floating-point rounding; the final chunk absorbs the division remainder.
template <typename CumSteps, typename Emit>
void scale_chunks(std::size_t n, const CumSteps& cum_steps,
                  std::uint64_t critical_path, std::uint64_t total_cycles,
                  const Emit& emit) {
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t cum =
        critical_path == 0
            ? total_cycles
            : static_cast<std::uint64_t>(
                  // omega-lint: allow(raw-arith): exact 128-bit proportioning, quotient <= total_cycles
                  static_cast<unsigned __int128>(cum_steps(i)) * total_cycles /
                  critical_path);
    const std::uint64_t clamped = i + 1 == n ? total_cycles
                                             : std::min(cum, total_cycles);
    emit(clamped - prev);
    prev = clamped;
  }
}

}  // namespace

EvalTermKey term_key(const SpmmPhaseConfig& cfg) {
  EvalTermKey k;
  k.w = {1ull,  // engine tag
         pack_order(cfg.order),
         cfg.feat,
         cfg.tiles.v,
         cfg.tiles.n,
         cfg.tiles.f,
         cfg.pes,
         cfg.bw_dist,
         cfg.bw_red,
         cfg.rf_elements,
         cfg.b_stream_bw,
         cfg.out_drain_bw,
         static_cast<std::uint64_t>(cfg.out_to_rf) << 5 |
             static_cast<std::uint64_t>(cfg.b_from_rf) << 4 |
             static_cast<std::uint64_t>(cfg.b_in_dram) << 3 |
             static_cast<std::uint64_t>(cfg.out_in_dram) << 2 |
             static_cast<std::uint64_t>(cfg.b_via_partition) << 1 |
             static_cast<std::uint64_t>(cfg.out_via_partition),
         static_cast<std::uint64_t>(cfg.b_category) << 8 |
             static_cast<std::uint64_t>(cfg.out_category),
         static_cast<std::uint64_t>(cfg.chunk_target) << 8 |
             static_cast<std::uint64_t>(cfg.chunks.major),
         cfg.chunks.rows,
         cfg.chunks.cols,
         cfg.chunks.row_block,
         cfg.chunks.col_block,
         0,  // graph tag (see EvalTermKey)
         0,
         0};
  return k;
}

void SpmmPhaseConfig::validate() const {
  OMEGA_CHECK(graph != nullptr, "SpMM phase needs a graph");
  order.validate(GnnPhase::kAggregation);
  OMEGA_CHECK(feat >= 1, "feature width must be >= 1");
  OMEGA_CHECK(pes >= 1, "phase needs at least one PE");
  OMEGA_CHECK(bw_dist >= 1 && bw_red >= 1, "bandwidth must be >= 1");
  const std::size_t v = graph->num_vertices();
  const std::size_t spatial = std::min(tiles.v, std::max<std::size_t>(v, 1)) *
                              tiles.n * std::min(tiles.f, feat);
  OMEGA_CHECK(spatial <= pes,
              "spatial tile footprint exceeds the PEs allocated to the phase");
}

PhaseResult run_spmm_phase(const SpmmPhaseConfig& cfg) {
  cfg.validate();
  const CSRGraph& g = *cfg.graph;
  const std::size_t v_extent = g.num_vertices();
  const std::uint64_t edges = g.num_edges();

  const std::size_t dv = cfg.order.depth_of(Dim::kV);
  const std::size_t dn = cfg.order.depth_of(Dim::kN);
  const std::size_t df = cfg.order.depth_of(Dim::kF);
  const bool gather = dv < dn;  // vertex lanes walk their own rows
  // Scatter orders walk the reverse adjacency and push into outputs.
  const bool f_outside_lanes = gather ? df < dn : df < dv;
  const bool f_outside_rows = gather ? df < dv : df < dn;

  // In gather mode T_V spans walked rows and T_N the in-row lanes; scatter
  // swaps the roles (T_N spans intermediate rows, T_V the push lanes).
  const std::size_t lanes =
      std::min(gather ? std::max<std::size_t>(cfg.tiles.v, 1)
                      : std::max<std::size_t>(cfg.tiles.n, 1),
               std::max<std::size_t>(v_extent, 1));
  const std::size_t lane_width =
      gather ? std::max<std::size_t>(cfg.tiles.n, 1)
             : std::max<std::size_t>(cfg.tiles.v, 1);
  const std::size_t tf = std::min(std::max<std::size_t>(cfg.tiles.f, 1), cfg.feat);
  const std::uint64_t c_f = ceil_div(cfg.feat, tf);

  // Resolve the walked adjacency and its base (c_f == 1) lane schedule —
  // through the per-workload memo when a context is attached, fresh
  // otherwise. Schedule quantities are scaled by c_f at their use sites;
  // the scaling is exact, so both paths produce identical results.
  LaneSchedule local_sched;
  std::shared_ptr<const LaneSchedule> cached_sched;
  std::shared_ptr<const CSRGraph> local_transpose;
  const LaneSchedule* base = nullptr;
  if (cfg.context != nullptr) {
    cached_sched = cfg.context->lane_schedule(gather, lanes, lane_width);
    base = cached_sched.get();
  } else {
    const CSRGraph* walk = &g;
    if (!gather) {
      local_transpose = std::make_shared<const CSRGraph>(g.transposed());
      walk = local_transpose.get();
    }
    local_sched = build_lane_schedule(*walk, lanes, lane_width);
    base = &local_sched;
  }
  const std::uint64_t critical_path = base->critical_path * c_f;
  const std::uint64_t base_total_steps = base->total_steps;  // c_f == 1

  const bool weighted = g.has_values();
  const std::uint64_t id_words = weighted ? 2 : 1;

  const std::size_t b_bw = cfg.b_stream_bw > 0 ? cfg.b_stream_bw : cfg.bw_dist;
  const std::size_t out_bw =
      cfg.out_drain_bw > 0 ? cfg.out_drain_bw : cfg.bw_red;

  PhaseResult r;
  const std::size_t tree_in = gather && lane_width > 1 ? lane_width : 1;
  r.fill_cycles = 2 + static_cast<std::uint64_t>(std::bit_width(tree_in) - 1);
  r.issue_steps = critical_path;
  r.macs = edges * cfg.feat;
  r.active_pe_cycles = r.macs;

  // ---- Traffic (exact totals; see DESIGN.md cost-model semantics) --------

  // B matrix: gather fetches one element per (edge, feature); scatter
  // multicasts each walked row slice once per lane-chunk step.
  std::uint64_t b_elems = 0;
  if (gather) {
    b_elems = edges * cfg.feat;
  } else {
    b_elems = base_total_steps * cfg.feat;  // sum of trips * Feat
  }
  if (cfg.b_from_rf) {
    r.traffic.rf.reads += b_elems;
  } else if (cfg.b_in_dram) {
    r.traffic.dram.reads += b_elems;
    r.traffic.rf.writes += b_elems;
  } else if (cfg.b_via_partition) {
    r.traffic.intermediate_partition.reads += b_elems;
    r.traffic.rf.writes += b_elems;
  } else {
    r.traffic.gb_for(cfg.b_category).reads += b_elems;
    r.traffic.rf.writes += b_elems;
  }

  // CSR metadata: edge ids (+ values) per row walk; rewalked per feature
  // tile when the F loop encloses the lane loop. Row pointers per walk.
  const std::uint64_t id_elems =
      edges * id_words * (f_outside_lanes ? c_f : 1);
  const std::uint64_t ptr_elems =
      static_cast<std::uint64_t>(v_extent) * (f_outside_rows ? c_f : 1);
  r.traffic.gb_for(TrafficCategory::kAdjacency).reads += id_elems + ptr_elems;

  // Outputs.
  const std::uint64_t out_total =
      static_cast<std::uint64_t>(v_extent) * cfg.feat;
  std::uint64_t psum_pairs = 0;  // spill+reload pairs (elements)
  std::uint64_t scatter_rmw = 0;
  if (gather) {
    // RF-resident partial sums: with F inside the lane loop (VNF) each lane
    // must keep the whole feature row live between neighbor chunks.
    const std::uint64_t covered_f = f_outside_lanes ? tf : cfg.feat;
    const std::uint64_t live_per_pe =
        ceil_div(covered_f, static_cast<std::uint64_t>(lane_width) * tf);
    const bool psums_fit =
        live_per_pe <= std::max<std::size_t>(cfg.rf_elements / 2, 1);
    if (!f_outside_lanes && !psums_fit) {
      // One spill+reload per non-final neighbor chunk per feature element.
      psum_pairs =
          (base_total_steps - static_cast<std::uint64_t>(v_extent)) * cfg.feat;
      r.traffic.gb_for(TrafficCategory::kPsum).writes += psum_pairs;
      r.traffic.gb_for(TrafficCategory::kPsum).reads += psum_pairs;
      r.traffic.rf.reads += psum_pairs;
      r.traffic.rf.writes += psum_pairs;
    }
    if (cfg.out_to_rf) {
      r.traffic.rf.writes += out_total;
    } else if (cfg.out_in_dram) {
      r.traffic.dram.writes += out_total;
    } else if (cfg.out_via_partition) {
      r.traffic.intermediate_partition.writes += out_total;
    } else {
      r.traffic.gb_for(cfg.out_category).writes += out_total;
    }
  } else {
    // Scatter accumulation: every (edge, feature) update is a GB
    // read-modify-write except each element's first touch; the final value
    // is the output write.
    scatter_rmw = r.macs > out_total ? r.macs - out_total : 0;
    r.traffic.gb_for(TrafficCategory::kPsum).reads += scatter_rmw;
    r.traffic.gb_for(TrafficCategory::kPsum).writes += scatter_rmw;
    if (cfg.out_in_dram) r.traffic.dram.writes += out_total;
    else if (cfg.out_via_partition)
      r.traffic.intermediate_partition.writes += out_total;
    else r.traffic.gb_for(cfg.out_category).writes += out_total;
  }

  // RF accounting: operand reads + accumulator read-modify-write per MAC.
  r.traffic.rf.reads += sat_mul_u64(3, r.macs);
  r.traffic.rf.writes += r.macs;

  // ---- Cycles: critical path vs throughput bounds -------------------------

  std::uint64_t gb_stream = id_elems + ptr_elems;
  if (!cfg.b_from_rf && !cfg.b_in_dram) gb_stream += b_elems;
  std::uint64_t red_volume = scatter_rmw * 2;
  if (!gather) red_volume += out_total;
  std::uint64_t drain_volume = gather && !cfg.out_to_rf ? out_total : 0;

  std::uint64_t cycles = critical_path;
  cycles = std::max(cycles, ceil_div(gb_stream, cfg.bw_dist));
  if (cfg.b_in_dram) cycles = std::max(cycles, ceil_div(b_elems, b_bw));
  cycles = std::max(cycles, ceil_div(red_volume, cfg.bw_red));
  if (drain_volume > 0) {
    cycles = std::max(
        cycles, ceil_div(drain_volume, cfg.out_in_dram ? out_bw : cfg.bw_red));
  }
  r.stall_cycles = cycles - critical_path;

  // Partial-sum spills serialize on top of the streaming steady state.
  r.psum_cycles =
      ceil_div(psum_pairs, cfg.bw_red) + ceil_div(psum_pairs, cfg.bw_dist);
  cycles = sat_add_u64(cycles, sat_add_u64(r.psum_cycles, r.fill_cycles));
  r.cycles = cycles;

  // ---- Chunk timeline ------------------------------------------------------
  // Built in run-length form, straight from the step profile: lane
  // traversal produces chunks in grid order, so completions are the prefix
  // sums of the per-chunk durations — the same runs, read as increments.

  auto finish = [&]() -> PhaseResult {
    r.chunk_cycles.shrink_to_fit();
    r.chunk_completion = r.chunk_cycles.back_to_back_completions();
    return r;
  };

  const std::size_t num_chunks =
      cfg.chunk_target == ChunkTarget::kNone ? 1 : cfg.chunks.num_chunks();
  if (num_chunks <= 1) {
    r.chunk_cycles.append(r.cycles);
    return finish();
  }

  const std::size_t row_blocks = cfg.chunks.row_blocks();
  const std::size_t col_blocks = cfg.chunks.col_blocks();
  if (cfg.chunks.major == TraversalMajor::kColumnMajor || row_blocks == 1) {
    // Column-granular (or single row block): each of the num_chunks passes
    // covers the same rows; durations are uniform.
    r.chunk_cycles.reserve(num_chunks);
    scale_chunks(
        num_chunks,
        [&](std::size_t i) { return critical_path * (i + 1) / num_chunks; },
        critical_path, r.cycles,
        [&](std::uint64_t c) { r.chunk_cycles.append(c); });
    return finish();
  }

  // Row-major chunks: completion of a row block is the slowest lane's
  // finish over its rows — the schedule's prefix max at the block's last
  // row, O(row_blocks) instead of a rescan of all V rows per candidate.
  // Element granularity splits each row block evenly across its column
  // chunks. Blocks past the last row complete with their predecessor (the
  // prefix max is monotone, so the clamp covers them).
  const std::size_t row_block =
      std::min(cfg.chunks.row_block, std::max<std::size_t>(v_extent, 1));
  const auto block_cum = [&](std::size_t b) -> std::uint64_t {
    if (v_extent == 0) return 0;
    const std::size_t last =
        std::min((b + 1) * row_block, std::size_t{v_extent}) - 1;
    return base->row_finish_prefix[b + 1 == row_blocks ? v_extent - 1
                                                       : last] *
           c_f;
  };
  // Split each row block's cycles evenly over its column chunks: the first
  // col_blocks - r chunks get q, the rest q + 1 (q, r = divmod), which is
  // exactly the successive floor(rem / remaining) distribution.
  r.chunk_cycles.reserve(2 * row_blocks);
  scale_chunks(row_blocks, block_cum, critical_path, r.cycles,
               [&](std::uint64_t block_cycles) {
                 const std::uint64_t q = block_cycles / col_blocks;
                 const std::size_t rmd =
                     static_cast<std::size_t>(block_cycles % col_blocks);
                 r.chunk_cycles.append(q, col_blocks - rmd);
                 r.chunk_cycles.append(q + 1, rmd);
               });
  return finish();
}

}  // namespace omega
