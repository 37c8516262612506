#include "engine/gemm_engine.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

#include "util/error.hpp"
#include "util/saturate.hpp"

namespace omega {

namespace {

struct LoopInfo {
  Dim dim;
  std::size_t extent = 1;
  std::size_t tile = 1;
  std::size_t count = 1;  // ceil(extent / tile)
};

std::size_t actual_tile(const LoopInfo& l, std::size_t idx) {
  const std::size_t base = idx * l.tile;
  return std::min(l.tile, l.extent - base);
}

/// Deepest loop depth indexing the operand with more than one tile;
/// -1 if the operand never needs re-fetching after the initial load.
int deepest_effective_level(const std::array<LoopInfo, 3>& loops, bool uses_v,
                            bool uses_f, bool uses_g) {
  int level = -1;
  for (int d = 0; d < 3; ++d) {
    const bool uses = (loops[static_cast<std::size_t>(d)].dim == Dim::kV && uses_v) ||
                      (loops[static_cast<std::size_t>(d)].dim == Dim::kF && uses_f) ||
                      (loops[static_cast<std::size_t>(d)].dim == Dim::kG && uses_g);
    if (uses && loops[static_cast<std::size_t>(d)].count > 1) level = d;
  }
  return level;
}

}  // namespace

void GemmPhaseConfig::validate() const {
  order.validate(GnnPhase::kCombination);
  OMEGA_CHECK(rows >= 1 && inner >= 1 && cols >= 1, "extents must be >= 1");
  OMEGA_CHECK(pes >= 1, "phase needs at least one PE");
  OMEGA_CHECK(bw_dist >= 1 && bw_red >= 1, "bandwidth must be >= 1");
  const std::size_t spatial =
      std::min(tiles.v, rows) * std::min(tiles.f, inner) * std::min(tiles.g, cols);
  OMEGA_CHECK(spatial <= pes,
              "spatial tile footprint exceeds the PEs allocated to the phase");
}

EvalTermKey term_key(const GemmPhaseConfig& cfg) {
  EvalTermKey k;
  k.w = {2ull,  // engine tag
         pack_order(cfg.order),
         cfg.rows,
         cfg.inner,
         cfg.cols,
         cfg.tiles.v,
         cfg.tiles.f,
         cfg.tiles.g,
         cfg.pes,
         cfg.bw_dist,
         cfg.bw_red,
         cfg.rf_elements,
         cfg.a_stream_bw,
         cfg.out_drain_bw,
         static_cast<std::uint64_t>(cfg.a_from_rf) << 5 |
             static_cast<std::uint64_t>(cfg.out_to_rf) << 4 |
             static_cast<std::uint64_t>(cfg.a_in_dram) << 3 |
             static_cast<std::uint64_t>(cfg.out_in_dram) << 2 |
             static_cast<std::uint64_t>(cfg.a_via_partition) << 1 |
             static_cast<std::uint64_t>(cfg.out_via_partition),
         static_cast<std::uint64_t>(cfg.a_category) << 16 |
             static_cast<std::uint64_t>(cfg.b_category) << 8 |
             static_cast<std::uint64_t>(cfg.out_category),
         static_cast<std::uint64_t>(cfg.chunk_target) << 8 |
             static_cast<std::uint64_t>(cfg.chunks.major),
         cfg.chunks.rows,
         cfg.chunks.cols,
         cfg.chunks.row_block,
         cfg.chunks.col_block,
         0};
  return k;
}

PhaseResult run_gemm_phase(const GemmPhaseConfig& cfg) {
  cfg.validate();

  // Clamp tiles to extents so degenerate dims do not inflate the footprint.
  const std::size_t tv = std::min(cfg.tiles.v, cfg.rows);
  const std::size_t tf = std::min(cfg.tiles.f, cfg.inner);
  const std::size_t tg = std::min(cfg.tiles.g, cfg.cols);

  std::array<LoopInfo, 3> loops;
  for (std::size_t d = 0; d < 3; ++d) {
    const Dim dim = cfg.order.at(d);
    LoopInfo info;
    info.dim = dim;
    switch (dim) {
      case Dim::kV: info.extent = cfg.rows; info.tile = tv; break;
      case Dim::kF: info.extent = cfg.inner; info.tile = tf; break;
      case Dim::kG: info.extent = cfg.cols; info.tile = tg; break;
      case Dim::kN: throw InvalidDataflowError("GEMM phase cannot loop over N");
    }
    info.count = ceil_div(info.extent, info.tile);
    loops[d] = info;
  }

  const int la = deepest_effective_level(loops, true, true, false);  // A{V,F}
  const int lb = deepest_effective_level(loops, false, true, true);  // B{F,G}

  const std::size_t f_depth = cfg.order.depth_of(Dim::kF);
  const std::size_t c_f = loops[f_depth].count;

  const std::size_t a_bw = cfg.a_stream_bw > 0 ? cfg.a_stream_bw : cfg.bw_dist;
  const std::size_t out_bw = cfg.out_drain_bw > 0 ? cfg.out_drain_bw : cfg.bw_red;

  // RF-resident partial sums: between increments of the contraction (F)
  // loop, each PE must keep one accumulator per output element it covers
  // across all output tiles swept by the loops *inside* F. If that live set
  // fits in half the RF, accumulators persist and no psum spill happens.
  const std::size_t f_depth_raw = cfg.order.depth_of(Dim::kF);
  std::uint64_t covered_v = tv;
  std::uint64_t covered_g = tg;
  if (cfg.order.depth_of(Dim::kV) > f_depth_raw) covered_v = cfg.rows;
  if (cfg.order.depth_of(Dim::kG) > f_depth_raw) covered_g = cfg.cols;
  const std::uint64_t tile_pes =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(tv) * tf * tg);
  const std::uint64_t live_psums_per_pe =
      ceil_div(covered_v * covered_g, tile_pes);
  const bool psums_fit_in_rf =
      live_psums_per_pe <= std::max<std::size_t>(cfg.rf_elements / 2, 1);

  PhaseResult r;
  const std::size_t num_chunks =
      cfg.chunk_target == ChunkTarget::kNone ? 1 : cfg.chunks.num_chunks();
  r.chunk_cycles.assign(num_chunks, 0);
  r.chunk_completion.assign(num_chunks, 0);
  std::size_t last_chunk_touched = 0;

  // One-time fill: distribution latency + spatial-reduction tree depth.
  const std::size_t tree_in = tf > 1 ? tf : 1;
  r.fill_cycles =
      2 + static_cast<std::uint64_t>(std::bit_width(tree_in) - 1);

  auto charge_a_read = [&](std::uint64_t elems) {
    if (cfg.a_from_rf) {
      r.traffic.rf.reads += elems;
      return;
    }
    if (cfg.a_in_dram) r.traffic.dram.reads += elems;
    else if (cfg.a_via_partition)
      r.traffic.intermediate_partition.reads += elems;
    else r.traffic.gb_for(cfg.a_category).reads += elems;
    r.traffic.rf.writes += elems;  // latched into PE registers
  };
  auto charge_b_read = [&](std::uint64_t elems) {
    r.traffic.gb_for(cfg.b_category).reads += elems;
    r.traffic.rf.writes += elems;
  };

  // Per-step tracking of the current output tile visit.
  std::size_t prev_iv = std::numeric_limits<std::size_t>::max();
  std::size_t prev_ig = std::numeric_limits<std::size_t>::max();
  std::size_t prev_out_elems = 0;
  bool prev_out_final = false;

  auto flush_out_visit = [&](std::uint64_t* sink_cycles) {
    // Called when the (iv, ig) output tile changes or the nest ends; charges
    // the drain of the visit that just finished.
    if (prev_iv == std::numeric_limits<std::size_t>::max()) return;
    const std::uint64_t elems = prev_out_elems;
    if (prev_out_final) {
      if (cfg.out_to_rf) {
        r.traffic.rf.writes += elems;
        // Result stays resident: no drain cycles.
      } else {
        if (cfg.out_in_dram) r.traffic.dram.writes += elems;
        else if (cfg.out_via_partition)
          r.traffic.intermediate_partition.writes += elems;
        else r.traffic.gb_for(cfg.out_category).writes += elems;
        const std::uint64_t cost = ceil_div(elems, out_bw);
        r.stall_cycles = sat_add_u64(r.stall_cycles, cost);
        *sink_cycles = sat_add_u64(*sink_cycles, cost);
      }
    } else if (!psums_fit_in_rf) {
      // Partial-sum spill: accumulators evicted to the GB psum region.
      r.traffic.gb_for(TrafficCategory::kPsum).writes += elems;
      r.traffic.rf.reads += elems;
      const std::uint64_t cost = ceil_div(elems, cfg.bw_red);
      r.psum_cycles = sat_add_u64(r.psum_cycles, cost);
      *sink_cycles = sat_add_u64(*sink_cycles, cost);
    }
    // Otherwise the partial sums stay live in the PE register files.
  };

  const std::size_t c0 = loops[0].count;
  const std::size_t c1 = loops[1].count;
  const std::size_t c2 = loops[2].count;

  // ---- Hot-nest precomputation -------------------------------------------
  // This loop runs V*F*G / (tv*tf*tg) iterations per candidate — the hottest
  // loop of a design-space sweep — so everything that only changes at tile
  // boundaries is hoisted: actual tile sizes take two values per dim (full,
  // last remainder), streaming costs take at most four values per operand,
  // and the pipeline chunk index decomposes into precomputed per-dim
  // contributions (no division inside the nest).
  const std::size_t lv = cfg.order.depth_of(Dim::kV);
  const std::size_t lg = cfg.order.depth_of(Dim::kG);
  const std::size_t cv_cnt = loops[lv].count;
  const std::size_t cg_cnt = loops[lg].count;
  const std::size_t av_full = loops[lv].tile;
  const std::size_t af_full = loops[f_depth].tile;
  const std::size_t ag_full = loops[lg].tile;
  const std::size_t av_last = actual_tile(loops[lv], cv_cnt - 1);
  const std::size_t af_last = actual_tile(loops[f_depth], c_f - 1);
  const std::size_t ag_last = actual_tile(loops[lg], cg_cnt - 1);

  // Streaming-operand step costs, indexed [last f tile][last partner tile].
  const bool a_streams = la == 2;
  const bool b_streams = lb == 2;
  std::uint64_t acost[2][2] = {{0, 0}, {0, 0}};  // [iv last][f last]
  std::uint64_t bcost[2][2] = {{0, 0}, {0, 0}};  // [f last][ig last]
  for (int x = 0; x < 2; ++x) {
    for (int y = 0; y < 2; ++y) {
      const std::uint64_t av_x = x ? av_last : av_full;
      const std::uint64_t af_y = y ? af_last : af_full;
      const std::uint64_t ag_y = y ? ag_last : ag_full;
      const std::uint64_t af_x = x ? af_last : af_full;
      if (a_streams) acost[x][y] = ceil_div(av_x * af_y, a_bw);
      if (b_streams) bcost[x][y] = ceil_div(af_x * ag_y, cfg.bw_dist);
    }
  }

  // Chunk index = row contribution (by V index) + column contribution (by F
  // index for kMatrixA, by G index for kMatrixOut); identical to
  // ChunkSpec::chunk_of with the divisions done once per extent.
  std::vector<std::size_t> chunk_rowc;
  std::vector<std::size_t> chunk_colc;
  if (cfg.chunk_target != ChunkTarget::kNone) {
    const std::size_t rb = std::min(cfg.chunks.row_block, cfg.chunks.rows);
    const std::size_t cb = std::min(cfg.chunks.col_block, cfg.chunks.cols);
    const bool row_major = cfg.chunks.major == TraversalMajor::kRowMajor;
    const std::size_t row_stride =
        row_major ? cfg.chunks.col_blocks() : std::size_t{1};
    const std::size_t col_stride =
        row_major ? std::size_t{1} : cfg.chunks.row_blocks();
    chunk_rowc.resize(cv_cnt);
    for (std::size_t i = 0; i < cv_cnt; ++i) {
      chunk_rowc[i] = (rb == 0 ? 0 : i * av_full / rb) * row_stride;
    }
    const bool col_by_f = cfg.chunk_target == ChunkTarget::kMatrixA;
    const std::size_t col_cnt = col_by_f ? c_f : cg_cnt;
    const std::size_t col_tile = col_by_f ? af_full : ag_full;
    chunk_colc.resize(col_cnt);
    for (std::size_t i = 0; i < col_cnt; ++i) {
      chunk_colc[i] = (cb == 0 ? 0 : i * col_tile / cb) * col_stride;
    }
  }

  // Per-level roles: which loop counter feeds V / F / G.
  std::size_t cur_idx[3] = {0, 0, 0};

  const auto exec_step = [&](std::size_t i0, std::size_t i1, std::size_t i2) {
        cur_idx[0] = i0;
        cur_idx[1] = i1;
        cur_idx[2] = i2;
        const std::size_t iv = cur_idx[lv];
        const std::size_t f_idx = cur_idx[f_depth];
        const std::size_t ig = cur_idx[lg];
        const bool v_at_last = iv + 1 == cv_cnt;
        const bool f_at_last = f_idx + 1 == c_f;
        const bool g_at_last = ig + 1 == cg_cnt;
        const std::size_t av = v_at_last ? av_last : av_full;
        const std::size_t af = f_at_last ? af_last : af_full;
        const std::size_t ag = g_at_last ? ag_last : ag_full;
        const std::uint64_t a_elems = static_cast<std::uint64_t>(av) * af;
        const std::uint64_t b_elems = static_cast<std::uint64_t>(af) * ag;
        const std::uint64_t out_elems = static_cast<std::uint64_t>(av) * ag;
        const std::uint64_t macs = static_cast<std::uint64_t>(av) * af * ag;

        // Which loop level did this step enter fresh?
        int changed = 2;
        if (i2 == 0) changed = (i1 == 0 && i0 == 0) ? -1 : (i1 == 0 ? 0 : 1);
        // changed == -1 means the very first step: every level is fresh.

        std::uint64_t serial = 0;   // serial cycles charged this step
        std::uint64_t stream_a = 0;
        std::uint64_t stream_b = 0;

        // Stationary (re)loads for operands bound above the innermost level.
        auto handle_operand = [&](int level, std::uint64_t elems, bool is_a) {
          const bool fresh =
              changed == -1 || (level >= 0 && changed <= level && level < 2);
          if (level >= 0 ? fresh : changed == -1) {
            // Re-loaded at each entry of its binding level (or once if -1).
            if (is_a) {
              if (!cfg.a_from_rf) {
                serial += ceil_div(elems, a_bw);
                r.load_cycles = sat_add_u64(r.load_cycles, ceil_div(elems, a_bw));
              }
              charge_a_read(elems);
            } else {
              serial += ceil_div(elems, cfg.bw_dist);
              r.load_cycles =
                  sat_add_u64(r.load_cycles, ceil_div(elems, cfg.bw_dist));
              charge_b_read(elems);
            }
          }
        };
        if (a_streams) {
          stream_a = acost[v_at_last][f_at_last];
          charge_a_read(a_elems);
        } else {
          handle_operand(la, a_elems, true);
        }
        if (b_streams) {
          stream_b = bcost[f_at_last][g_at_last];
          charge_b_read(b_elems);
        } else {
          handle_operand(lb, b_elems, false);
        }

        // Output tile bookkeeping.
        if (iv != prev_iv || ig != prev_ig) {
          flush_out_visit(&serial);
          if (f_idx > 0 && !psums_fit_in_rf) {
            // Revisit: partial sums come back from the GB.
            r.traffic.gb_for(TrafficCategory::kPsum).reads += out_elems;
            r.traffic.rf.writes += out_elems;
            const std::uint64_t cost = ceil_div(out_elems, cfg.bw_dist);
            r.psum_cycles = sat_add_u64(r.psum_cycles, cost);
            serial += cost;
          }
          prev_iv = iv;
          prev_ig = ig;
        }
        prev_out_elems = out_elems;
        prev_out_final = f_at_last;

        // Step cost: MAC issue vs distribution of streaming operands
        // (stream_a/b already hold the per-step distribution cost).
        std::uint64_t step = 1;
        if (stream_a > 0) step = std::max(step, stream_a);
        if (stream_b > 0) step = std::max(step, stream_b);
        if (step > 1) r.stall_cycles = sat_add_u64(r.stall_cycles, step - 1);

        // RF accounting: operand reads per MAC plus accumulator RMW per
        // output lane per step (temporal accumulation).
        r.traffic.rf.reads += sat_mul_u64(2, macs);
        r.traffic.rf.reads += out_elems;
        r.traffic.rf.writes += out_elems;

        r.issue_steps += 1;
        r.macs = sat_add_u64(r.macs, macs);
        // One PE-cycle per MAC at step cost 1.
        r.active_pe_cycles = sat_add_u64(r.active_pe_cycles, macs);
        const std::uint64_t total_step = step + serial;
        r.cycles = sat_add_u64(r.cycles, total_step);

        if (cfg.chunk_target != ChunkTarget::kNone) {
          const std::size_t chunk =
              chunk_rowc[iv] +
              chunk_colc[cfg.chunk_target == ChunkTarget::kMatrixA ? f_idx
                                                                   : ig];
          r.chunk_cycles[chunk] = sat_add_u64(r.chunk_cycles[chunk], total_step);
          r.chunk_completion[chunk] = r.cycles;  // last contribution wins
          last_chunk_touched = chunk;
        } else {
          r.chunk_cycles[0] = sat_add_u64(r.chunk_cycles[0], total_step);
          r.chunk_completion[0] = r.cycles;
          last_chunk_touched = 0;
        }
  };

  // Uniform-walk collapse. Along the deepest loop level whose inner levels
  // are all trivial (count 1), every "middle" step — neither the fresh
  // entry at index 0 nor the possibly-partial last tile — is exactly
  // uniform: full tiles, the same `changed` level (hence the same
  // stationary reloads), and identical flush/psum charges. Execute one
  // representative middle step through the normal path, then replay its
  // accumulator deltas arithmetically; the collapse is exact by
  // construction and turns the V*F*G/PE-size nest into
  // O(outer counts * chunk-runs). Only the pipeline chunk binning needs
  // per-run attention: the walked dim's chunk contribution advances in
  // plateaus of the precomputed arrays.
  const auto walk_with_collapse = [&](std::size_t walk_level, std::size_t cw,
                                      auto&& exec_at) {
    exec_at(0);
    if (cw >= 3) {
      const std::uint64_t s_cycles = r.cycles;
      const std::uint64_t s_issue = r.issue_steps;
      const std::uint64_t s_load = r.load_cycles;
      const std::uint64_t s_stall = r.stall_cycles;
      const std::uint64_t s_psum = r.psum_cycles;
      const std::uint64_t s_macs = r.macs;
      const std::uint64_t s_active = r.active_pe_cycles;
      const TrafficCounters s_traffic = r.traffic;

      exec_at(1);  // representative middle step

      const std::size_t mid_end = cw - 2;      // last middle index
      const std::uint64_t reps = mid_end - 1;  // walked steps 2 .. mid_end
      if (reps > 0) {
        const std::uint64_t step_cycles = r.cycles - s_cycles;
        const std::uint64_t walked = sat_mul_u64(reps, step_cycles);
        const Dim walk_dim = loops[walk_level].dim;

        // Chunk binning for the replayed steps.
        const std::uint64_t base_cycles = r.cycles;  // after walked step 1
        if (cfg.chunk_target != ChunkTarget::kNone) {
          const bool col_by_f = cfg.chunk_target == ChunkTarget::kMatrixA;
          const std::size_t col_idx =
              col_by_f ? cur_idx[f_depth] : cur_idx[lg];
          const std::size_t* varying = nullptr;
          std::size_t fixed_contrib = 0;
          if (walk_dim == Dim::kV) {
            varying = chunk_rowc.data();
            fixed_contrib = chunk_colc[col_idx];
          } else if (col_by_f ? walk_dim == Dim::kF : walk_dim == Dim::kG) {
            varying = chunk_colc.data();
            fixed_contrib = chunk_rowc[cur_idx[lv]];
          } else {
            fixed_contrib = chunk_rowc[cur_idx[lv]] + chunk_colc[col_idx];
          }
          if (varying == nullptr) {
            r.chunk_cycles[fixed_contrib] =
                sat_add_u64(r.chunk_cycles[fixed_contrib], walked);
            r.chunk_completion[fixed_contrib] =
                sat_add_u64(base_cycles, walked);
            last_chunk_touched = fixed_contrib;
          } else {
            std::size_t s = 2;
            while (s <= mid_end) {
              const std::size_t contrib = varying[s];
              std::size_t e = s;
              while (e + 1 <= mid_end && varying[e + 1] == contrib) ++e;
              const std::size_t chunk = fixed_contrib + contrib;
              r.chunk_cycles[chunk] = sat_add_u64(
                  r.chunk_cycles[chunk],
                  sat_mul_u64(static_cast<std::uint64_t>(e - s + 1),
                              step_cycles));
              r.chunk_completion[chunk] = sat_add_u64(
                  base_cycles,
                  sat_mul_u64(static_cast<std::uint64_t>(e - 1), step_cycles));
              last_chunk_touched = chunk;
              s = e + 1;
            }
          }
        } else {
          r.chunk_cycles[0] = sat_add_u64(r.chunk_cycles[0], walked);
          r.chunk_completion[0] = sat_add_u64(base_cycles, walked);
          last_chunk_touched = 0;
        }

        // Replay the scalar deltas of the representative step.
        r.cycles = sat_add_u64(r.cycles, walked);
        r.issue_steps += reps * (r.issue_steps - s_issue);
        r.load_cycles = sat_add_u64(
            r.load_cycles, sat_mul_u64(reps, r.load_cycles - s_load));
        r.stall_cycles = sat_add_u64(
            r.stall_cycles, sat_mul_u64(reps, r.stall_cycles - s_stall));
        r.psum_cycles = sat_add_u64(
            r.psum_cycles, sat_mul_u64(reps, r.psum_cycles - s_psum));
        r.macs = sat_add_u64(r.macs, sat_mul_u64(reps, r.macs - s_macs));
        r.active_pe_cycles =
            sat_add_u64(r.active_pe_cycles,
                        sat_mul_u64(reps, r.active_pe_cycles - s_active));
        const auto replay = [reps](AccessCounts& cur,
                                   const AccessCounts& before) {
          cur.reads += reps * (cur.reads - before.reads);
          cur.writes += reps * (cur.writes - before.writes);
        };
        for (std::size_t c = 0; c < kNumTrafficCategories; ++c) {
          replay(r.traffic.gb[c], s_traffic.gb[c]);
        }
        replay(r.traffic.rf, s_traffic.rf);
        replay(r.traffic.dram, s_traffic.dram);
        replay(r.traffic.intermediate_partition,
               s_traffic.intermediate_partition);

        // Output-visit state as if the walk stood at mid_end: only the
        // walked dim's coordinate moved (the visit size and finality are
        // middle-uniform).
        if (walk_dim == Dim::kV) prev_iv = mid_end;
        if (walk_dim == Dim::kG) prev_ig = mid_end;
      }
    }
    if (cw >= 2) exec_at(cw - 1);
  };

  if (c1 == 1 && c2 == 1) {
    walk_with_collapse(0, c0,
                       [&](std::size_t j) { exec_step(j, 0, 0); });
  } else if (c2 == 1) {
    for (std::size_t i0 = 0; i0 < c0; ++i0) {
      walk_with_collapse(1, c1,
                         [&](std::size_t j) { exec_step(i0, j, 0); });
    }
  } else {
    for (std::size_t i0 = 0; i0 < c0; ++i0) {
      for (std::size_t i1 = 0; i1 < c1; ++i1) {
        walk_with_collapse(2, c2,
                           [&](std::size_t j) { exec_step(i0, i1, j); });
      }
    }
  }
  std::uint64_t tail = 0;
  flush_out_visit(&tail);
  r.cycles = sat_add_u64(r.cycles, tail);
  if (!r.chunk_cycles.empty()) {
    r.chunk_cycles[last_chunk_touched] =
        sat_add_u64(r.chunk_cycles[last_chunk_touched], tail);
    r.chunk_completion[last_chunk_touched] += tail;
  }

  r.cycles = sat_add_u64(r.cycles, r.fill_cycles);
  r.chunk_cycles.front() += r.fill_cycles;
  // The pipeline fill delays every completion; never-touched chunks (empty
  // grid cells) complete with their predecessors.
  std::uint64_t floor_cycles = 0;
  for (auto& c : r.chunk_completion) {
    c += r.fill_cycles;
    floor_cycles = std::max(floor_cycles, c);
    c = std::max(c, floor_cycles);
  }
  return r;
}

}  // namespace omega
