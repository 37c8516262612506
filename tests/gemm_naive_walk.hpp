// Naive-walk oracle for the dense engine (test helper, not library code).
//
// `naive_gemm_walk` is run_gemm_phase's per-step body under a plain triple
// loop: every tile step of the V/F/G nest is executed, nothing is collapsed
// or replayed, and each step's pipeline chunk comes straight from
// ChunkSpec::chunk_of on the step's tile origin. engine_gemm_test fuzzes the
// engine against it field by field; it is only meant for small nests.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "engine/gemm_engine.hpp"
#include "util/saturate.hpp"

namespace omega {

/// The walk's result: the summary fields in `result` (its compact
/// timelines left empty), one value per chunk of each timeline, and the
/// chunk of every tile step in walk order.
struct NaiveGemmWalk {
  PhaseResult result;
  std::vector<std::uint64_t> chunk_cycles;
  std::vector<std::uint64_t> chunk_completion;
  std::vector<std::size_t> step_chunks;
};

inline NaiveGemmWalk naive_gemm_walk(const GemmPhaseConfig& cfg) {
  cfg.validate();

  struct Level {
    Dim dim = Dim::kV;
    std::size_t extent = 1;
    std::size_t tile = 1;
    std::size_t count = 1;
  };
  std::array<Level, 3> loops;
  for (std::size_t d = 0; d < 3; ++d) {
    Level& l = loops[d];
    l.dim = cfg.order.at(d);
    switch (l.dim) {
      case Dim::kV: l.extent = cfg.rows; l.tile = cfg.tiles.v; break;
      case Dim::kF: l.extent = cfg.inner; l.tile = cfg.tiles.f; break;
      default: l.extent = cfg.cols; l.tile = cfg.tiles.g; break;
    }
    l.tile = std::min(l.tile, l.extent);
    l.count = ceil_div(l.extent, l.tile);
  }
  const std::size_t dv = cfg.order.depth_of(Dim::kV);
  const std::size_t df = cfg.order.depth_of(Dim::kF);
  const std::size_t dg = cfg.order.depth_of(Dim::kG);
  const std::size_t tv = loops[dv].tile;
  const std::size_t tf = loops[df].tile;
  const std::size_t tg = loops[dg].tile;

  // An operand is (re)loaded at the deepest level that indexes it with more
  // than one tile; it streams every step when that level is the innermost.
  const auto binding_level = [&](Dim x, Dim y) {
    int level = -1;
    for (int d = 0; d < 3; ++d) {
      const Level& l = loops[static_cast<std::size_t>(d)];
      if ((l.dim == x || l.dim == y) && l.count > 1) level = d;
    }
    return level;
  };
  const int la = binding_level(Dim::kV, Dim::kF);
  const int lb = binding_level(Dim::kF, Dim::kG);

  const std::size_t a_bw = cfg.a_stream_bw > 0 ? cfg.a_stream_bw : cfg.bw_dist;
  const std::size_t out_bw =
      cfg.out_drain_bw > 0 ? cfg.out_drain_bw : cfg.bw_red;

  const std::uint64_t covered_v = dv > df ? cfg.rows : tv;
  const std::uint64_t covered_g = dg > df ? cfg.cols : tg;
  const std::uint64_t tile_pes =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(tv) * tf * tg);
  const bool psums_fit_in_rf =
      ceil_div(covered_v * covered_g, tile_pes) <=
      std::max<std::size_t>(cfg.rf_elements / 2, 1);

  NaiveGemmWalk out;
  PhaseResult& r = out.result;
  const std::size_t num_chunks =
      cfg.chunk_target == ChunkTarget::kNone ? 1 : cfg.chunks.num_chunks();
  std::vector<std::uint64_t>& chunk_cycles = out.chunk_cycles;
  std::vector<std::uint64_t>& chunk_completion = out.chunk_completion;
  chunk_cycles.assign(num_chunks, 0);
  chunk_completion.assign(num_chunks, 0);
  r.fill_cycles = 2 + static_cast<std::uint64_t>(
                          std::bit_width(tf > 1 ? tf : std::size_t{1}) - 1);

  const auto charge_a_read = [&](std::uint64_t elems) {
    if (cfg.a_from_rf) {
      r.traffic.rf.reads += elems;
      return;
    }
    if (cfg.a_in_dram) r.traffic.dram.reads += elems;
    else if (cfg.a_via_partition)
      r.traffic.intermediate_partition.reads += elems;
    else r.traffic.gb_for(cfg.a_category).reads += elems;
    r.traffic.rf.writes += elems;
  };
  const auto charge_b_read = [&](std::uint64_t elems) {
    r.traffic.gb_for(cfg.b_category).reads += elems;
    r.traffic.rf.writes += elems;
  };

  constexpr std::size_t kNoVisit = std::numeric_limits<std::size_t>::max();
  std::size_t prev_iv = kNoVisit;
  std::size_t prev_ig = kNoVisit;
  std::uint64_t prev_out_elems = 0;
  bool prev_out_final = false;
  const auto flush_out_visit = [&](std::uint64_t& sink) {
    if (prev_iv == kNoVisit) return;
    if (prev_out_final) {
      if (cfg.out_to_rf) {
        r.traffic.rf.writes += prev_out_elems;
      } else {
        if (cfg.out_in_dram) r.traffic.dram.writes += prev_out_elems;
        else if (cfg.out_via_partition)
          r.traffic.intermediate_partition.writes += prev_out_elems;
        else r.traffic.gb_for(cfg.out_category).writes += prev_out_elems;
        const std::uint64_t cost = ceil_div(prev_out_elems, out_bw);
        r.stall_cycles = sat_add_u64(r.stall_cycles, cost);
        sink = sat_add_u64(sink, cost);
      }
    } else if (!psums_fit_in_rf) {
      r.traffic.gb_for(TrafficCategory::kPsum).writes += prev_out_elems;
      r.traffic.rf.reads += prev_out_elems;
      const std::uint64_t cost = ceil_div(prev_out_elems, cfg.bw_red);
      r.psum_cycles = sat_add_u64(r.psum_cycles, cost);
      sink = sat_add_u64(sink, cost);
    }
  };

  std::size_t last_chunk = 0;
  for (std::size_t i0 = 0; i0 < loops[0].count; ++i0) {
    for (std::size_t i1 = 0; i1 < loops[1].count; ++i1) {
      for (std::size_t i2 = 0; i2 < loops[2].count; ++i2) {
        const std::array<std::size_t, 3> idx = {i0, i1, i2};
        const std::size_t iv = idx[dv];
        const std::size_t f_idx = idx[df];
        const std::size_t ig = idx[dg];
        const bool f_last = f_idx + 1 == loops[df].count;
        const std::uint64_t av = std::min(tv, cfg.rows - iv * tv);
        const std::uint64_t af = std::min(tf, cfg.inner - f_idx * tf);
        const std::uint64_t ag = std::min(tg, cfg.cols - ig * tg);
        const std::uint64_t out_elems = av * ag;
        const std::uint64_t macs = av * af * ag;

        // Outermost level entered fresh by this step; -1 on the first step.
        int changed = 2;
        if (i2 == 0) changed = (i1 == 0 && i0 == 0) ? -1 : (i1 == 0 ? 0 : 1);
        const auto reloads = [&](int level) {
          if (level < 0) return changed == -1;
          return changed == -1 || (changed <= level && level < 2);
        };

        std::uint64_t serial = 0;
        std::uint64_t stream_a = 0;
        std::uint64_t stream_b = 0;
        if (la == 2) {
          stream_a = ceil_div(av * af, a_bw);
          charge_a_read(av * af);
        } else if (reloads(la)) {
          if (!cfg.a_from_rf) {
            serial += ceil_div(av * af, a_bw);
            r.load_cycles = sat_add_u64(r.load_cycles, ceil_div(av * af, a_bw));
          }
          charge_a_read(av * af);
        }
        if (lb == 2) {
          stream_b = ceil_div(af * ag, cfg.bw_dist);
          charge_b_read(af * ag);
        } else if (reloads(lb)) {
          serial += ceil_div(af * ag, cfg.bw_dist);
          r.load_cycles =
              sat_add_u64(r.load_cycles, ceil_div(af * ag, cfg.bw_dist));
          charge_b_read(af * ag);
        }

        if (iv != prev_iv || ig != prev_ig) {
          flush_out_visit(serial);
          if (f_idx > 0 && !psums_fit_in_rf) {
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
        prev_out_final = f_last;

        const std::uint64_t step = std::max<std::uint64_t>(
            {1, stream_a, stream_b});
        if (step > 1) r.stall_cycles = sat_add_u64(r.stall_cycles, step - 1);
        r.traffic.rf.reads += sat_mul_u64(2, macs);
        r.traffic.rf.reads += out_elems;
        r.traffic.rf.writes += out_elems;
        r.issue_steps += 1;
        r.macs = sat_add_u64(r.macs, macs);
        r.active_pe_cycles = sat_add_u64(r.active_pe_cycles, macs);
        r.cycles = sat_add_u64(r.cycles, step + serial);

        std::size_t chunk = 0;
        if (cfg.chunk_target == ChunkTarget::kMatrixA) {
          chunk = cfg.chunks.chunk_of(iv * tv, f_idx * tf);
        } else if (cfg.chunk_target == ChunkTarget::kMatrixOut) {
          chunk = cfg.chunks.chunk_of(iv * tv, ig * tg);
        }
        chunk_cycles.at(chunk) =
            sat_add_u64(chunk_cycles.at(chunk), step + serial);
        chunk_completion.at(chunk) = r.cycles;
        out.step_chunks.push_back(chunk);
        last_chunk = chunk;
      }
    }
  }

  std::uint64_t tail = 0;
  flush_out_visit(tail);
  r.cycles = sat_add_u64(r.cycles, tail);
  chunk_cycles[last_chunk] = sat_add_u64(chunk_cycles[last_chunk], tail);
  chunk_completion[last_chunk] =
      sat_add_u64(chunk_completion[last_chunk], tail);

  r.cycles = sat_add_u64(r.cycles, r.fill_cycles);
  chunk_cycles.front() = sat_add_u64(chunk_cycles.front(), r.fill_cycles);
  std::uint64_t floor_cycles = 0;
  for (auto& c : chunk_completion) {
    c = std::max(sat_add_u64(c, r.fill_cycles), floor_cycles);
    floor_cycles = c;
  }
  return out;
}

}  // namespace omega
