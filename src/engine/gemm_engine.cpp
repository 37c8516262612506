#include "engine/gemm_engine.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

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

// ---- Chunk charges as run segments ------------------------------------------

/// Charges to chunks [lo, hi): each chunk takes `cycles`, and chunk lo + j
/// completes at `done + j * step`. Every such value fits in a u64 (a
/// saturated stretch is its own segment with step 0), so the progression
/// is exact.
struct ChunkSegment {
  std::size_t lo = 0;
  std::size_t hi = 0;
  std::uint64_t cycles = 0;
  std::uint64_t done = 0;
  std::uint64_t step = 0;  // unused by a one-chunk segment

  [[nodiscard]] std::size_t length() const { return hi - lo; }
  [[nodiscard]] std::uint64_t last_done() const {
    return done + (hi - lo - 1) * step;
  }
};

/// Emits `s` with `add` added to every completion, saturating: the chunks
/// that stay below UINT64_MAX keep the progression, the rest complete at
/// UINT64_MAX. At most two segments.
template <typename Emit>
void emit_delayed(ChunkSegment s, std::uint64_t add, const Emit& emit) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const std::uint64_t room = kMax - add;  // completions up to room stay exact
  std::size_t exact = s.length();
  if (s.done > room) {
    exact = 0;
  } else if (s.step > 0) {
    exact = static_cast<std::size_t>(std::min<std::uint64_t>(
        exact, (room - s.done) / s.step + 1));
  }
  if (exact > 0) {
    ChunkSegment head = s;
    head.hi = s.lo + exact;
    head.done += add;
    emit(head);
  }
  if (exact < s.length()) {
    s.lo += exact;
    s.done = kMax;
    s.step = 0;
    emit(s);
  }
}

/// Appends `s` to `segs`, extending the last segment when `s` continues
/// it: adjacent chunks, the same cycles and the same completion increment.
/// `s` starts after the last segment and completes no earlier.
void extend_or_push(std::vector<ChunkSegment>& segs, const ChunkSegment& s) {
  if (!segs.empty()) {
    ChunkSegment& b = segs.back();
    const std::uint64_t gap = s.done - b.last_done();
    if (b.hi == s.lo && b.cycles == s.cycles &&
        (b.length() == 1 || gap == b.step) &&
        (s.length() == 1 || s.step == gap)) {
      b.step = gap;
      b.hi = s.hi;
      return;
    }
  }
  segs.push_back(s);
}

/// Folds `s` into `segs`, which hold one segment per run of chunks in chunk
/// order: a chunk in both sums its cycles (saturating) and keeps the later
/// completion. Returns false, leaving `segs` as it was, when `s` goes
/// backwards: it starts before the last charged chunk or completes before
/// it.
bool fold_in_order(std::vector<ChunkSegment>& segs, ChunkSegment s) {
  if (segs.empty()) {
    segs.push_back(s);
    return true;
  }
  ChunkSegment& b = segs.back();
  const std::size_t last = b.hi - 1;
  const std::uint64_t last_done = b.last_done();
  if (s.lo < last || s.done < last_done) return false;
  if (s.lo == last) {
    const ChunkSegment shared{last, last + 1, sat_add_u64(b.cycles, s.cycles),
                              s.done, 0};
    if (b.length() == 1) {
      segs.pop_back();
    } else {
      --b.hi;
    }
    extend_or_push(segs, shared);
    if (s.length() == 1) return true;
    ++s.lo;
    s.done += s.step;
  }
  extend_or_push(segs, s);
  return true;
}

/// Collects the walk's chunk charges into the phase's two timelines. While
/// charges arrive in chunk order (and time order) it keeps one segment per
/// run and allocates nothing per chunk. The first charge that goes
/// backwards, from a transposed or revisiting loop order, switches it to
/// per-chunk accumulation for the rest of the walk; a chunk's charges then
/// fold by summed cycles and the latest completion, which is the last one
/// because completions never decrease in walk order.
class ChunkSink {
 public:
  explicit ChunkSink(std::size_t num_chunks) : num_chunks_(num_chunks) {
    segs_.push_back({0, 1, 0, 0, 0});  // chunk 0 takes the fill
  }

  /// Charges `s`. Throws InvalidArgumentError when `s` reaches past the
  /// grid: a wrong plateau shift fails here, once per segment.
  void charge(const ChunkSegment& s) {
    if (s.hi > num_chunks_) {
      throw InvalidArgumentError(
          "GEMM chunk " + std::to_string(s.hi - 1) + " is outside its " +
          std::to_string(num_chunks_) + "-chunk grid");
    }
    last_ = s.hi - 1;
    if (!spilled_) {
      if (fold_in_order(segs_, s)) return;
      spill();
    }
    for (std::size_t c = s.lo; c < s.hi; ++c) {
      cycles_[c] = sat_add_u64(cycles_[c], s.cycles);
      done_[c] = std::max(done_[c], s.done + (c - s.lo) * s.step);
    }
  }

  /// Adds the drain `tail` to the last charged chunk's cycles and completion.
  void charge_tail(std::uint64_t tail) {
    const std::uint64_t done =
        spilled_ ? done_[last_] : segs_.back().last_done();
    charge({last_, last_ + 1, tail, sat_add_u64(done, tail), 0});
  }

  /// The timelines, with the pipeline `fill` added to chunk 0's cycles and
  /// to every completion. A never-charged chunk completes with its
  /// predecessor.
  void finish(std::uint64_t fill, ChunkTimeline& cycles,
              ChunkTimeline& completion) const {
    cycles = ChunkTimeline(ChunkTimeline::Kind::kDurations);
    completion = ChunkTimeline(ChunkTimeline::Kind::kCompletions);
    std::uint64_t prev = 0;  // the previous chunk's completion
    if (spilled_) {
      for (std::size_t c = 0; c < num_chunks_; ++c) {
        cycles.append(c == 0 ? sat_add_u64(cycles_[c], fill) : cycles_[c]);
        const std::uint64_t done = std::max(sat_add_u64(done_[c], fill), prev);
        completion.append(done - prev);
        prev = done;
      }
    } else {
      std::size_t next = 0;  // first chunk not yet appended
      for (const ChunkSegment& s : segs_) {
        cycles.append(0, s.lo - next);
        completion.append(0, s.lo - next);
        if (s.lo == 0) {
          cycles.append(sat_add_u64(s.cycles, fill));
          cycles.append(s.cycles, s.length() - 1);
        } else {
          cycles.append(s.cycles, s.length());
        }
        emit_delayed(s, fill, [&](const ChunkSegment& p) {
          completion.append(p.done - prev);
          completion.append(p.step, p.length() - 1);
          prev = p.last_done();
        });
        next = s.hi;
      }
      cycles.append(0, num_chunks_ - next);
      completion.append(0, num_chunks_ - next);
    }
    cycles.shrink_to_fit();
    completion.shrink_to_fit();
  }

 private:
  void spill() {
    spilled_ = true;
    cycles_.assign(num_chunks_, 0);
    done_.assign(num_chunks_, 0);
    for (const ChunkSegment& s : segs_) {
      for (std::size_t c = s.lo; c < s.hi; ++c) {
        cycles_[c] = s.cycles;
        done_[c] = s.done + (c - s.lo) * s.step;
      }
    }
    segs_.clear();
  }

  std::size_t num_chunks_;
  std::size_t last_ = 0;  // the last charged chunk
  bool spilled_ = false;
  std::vector<ChunkSegment> segs_;     // in chunk order, until spilled
  std::vector<std::uint64_t> cycles_;  // per chunk, once spilled
  std::vector<std::uint64_t> done_;    // per chunk, once spilled
};

/// Folds the representative iteration's charges, log[mark..], to one
/// segment per run of chunks in chunk order (summed cycles, latest
/// completion per chunk). An out-of-order log folds chunk by chunk.
void fold_representative(std::vector<ChunkSegment>& log, std::size_t mark,
                         std::vector<ChunkSegment>& scratch) {
  if (log.size() - mark < 2) return;  // one segment is folded already
  scratch.clear();
  bool in_order = true;
  for (std::size_t j = mark; j < log.size() && in_order; ++j) {
    in_order = fold_in_order(scratch, log[j]);
  }
  if (!in_order) {
    scratch.clear();
    for (std::size_t j = mark; j < log.size(); ++j) {
      const ChunkSegment& s = log[j];
      for (std::size_t c = s.lo; c < s.hi; ++c) {
        scratch.push_back(
            {c, c + 1, s.cycles, s.done + (c - s.lo) * s.step, 0});
      }
    }
    std::sort(scratch.begin(), scratch.end(),
              [](const ChunkSegment& a, const ChunkSegment& b) {
                return a.lo < b.lo;
              });
    std::size_t folded = 0;
    for (const ChunkSegment& s : scratch) {
      if (folded > 0 && scratch[folded - 1].lo == s.lo) {
        ChunkSegment& f = scratch[folded - 1];
        f.cycles = sat_add_u64(f.cycles, s.cycles);
        f.done = std::max(f.done, s.done);
      } else {
        scratch[folded++] = s;
      }
    }
    scratch.resize(folded);
  }
  log.resize(mark);
  log.insert(log.end(), scratch.begin(), scratch.end());
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

  const std::size_t lv = cfg.order.depth_of(Dim::kV);
  const std::size_t lf = cfg.order.depth_of(Dim::kF);
  const std::size_t lg = cfg.order.depth_of(Dim::kG);

  const std::size_t a_bw = cfg.a_stream_bw > 0 ? cfg.a_stream_bw : cfg.bw_dist;
  const std::size_t out_bw = cfg.out_drain_bw > 0 ? cfg.out_drain_bw : cfg.bw_red;

  // RF-resident partial sums: between increments of the contraction (F)
  // loop, each PE must keep one accumulator per output element it covers
  // across all output tiles swept by the loops *inside* F. If that live set
  // fits in half the RF, accumulators persist and no psum spill happens.
  const std::uint64_t covered_v = lv > lf ? cfg.rows : tv;
  const std::uint64_t covered_g = lg > lf ? cfg.cols : tg;
  const std::uint64_t tile_pes =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(tv) * tf * tg);
  const std::uint64_t live_psums_per_pe =
      ceil_div(covered_v * covered_g, tile_pes);
  const bool psums_fit_in_rf =
      live_psums_per_pe <= std::max<std::size_t>(cfg.rf_elements / 2, 1);

  PhaseResult r;
  const std::size_t num_chunks =
      cfg.chunk_target == ChunkTarget::kNone ? 1 : cfg.chunks.num_chunks();
  // The walk charges chunks as run segments; the sink builds the result's
  // timelines from them.
  ChunkSink sink(num_chunks);

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

  // ---- Pipeline chunk binning ---------------------------------------------
  // A step's chunk is the sum of one contribution per loop level: the V
  // level's row-block term and, for kMatrixA / kMatrixOut, the F / G level's
  // column-block term, each (k * tile / block) * stride for the level's k-th
  // tile. That is ChunkSpec::chunk_of on the tile origin, split by level.
  struct ChunkAxis {
    std::size_t block = 0;  // 0: the level does not move the chunk
    std::size_t stride = 0;
  };
  std::array<ChunkAxis, 3> axes{};
  if (cfg.chunk_target != ChunkTarget::kNone) {
    const bool row_major = cfg.chunks.major == TraversalMajor::kRowMajor;
    axes[lv] = {std::min(cfg.chunks.row_block, cfg.chunks.rows),
                row_major ? cfg.chunks.col_blocks() : std::size_t{1}};
    axes[cfg.chunk_target == ChunkTarget::kMatrixA ? lf : lg] = {
        std::min(cfg.chunks.col_block, cfg.chunks.cols),
        row_major ? std::size_t{1} : cfg.chunks.row_blocks()};
  }
  const auto contribution = [&](std::size_t level, std::size_t k) {
    const ChunkAxis& a = axes[level];
    return a.block == 0 ? std::size_t{0}
                        : k * loops[level].tile / a.block * a.stride;
  };
  // One past the last tile index of `level` whose contribution equals tile
  // k's: the chunk plateau k sits on (no overflow: k * tile < extent).
  const auto plateau_end = [&](std::size_t level, std::size_t k) {
    const LoopInfo& l = loops[level];
    const std::size_t block = axes[level].block;
    if (block == 0) return l.count;
    const std::size_t start = k * l.tile / block * block;
    if (block >= l.extent - start) return l.count;
    const std::size_t next = start + block;  // origin of the next block
    return std::min(l.count, next / l.tile + (next % l.tile != 0 ? 1 : 0));
  };

  // Chunk charges made while a representative iteration is being recorded
  // (see the walk below); empty otherwise.
  std::vector<ChunkSegment> recorded;
  std::vector<ChunkSegment> fold_scratch;
  recorded.reserve(16);  // a few segments per level; skip the first regrowths
  fold_scratch.reserve(16);
  int recording = 0;
  const auto charge = [&](const ChunkSegment& s) {
    sink.charge(s);
    if (recording > 0) recorded.push_back(s);
  };

  const bool a_streams = la == 2;
  const bool b_streams = lb == 2;

  // One tile step at the loop indices in `idx`, binned into `chunk`.
  std::size_t idx[3] = {0, 0, 0};
  const auto exec_step = [&](std::size_t chunk) {
    const std::size_t iv = idx[lv];
    const std::size_t f_idx = idx[lf];
    const std::size_t ig = idx[lg];
    const std::uint64_t av = actual_tile(loops[lv], iv);
    const std::uint64_t af = actual_tile(loops[lf], f_idx);
    const std::uint64_t ag = actual_tile(loops[lg], ig);
    const std::uint64_t a_elems = av * af;
    const std::uint64_t b_elems = af * ag;
    const std::uint64_t out_elems = av * ag;
    const std::uint64_t macs = av * af * ag;

    // Which loop level did this step enter fresh?
    int changed = 2;
    if (idx[2] == 0) {
      changed = (idx[1] == 0 && idx[0] == 0) ? -1 : (idx[1] == 0 ? 0 : 1);
    }
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
      stream_a = ceil_div(a_elems, a_bw);
      charge_a_read(a_elems);
    } else {
      handle_operand(la, a_elems, true);
    }
    if (b_streams) {
      stream_b = ceil_div(b_elems, cfg.bw_dist);
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
    prev_out_final = f_idx + 1 == loops[lf].count;

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
    charge({chunk, chunk + 1, total_step, r.cycles, 0});
  };

  // ---- Uniform-walk collapse, at every loop level --------------------------
  // The nest has V*F*G / (tv*tf*tg) tile steps, but at any level every
  // "middle" iteration — neither the fresh entry at index 0 nor the
  // possibly-partial last tile — runs exactly the same sub-nest: full tiles
  // at this level, the same fresh levels (hence the same stationary
  // reloads), the same output-visit flushes and psum charges, and the same
  // entry state left by its predecessor. Only its pipeline chunks differ,
  // by this level's chunk contribution. So each level executes iteration 0,
  // one representative middle iteration and the last one (recursively, so
  // at most 27 tile steps run), and replays the representative's deltas
  // arithmetically: scalar totals and traffic times the middle count, and
  // its chunk charges, folded to run segments, once per chunk plateau of
  // this level (a stretch of equal full plateaus at once). The replay is
  // exact by construction (it multiplies the deltas the real code path
  // produced); engine_gemm_test checks it against the naive walk. A term
  // whose charges arrive in chunk order costs O(plateaus x segments), with
  // nothing allocated per chunk; one that goes back a chunk costs
  // O(plateaus x chunks touched + chunks). Never O(steps).
  const auto walk = [&](const auto& self, std::size_t level,
                        std::size_t chunk_base) -> void {
    if (level == 3) {
      exec_step(chunk_base);
      return;
    }
    const std::size_t count = loops[level].count;
    const auto run = [&](std::size_t k) {
      idx[level] = k;
      self(self, level + 1, chunk_base + contribution(level, k));
    };
    run(0);
    if (count < 4) {  // no middle iteration to replay
      for (std::size_t k = 1; k < count; ++k) run(k);
      return;
    }
    const std::uint64_t s_cycles = r.cycles;
    const std::uint64_t s_issue = r.issue_steps;
    const std::uint64_t s_load = r.load_cycles;
    const std::uint64_t s_stall = r.stall_cycles;
    const std::uint64_t s_psum = r.psum_cycles;
    const std::uint64_t s_macs = r.macs;
    const std::uint64_t s_active = r.active_pe_cycles;
    const TrafficCounters s_traffic = r.traffic;

    const std::size_t mark = recorded.size();
    ++recording;
    run(1);  // the representative middle iteration
    --recording;

    // Fold the representative's chunk charges to runs: per chunk, the sum
    // of its cycles and its latest completion.
    fold_representative(recorded, mark, fold_scratch);
    const std::size_t folded_end = recorded.size();

    // Middle iterations 2 .. count-2 replay the representative (1).
    const std::size_t mid_end = count - 2;
    const std::uint64_t reps = mid_end - 1;
    const std::uint64_t iter_cycles = r.cycles - s_cycles;

    // Chunks: iteration k charges the representative's chunks shifted by
    // contribution(k) - contribution(1), ending iter_cycles * (k - 1) later,
    // so plateau k..e replays each folded segment once: shifted, its cycles
    // times the plateau's length and its completions iteration e's.
    // When the representative charged one chunk and the level's tiles
    // divide its chunk blocks, its full plateaus move one chunk each and
    // last `per_plateau` iterations: they charge consecutive chunks the same
    // cycles, completing per_plateau iterations apart, which is one segment.
    const std::size_t rep_contribution = contribution(level, 1);
    const ChunkAxis& axis = axes[level];
    const std::size_t per_plateau =
        axis.block == 0 ? 0 : axis.block / loops[level].tile;
    const bool uniform_plateaus = folded_end == mark + 1 &&
                                  recorded[mark].length() == 1 &&
                                  axis.stride == 1 && per_plateau > 0 &&
                                  axis.block % loops[level].tile == 0;
    for (std::size_t k = 2; k <= mid_end;) {
      const std::size_t e = std::min(plateau_end(level, k), mid_end + 1) - 1;
      const std::size_t shift = contribution(level, k) - rep_contribution;
      const std::uint64_t n = e - k + 1;
      const std::uint64_t delay = sat_mul_u64(e - 1, iter_cycles);
      for (std::size_t j = mark; j < folded_end; ++j) {
        ChunkSegment s = recorded[j];  // charge may grow the log
        s.lo += shift;
        s.hi += shift;
        s.cycles = sat_mul_u64(n, s.cycles);
        emit_delayed(s, delay, charge);
      }
      k = e + 1;
      if (!uniform_plateaus || k > mid_end) continue;
      // k starts a block: replay the full plateaus that follow at once,
      // unless their completions saturate.
      const std::size_t plateaus = (mid_end + 1 - k) / per_plateau;
      const std::size_t last = k + plateaus * per_plateau - 1;
      ChunkSegment s = recorded[mark];
      if (plateaus < 2 ||
          sat_add_u64(s.done, sat_mul_u64(last - 1, iter_cycles)) ==
              std::numeric_limits<std::uint64_t>::max()) {
        continue;
      }
      s.lo += contribution(level, k) - rep_contribution;
      s.hi = s.lo + plateaus;
      s.cycles = sat_mul_u64(per_plateau, s.cycles);
      s.done = sat_add_u64(
          s.done, sat_mul_u64(k + per_plateau - 2, iter_cycles));
      s.step = sat_mul_u64(per_plateau, iter_cycles);
      charge(s);
      k = last + 1;
    }
    if (recording == 0) recorded.clear();

    // Scalars: the representative's deltas, reps more times.
    r.cycles = sat_add_u64(r.cycles, sat_mul_u64(reps, iter_cycles));
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
    const auto replay = [reps](AccessCounts& cur, const AccessCounts& before) {
      cur.reads += reps * (cur.reads - before.reads);
      cur.writes += reps * (cur.writes - before.writes);
    };
    for (std::size_t c = 0; c < kNumTrafficCategories; ++c) {
      replay(r.traffic.gb[c], s_traffic.gb[c]);
    }
    replay(r.traffic.rf, s_traffic.rf);
    replay(r.traffic.dram, s_traffic.dram);
    replay(r.traffic.intermediate_partition, s_traffic.intermediate_partition);

    // The output visit the representative left open stands for iteration
    // mid_end's: its size and finality are middle-uniform, and if this level
    // walks V or G, the last iteration opens a new visit either way.
    run(count - 1);
  };
  walk(walk, 0, 0);

  std::uint64_t tail = 0;
  flush_out_visit(&tail);
  r.cycles = sat_add_u64(r.cycles, tail);
  sink.charge_tail(tail);

  r.cycles = sat_add_u64(r.cycles, r.fill_cycles);
  sink.finish(r.fill_cycles, r.chunk_cycles, r.chunk_completion);
  return r;
}

}  // namespace omega
