#include "omega/compose.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/saturate.hpp"

namespace omega {

const char* to_string(ModelCompose c) {
  switch (c) {
    case ModelCompose::kSequential: return "sequential";
    case ModelCompose::kPipelined: return "pipelined";
  }
  return "?";
}

ModelCompose compose_from_string(const std::string& s) {
  if (s == "sequential") return ModelCompose::kSequential;
  if (s == "pipelined") return ModelCompose::kPipelined;
  throw InvalidArgumentError("unknown compose mode: " + s);
}

ModelComposition sequential_composition(const std::vector<RunResult>& layers) {
  OMEGA_CHECK(!layers.empty(), "model composition needs >= 1 layer");
  ModelComposition out;
  out.compose = ModelCompose::kSequential;
  out.layer_start.resize(layers.size(), 0);
  out.layer_finish.resize(layers.size(), 0);
  std::uint64_t clock = 0;
  for (std::size_t l = 0; l < layers.size(); ++l) {
    out.layer_start[l] = clock;
    clock = sat_add_u64(clock, layers[l].cycles);
    out.layer_finish[l] = clock;
    if (l > 0) {
      BoundaryComposition b;
      b.reason = "sequential composition requested";
      out.boundaries.push_back(std::move(b));
    }
  }
  out.cycles = clock;
  out.sequential_cycles = clock;
  return out;
}

std::vector<std::uint64_t> retile_row_completion(
    const std::vector<std::uint64_t>& producer_block_completion,
    std::size_t rows, std::size_t producer_row_block,
    const std::vector<std::size_t>& dep_rows) {
  OMEGA_CHECK(!producer_block_completion.empty(),
              "producer profile needs >= 1 row block");
  std::vector<std::uint64_t> prefix = producer_block_completion;
  for (std::size_t i = 1; i < prefix.size(); ++i) {
    prefix[i] = std::max(prefix[i], prefix[i - 1]);
  }
  const std::size_t rb =
      std::min(producer_row_block == 0 ? std::max<std::size_t>(rows, 1)
                                       : producer_row_block,
               std::max<std::size_t>(rows, 1));
  std::vector<std::uint64_t> out;
  out.reserve(dep_rows.size());
  for (const std::size_t dep : dep_rows) {
    const std::size_t block = std::min(dep / rb, prefix.size() - 1);
    out.push_back(prefix[block]);
  }
  return out;
}

namespace {

/// Row block index of flattened chunk `i` under the grid's traversal major.
std::size_t row_block_of(const ChunkSpec& grid, std::size_t i) {
  return grid.major == TraversalMajor::kRowMajor ? i / grid.col_blocks()
                                                 : i % grid.row_blocks();
}

/// True when the phase's chunk completion is the prefix sum of its chunk
/// cycles — i.e. the phase visits each chunk once, in traversal order.
/// Revisiting producers (completion pinned to the last sweep) fail this and
/// degrade the boundary to phase-granular overlap.
bool monotone_timeline(const std::vector<std::uint64_t>& completion,
                       const std::vector<std::uint64_t>& cycles) {
  std::uint64_t prefix = 0;
  for (std::size_t i = 0; i < completion.size(); ++i) {
    prefix = sat_add_u64(prefix, cycles[i]);
    if (completion[i] != prefix) return false;
  }
  return true;
}

/// The phase producing the layer's intermediate (first to run) and the
/// phase consuming it (produces the layer's output).
const PhaseResult& first_phase(const RunResult& r) {
  return r.dataflow.phase_order == PhaseOrder::kAC ? r.agg : r.cmb;
}
const PhaseResult& second_phase(const RunResult& r) {
  return r.dataflow.phase_order == PhaseOrder::kAC ? r.cmb : r.agg;
}
std::size_t first_phase_pes(const RunResult& r) {
  return r.dataflow.phase_order == PhaseOrder::kAC ? r.pes_agg : r.pes_cmb;
}
std::size_t second_phase_pes(const RunResult& r) {
  return r.dataflow.phase_order == PhaseOrder::kAC ? r.pes_cmb : r.pes_agg;
}

/// The timelines a layer composes from, expanded to one value per chunk.
struct LayerTimelines {
  std::vector<std::uint64_t> head_completion;  // first phase
  std::vector<std::uint64_t> head_cycles;      // first phase
  std::vector<std::uint64_t> tail_cycles;      // second phase
};

/// Both phases report complete chunk timelines aligned with the grid.
bool usable_chunk_timelines(const RunResult& r) {
  const std::size_t chunks = r.chunk_grid.num_chunks();
  return chunks > 0 &&
         first_phase(r).chunk_completion.size() == chunks &&
         first_phase(r).chunk_cycles.size() == chunks &&
         second_phase(r).chunk_cycles.size() == chunks;
}

/// Absolute completion cycle of each *output* row block, from the layer's
/// absolute consumer-phase timeline: output rows r are done when the second
/// phase has consumed every chunk of intermediate row block r (the GEMM has
/// accumulated all F columns for AC; the Aggregation has folded all
/// neighbors for CA). `done_abs` empty means no chunk timeline — a single
/// block completing at `finish_abs`.
std::vector<std::uint64_t> output_row_profile(
    const RunResult& r, const std::vector<std::uint64_t>& done_abs,
    std::uint64_t finish_abs, std::size_t* row_block) {
  const ChunkSpec& grid = r.chunk_grid;
  *row_block = std::max<std::size_t>(grid.rows, 1);
  if (done_abs.empty()) return {finish_abs};
  std::vector<std::uint64_t> profile(grid.row_blocks(), 0);
  for (std::size_t i = 0; i < done_abs.size(); ++i) {
    std::uint64_t& slot = profile[row_block_of(grid, i)];
    slot = std::max(slot, done_abs[i]);
  }
  *row_block = std::min(std::max<std::size_t>(grid.row_block, 1),
                        std::max<std::size_t>(grid.rows, 1));
  return profile;
}

}  // namespace

ModelComposer::ModelComposer(const AcceleratorConfig& hw,
                             const CSRGraph& adjacency)
    : hw_(hw) {
  const std::size_t v = adjacency.num_vertices();
  dep_prefix_.resize(v);
  VertexId running = 0;
  for (std::size_t u = 0; u < v; ++u) {
    VertexId m = static_cast<VertexId>(u);
    const auto nbrs = adjacency.neighbors(static_cast<VertexId>(u));
    if (!nbrs.empty()) m = std::max(m, nbrs.back());  // rows are sorted
    running = std::max(running, m);
    dep_prefix_[u] = running;
  }
}

ModelComposition ModelComposer::compose(const std::vector<RunResult>& layers,
                                        ModelCompose mode) const {
  if (mode != ModelCompose::kPipelined) {
    return sequential_composition(layers);
  }
  OMEGA_CHECK(!layers.empty(), "model composition needs >= 1 layer");
  ModelComposition out;
  out.compose = mode;
  out.layer_start.resize(layers.size(), 0);
  out.layer_finish.resize(layers.size(), 0);
  for (const RunResult& r : layers) {
    out.sequential_cycles = sat_add_u64(out.sequential_cycles, r.cycles);
  }
  out.layer_finish[0] = layers[0].cycles;

  // The one place composition expands the compact timelines: the
  // re-tiling below reads them chunk by chunk, with per-chunk floors.
  std::vector<LayerTimelines> timelines(layers.size());
  for (std::size_t l = 0; l < layers.size(); ++l) {
    if (!usable_chunk_timelines(layers[l])) continue;
    timelines[l].head_completion =
        first_phase(layers[l]).chunk_completion.expand();
    timelines[l].head_cycles = first_phase(layers[l]).chunk_cycles.expand();
    timelines[l].tail_cycles = second_phase(layers[l]).chunk_cycles.expand();
  }

  // Absolute consumer-phase completion per chunk of the layer processed
  // last — the producer profile the next boundary re-tiles. Carried forward
  // (rather than recomputed from the RunResult) so a layer whose second
  // phase was floored hands its *stretched* timeline downstream. Empty
  // means no chunk-granular timeline (non-PP layer / missing vectors).
  std::vector<std::uint64_t> prev_done_abs;
  if (layers[0].dataflow.inter == InterPhase::kParallelPipeline &&
      usable_chunk_timelines(layers[0])) {
    prev_done_abs = compose_parallel_pipeline_timeline(
        timelines[0].head_completion, timelines[0].tail_cycles, 0);
  }

  for (std::size_t l = 1; l < layers.size(); ++l) {
    const RunResult& prev = layers[l - 1];
    const RunResult& cur = layers[l];
    const std::uint64_t prev_finish = out.layer_finish[l - 1];
    const std::uint64_t seq_finish = sat_add_u64(prev_finish, cur.cycles);
    BoundaryComposition b;
    std::uint64_t start = prev_finish;   // sequential fallback
    std::uint64_t finish = seq_finish;
    std::vector<std::uint64_t> cur_done_abs;  // replaces prev_done_abs below

    // GB residency of the inter-layer intermediate: overlapping the layers
    // keeps layer l-1's whole output live while both layers' ping-pong
    // partitions also occupy the buffer.
    const std::uint64_t inter_bytes = sat_mul_u64(
        sat_mul_u64(prev.num_rows, prev.out_features), hw_.element_bytes);
    const std::uint64_t partition_bytes = sat_mul_u64(
        sat_add_u64(prev.intermediate_buffer_elements,
                    cur.intermediate_buffer_elements),
        hw_.element_bytes);
    b.resident = sat_add_u64(inter_bytes, partition_bytes) <= hw_.gb_bytes;

    const bool both_pp =
        prev.dataflow.inter == InterPhase::kParallelPipeline &&
        cur.dataflow.inter == InterPhase::kParallelPipeline;
    // During the overlap window [start_l, prev_finish) the previous layer's
    // draining second phase and this layer's ramping first phase run
    // concurrently; their PP partitions must fit the array side by side.
    // This layer's *second* phase is floored at prev_finish (below), so it
    // never competes for PEs inside the window: at prev_finish the previous
    // layer's partition frees and the array holds exactly this layer's own
    // full split again.
    const bool pes_fit =
        second_phase_pes(prev) + first_phase_pes(cur) <= hw_.num_pes;

    const LayerTimelines& tl = timelines[l];
    const ChunkSpec& grid = cur.chunk_grid;
    const std::size_t chunks = grid.num_chunks();
    const bool ac = cur.dataflow.phase_order == PhaseOrder::kAC;
    // Scatter-order Aggregation reads arbitrary input rows from its first
    // step; only gather orders (V outside N) have the row-prefix
    // dependency structure chunk-granular overlap relies on.
    const bool scatter = ac && cur.dataflow.agg.order.depth_of(Dim::kV) >
                                   cur.dataflow.agg.order.depth_of(Dim::kN);
    const bool chunked = usable_chunk_timelines(cur) &&
                         grid.rows == dep_prefix_.size() &&
                         monotone_timeline(tl.head_completion,
                                           tl.head_cycles);

    if (!both_pp) {
      b.reason = "both boundary layers must be parallel-pipelined";
    } else if (!pes_fit) {
      b.reason = "boundary phases exceed the PE array side by side";
    } else if (!b.resident) {
      b.reason = "inter-layer intermediate does not fit the global buffer";
    } else if (prev.intermediate_spilled || cur.intermediate_spilled) {
      b.reason = "a boundary layer spills its intermediate to DRAM";
    } else if (!chunked || scatter) {
      b.reason = scatter
                     ? "scatter-order consumer reads arbitrary rows up front"
                     : "consumer has no monotone chunk timeline to overlap";
    } else {
      // Producer: when does each output row block of layer l-1 land
      // (absolute cycles, carried forward so a stretched producer timeline
      // is seen as stretched)?
      std::size_t prod_row_block = 0;
      const std::vector<std::uint64_t> profile = output_row_profile(
          prev, prev_done_abs, prev_finish, &prod_row_block);

      // Consumer: which producer row does each first-phase chunk need?
      std::vector<std::size_t> dep_rows;
      dep_rows.reserve(chunks);
      const std::size_t rb =
          std::min(std::max<std::size_t>(grid.row_block, 1), grid.rows);
      for (std::size_t i = 0; i < chunks; ++i) {
        const std::size_t rblk = row_block_of(grid, i);
        const std::size_t last_row = std::min((rblk + 1) * rb, grid.rows) - 1;
        dep_rows.push_back(ac ? dep_prefix_[last_row] : last_row);
      }
      const std::vector<std::uint64_t> ready = retile_row_completion(
          profile, prev.num_rows, prod_row_block, dep_rows);

      // Floor on the head phase's start: (a) layer l-1's first phase has
      // released its array partition, (b) layer l-2 has fully finished —
      // at most two layers are ever in flight, which is what makes the
      // pairwise PE and residency gates above sufficient for arbitrarily
      // long overlap chains (without it, a short middle layer would let
      // l's first phase run concurrently with l-2's unchecked drain).
      std::uint64_t floor =
          sat_add_u64(out.layer_start[l - 1], first_phase(prev).cycles);
      if (l >= 2) floor = std::max(floor, out.layer_finish[l - 2]);

      // Elastic re-simulation: instead of shifting the whole layer by the
      // worst chunk's slack (a rigid shift lets one late dependency erase
      // the overlap every earlier chunk had), re-run the head phase with
      // each chunk floored at its own dependency's landing time. Chunks
      // whose rows landed early run back-to-back; a late row stalls only
      // the chunks behind it. The head's own timeline is back-to-back
      // (the monotone gate above), so chunk_cycles fully describe it.
      const std::vector<std::uint64_t> head_done_abs =
          compose_parallel_pipeline_timeline(ready, tl.head_cycles, floor);
      // The second phase cannot issue before prev_finish (its partition is
      // still held by the draining layer): re-run the intra-layer
      // recurrence with that floor. The boundary overlaps only when the
      // early head start more than pays for the stretch.
      const std::vector<std::uint64_t> done_abs =
          compose_parallel_pipeline_timeline(head_done_abs, tl.tail_cycles,
                                             prev_finish);
      const std::uint64_t overlapped_finish = done_abs.back();
      if (overlapped_finish < seq_finish) {
        b.overlapped = true;
        b.saved_cycles = seq_finish - overlapped_finish;
        ++out.overlapped_boundaries;
        // First head chunk issues at max(its dependency, the floor); cap at
        // prev_finish to keep layer starts monotone in degenerate cases.
        start = std::min(std::max(ready.front(), floor), prev_finish);
        finish = overlapped_finish;
        cur_done_abs = done_abs;
      } else {
        b.reason = "dependencies leave no overlap window";
      }
    }

    if (!b.overlapped && cur.dataflow.inter == InterPhase::kParallelPipeline &&
        usable_chunk_timelines(cur)) {
      // Sequentially-placed layer: its unstretched timeline, offset to its
      // start, still serves as the next boundary's producer profile.
      const std::vector<std::uint64_t> done_rel =
          compose_parallel_pipeline_timeline(tl.head_completion,
                                             tl.tail_cycles, 0);
      cur_done_abs.reserve(done_rel.size());
      for (const std::uint64_t d : done_rel) {
        cur_done_abs.push_back(sat_add_u64(start, d));
      }
    }

    out.boundaries.push_back(std::move(b));
    out.layer_start[l] = start;
    out.layer_finish[l] = finish;
    prev_done_abs = std::move(cur_done_abs);
  }

  out.cycles = out.layer_finish.back();
  return out;
}

}  // namespace omega
