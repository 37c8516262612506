// Cross-layer composition: the pipeline-recurrence overflow regressions,
// the 128-bit bandwidth-scaling regression, the chunk-grid re-tiling rule,
// and the ModelComposer's boundary gates (residency, PE disjointness,
// strategy eligibility) on hand-built and engine-produced layer results.
#include <gtest/gtest.h>

#include <iterator>
#include <limits>

#include "gnn/inference.hpp"
#include "graph/generators.hpp"
#include "omega/compose.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

#include "chunk_timeline_oracle.hpp"

namespace omega {
namespace {

constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();

// ---- Overflow regressions ---------------------------------------------------

/// compose_parallel_pipeline on the compact forms of per-chunk vectors.
std::uint64_t compose_pp(const std::vector<std::uint64_t>& producer,
                         const std::vector<std::uint64_t>& consumer,
                         std::uint64_t consumer_start = 0) {
  return compose_parallel_pipeline(compress_completions(producer),
                                   compress_durations(consumer),
                                   consumer_start);
}

TEST(ComposeOverflowTest, ParallelPipelineSaturatesInsteadOfWrapping) {
  // Regression: `start + consumer_chunk_cycles[i]` wrapped u64, reporting a
  // near-zero makespan for near-UINT64_MAX chunk cycles. The recurrence now
  // saturates, so the ordering "pipelined >= any single chunk" survives.
  const std::vector<std::uint64_t> producer{kMax - 10, kMax - 5};
  const std::vector<std::uint64_t> consumer{100, 100};
  EXPECT_EQ(compose_pp(producer, consumer), kMax);
  EXPECT_EQ(compose_parallel_pipeline_timeline(producer, consumer).back(),
            kMax);

  // Single-chunk variant right at the edge: no saturation needed.
  EXPECT_EQ(compose_pp({kMax - 10}, {10}), kMax);
  // And one past the edge saturates.
  EXPECT_EQ(compose_pp({kMax - 10}, {11}), kMax);

  // The consumer-side accumulation alone can also wrap.
  const std::vector<std::uint64_t> zero_producer{0, 0, 0};
  const std::vector<std::uint64_t> huge_consumer{kMax / 2, kMax / 2, kMax / 2};
  EXPECT_EQ(compose_pp(zero_producer, huge_consumer), kMax);
  // So can a run of them, composed in closed form.
  EXPECT_EQ(compose_pp(std::vector<std::uint64_t>(1000, 0),
                       std::vector<std::uint64_t>(1000, kMax / 500)),
            kMax);
}

TEST(ComposeOverflowTest, TimelineMatchesScalarRecurrence) {
  const std::vector<std::uint64_t> producer{5, 12, 30, 31};
  const std::vector<std::uint64_t> consumer{4, 4, 4, 4};
  const std::vector<std::uint64_t> done =
      compose_parallel_pipeline_timeline(producer, consumer);
  ASSERT_EQ(done.size(), 4u);
  EXPECT_EQ(done[0], 9u);   // max(5,0)+4
  EXPECT_EQ(done[1], 16u);  // max(12,9)+4
  EXPECT_EQ(done[2], 34u);  // max(30,16)+4
  EXPECT_EQ(done[3], 38u);  // max(31,34)+4
  EXPECT_EQ(done.back(), compose_pp(producer, consumer));
}

TEST(ComposeOverflowTest, RunWiseComposeMatchesPerChunkRecurrence) {
  // Random run structures on both sides, run values drawn from the regimes
  // the closed form distinguishes (producer increment below, at or above
  // the consumer duration) and from the saturating extreme, with start
  // floors: the run-wise recurrence must equal the per-chunk one exactly.
  Rng rng(20260);
  const std::uint64_t picks[] = {0, 1, 2, 3, 7, 64, 1000, kMax / 4096,
                                 kMax / 3, kMax};
  const auto value = [&] {
    return rng.next_below(4) == 0 ? picks[rng.next_below(std::size(picks))]
                                  : rng.next_below(40);
  };
  const auto random_runs = [&](ChunkTimeline t, std::size_t chunks) {
    while (t.size() < chunks) {
      const std::size_t left = chunks - t.size();
      t.append(value(), 1 + rng.next_below(std::min<std::size_t>(left, 9)));
    }
    return t;
  };
  std::size_t multi_run = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const std::size_t chunks = 1 + rng.next_below(trial % 4 == 0 ? 3 : 120);
    const ChunkTimeline producer = random_runs(
        ChunkTimeline(ChunkTimeline::Kind::kCompletions), chunks);
    const ChunkTimeline consumer = random_runs(ChunkTimeline(), chunks);
    const std::uint64_t floor =
        trial % 3 == 0 ? 0 : picks[rng.next_below(std::size(picks))];
    multi_run += producer.runs() > 1 && consumer.runs() > 1;
    const std::vector<std::uint64_t> done = compose_parallel_pipeline_timeline(
        producer.expand(), consumer.expand(), floor);
    ASSERT_EQ(compose_parallel_pipeline(producer, consumer, floor),
              done.back())
        << "trial " << trial;
  }
  EXPECT_GT(multi_run, 2000u);
}

TEST(ComposeOverflowTest, ScaledBandwidthComputesIn128Bit) {
  // Regression: `bw * part` wrapped std::size_t before the divide for large
  // configured bandwidths, handing a PP phase a garbage share.
  const std::size_t huge = std::numeric_limits<std::size_t>::max() / 2;
  EXPECT_EQ(scaled_bandwidth(huge, 256, 512), huge / 2);
  EXPECT_EQ(scaled_bandwidth(huge, 512, 512), huge);
  // Floor at 1 element/cycle survives.
  EXPECT_EQ(scaled_bandwidth(1, 1, 512), 1u);
  // kUnbounded passes through untouched.
  EXPECT_EQ(scaled_bandwidth(AcceleratorConfig::kUnbounded, 1, 512),
            AcceleratorConfig::kUnbounded);
}

// ---- Re-tiling --------------------------------------------------------------

TEST(RetileTest, MapsDependencyRowsThroughMismatchedGrids) {
  // Producer: 6 rows in blocks of 2 -> 3 blocks, completing at 10/50/20
  // (out of order: a column-major producer can finish a later row block
  // first). The prefix max makes the ready function monotone.
  const std::vector<std::uint64_t> blocks{10, 50, 20};
  const std::vector<std::size_t> deps{0, 1, 2, 3, 4, 5};
  const std::vector<std::uint64_t> ready =
      retile_row_completion(blocks, 6, 2, deps);
  const std::vector<std::uint64_t> want{10, 10, 50, 50, 50, 50};
  EXPECT_EQ(ready, want);
}

TEST(RetileTest, ClampsOutOfRangeRowsAndDegenerateBlocks) {
  const std::vector<std::uint64_t> blocks{7, 9};
  // Dep row far past the grid clamps to the last block.
  EXPECT_EQ(retile_row_completion(blocks, 4, 2, {99}),
            (std::vector<std::uint64_t>{9}));
  // row_block == 0 means a single all-covering block.
  EXPECT_EQ(retile_row_completion({42}, 4, 0, {0, 3}),
            (std::vector<std::uint64_t>{42, 42}));
  // Coarse producer grid onto a fine consumer: every dep in block 0.
  EXPECT_EQ(retile_row_completion({17}, 8, 8, {0, 2, 7}),
            (std::vector<std::uint64_t>{17, 17, 17}));
}

// ---- ModelComposer on hand-built layers -------------------------------------

/// A synthetic PP layer over `rows` rows with `blocks` row blocks (single
/// column block): the first phase finishes block i at (i+1)*phase_step, the
/// second phase takes phase_step per block.
RunResult synthetic_pp_layer(std::size_t rows, std::size_t blocks,
                             std::uint64_t phase_step, std::size_t in_f,
                             std::size_t out_f) {
  RunResult r;
  r.dataflow = DataflowDescriptor::parse("PP_AC(VtFsNt, VsGsFt)");
  r.num_rows = rows;
  r.in_features = in_f;
  r.out_features = out_f;
  r.pes_agg = 16;
  r.pes_cmb = 16;
  r.pipeline_chunks = blocks;
  r.intermediate_buffer_elements = 8;
  r.chunk_grid.rows = rows;
  r.chunk_grid.cols = in_f;
  r.chunk_grid.row_block = (rows + blocks - 1) / blocks;
  r.chunk_grid.col_block = in_f;  // one column block
  // Back-to-back phases: each chunk completes one phase_step later.
  r.agg.chunk_cycles.append(phase_step, blocks);
  r.agg.chunk_completion.append(phase_step, blocks);
  r.cmb.chunk_cycles.append(phase_step, blocks);
  r.cmb.chunk_completion.append(phase_step, blocks);
  r.agg.cycles = blocks * phase_step;
  r.cmb.cycles = blocks * phase_step;
  r.cycles = compose_parallel_pipeline(r.agg.chunk_completion,
                                       r.cmb.chunk_cycles);
  return r;
}

AcceleratorConfig synthetic_hw() {
  AcceleratorConfig hw;
  hw.num_pes = 64;
  return hw;
}

TEST(ModelComposerTest, BandedGraphOverlapsAndBeatsSequentialStrictly) {
  // Path graph: row block r depends on rows <= 2r+2, which the producer
  // finishes long before its own tail — the consumer slides under it.
  const CSRGraph g = path_graph(8).with_self_loops();
  const ModelComposer composer(synthetic_hw(), g);
  const std::vector<RunResult> layers{
      synthetic_pp_layer(8, 4, 10, 32, 16),
      synthetic_pp_layer(8, 4, 10, 16, 8),
  };
  const ModelComposition seq =
      composer.compose(layers, ModelCompose::kSequential);
  EXPECT_EQ(seq.cycles, seq.sequential_cycles);
  EXPECT_EQ(seq.cycles, layers[0].cycles + layers[1].cycles);
  EXPECT_EQ(seq.overlapped_boundaries, 0u);

  const ModelComposition pipe =
      composer.compose(layers, ModelCompose::kPipelined);
  EXPECT_EQ(pipe.sequential_cycles, seq.sequential_cycles);
  EXPECT_LT(pipe.cycles, pipe.sequential_cycles);  // strict overlap win
  EXPECT_EQ(pipe.overlapped_boundaries, 1u);
  ASSERT_EQ(pipe.boundaries.size(), 1u);
  EXPECT_TRUE(pipe.boundaries[0].overlapped);
  EXPECT_TRUE(pipe.boundaries[0].resident);
  EXPECT_EQ(pipe.boundaries[0].saved_cycles,
            pipe.sequential_cycles - pipe.cycles);
  // The consumer still cannot start before the producer's first phase has
  // released the array partition.
  EXPECT_GE(pipe.layer_start[1], layers[0].agg.cycles);
  // Exact timeline: layer 1's chunk i begins at 10*i and needs producer
  // rows <= 2i+2, i.e. producer block i+1, ready at done[i+1] = 20+10*(i+1).
  // The binding chunk forces a shift of 40 -> 10 cycles of overlap.
  EXPECT_EQ(pipe.layer_start[1], 40u);
  EXPECT_EQ(pipe.cycles, 40u + layers[1].cycles);
}

TEST(ModelComposerTest, MismatchedChunkGridsRetile) {
  // Producer carves 8 rows into 4 blocks; consumer uses 2 coarser blocks
  // (a different c_f choice). The boundary still overlaps: consumer block 0
  // needs producer rows <= 4 (block 2 of 4), not the whole output.
  const CSRGraph g = path_graph(8).with_self_loops();
  const ModelComposer composer(synthetic_hw(), g);
  const std::vector<RunResult> layers{
      synthetic_pp_layer(8, 4, 10, 32, 16),
      synthetic_pp_layer(8, 2, 20, 16, 8),
  };
  const ModelComposition pipe =
      composer.compose(layers, ModelCompose::kPipelined);
  EXPECT_LT(pipe.cycles, pipe.sequential_cycles);
  EXPECT_EQ(pipe.overlapped_boundaries, 1u);
}

TEST(ModelComposerTest, SequentialStrategiesDoNotOverlap) {
  const CSRGraph g = path_graph(8).with_self_loops();
  const ModelComposer composer(synthetic_hw(), g);
  std::vector<RunResult> layers{
      synthetic_pp_layer(8, 4, 10, 32, 16),
      synthetic_pp_layer(8, 4, 10, 16, 8),
  };
  layers[0].dataflow = DataflowDescriptor::parse("Seq_AC(VtNtFt, VtFtGt)");
  const ModelComposition pipe =
      composer.compose(layers, ModelCompose::kPipelined);
  EXPECT_EQ(pipe.cycles, pipe.sequential_cycles);
  EXPECT_EQ(pipe.overlapped_boundaries, 0u);
  EXPECT_FALSE(pipe.boundaries[0].reason.empty());
}

TEST(ModelComposerTest, ResidencyGateFallsBackToSequential) {
  // Same layers, but a global buffer too small to hold the inter-layer
  // intermediate alongside both partitions: the boundary must serialize.
  AcceleratorConfig hw = synthetic_hw();
  hw.gb_bytes = 16;  // 8 rows x 16 features x 4 B never fits
  const CSRGraph g = path_graph(8).with_self_loops();
  const ModelComposer composer(hw, g);
  const std::vector<RunResult> layers{
      synthetic_pp_layer(8, 4, 10, 32, 16),
      synthetic_pp_layer(8, 4, 10, 16, 8),
  };
  const ModelComposition pipe =
      composer.compose(layers, ModelCompose::kPipelined);
  EXPECT_EQ(pipe.cycles, pipe.sequential_cycles);
  EXPECT_EQ(pipe.overlapped_boundaries, 0u);
  EXPECT_FALSE(pipe.boundaries[0].resident);
}

TEST(ModelComposerTest, PeDisjointnessGateFallsBackToSequential) {
  AcceleratorConfig hw = synthetic_hw();
  const CSRGraph g = path_graph(8).with_self_loops();
  const ModelComposer composer(hw, g);
  std::vector<RunResult> layers{
      synthetic_pp_layer(8, 4, 10, 32, 16),
      synthetic_pp_layer(8, 4, 10, 16, 8),
  };
  layers[0].pes_cmb = 60;  // draining phase hogs the array
  layers[1].pes_agg = 60;
  const ModelComposition pipe =
      composer.compose(layers, ModelCompose::kPipelined);
  EXPECT_EQ(pipe.cycles, pipe.sequential_cycles);
  EXPECT_EQ(pipe.overlapped_boundaries, 0u);
}

TEST(ModelComposerTest, ChainedBoundariesKeepAtMostTwoLayersInFlight) {
  // Three PP layers where the middle one is tiny: without the
  // finish[l-2] start constraint, layer 2's first phase could run while
  // layer 0 was still draining — a phase pair no pairwise PE gate ever
  // checked. At most two layers may be in flight at any cycle.
  const CSRGraph g = path_graph(8).with_self_loops();
  const ModelComposer composer(synthetic_hw(), g);
  const std::vector<RunResult> layers{
      synthetic_pp_layer(8, 4, 10, 32, 16),
      synthetic_pp_layer(8, 4, 1, 16, 16),  // short middle layer
      synthetic_pp_layer(8, 4, 10, 16, 8),
  };
  const ModelComposition pipe =
      composer.compose(layers, ModelCompose::kPipelined);
  ASSERT_EQ(pipe.layer_start.size(), 3u);
  EXPECT_GE(pipe.layer_start[2], pipe.layer_finish[0]);
  EXPECT_LE(pipe.cycles, pipe.sequential_cycles);
}

TEST(ModelComposerTest, HubGraphDependenciesBlockOverlap) {
  // A star graph's first vertex neighbors the last: every consumer chunk
  // depends on the producer's final rows, so chunk overlap cannot open a
  // window larger than the dependency slack (typically none).
  const CSRGraph g = star_graph(7).with_self_loops();
  const ModelComposer composer(synthetic_hw(), g);
  const std::vector<RunResult> layers{
      synthetic_pp_layer(8, 4, 10, 32, 16),
      synthetic_pp_layer(8, 4, 10, 16, 8),
  };
  const ModelComposition pipe =
      composer.compose(layers, ModelCompose::kPipelined);
  // dep_prefix saturates at V-1 for every row: no chunk can start before
  // the whole producer output is done.
  EXPECT_EQ(pipe.cycles, pipe.sequential_cycles);
  EXPECT_EQ(pipe.overlapped_boundaries, 0u);
}

TEST(ModelComposerTest, SaturatesOnAdversarialCycleCounts) {
  const CSRGraph g = path_graph(8).with_self_loops();
  const ModelComposer composer(synthetic_hw(), g);
  std::vector<RunResult> layers{
      synthetic_pp_layer(8, 4, 10, 32, 16),
      synthetic_pp_layer(8, 4, 10, 16, 8),
  };
  layers[0].cycles = kMax - 5;
  layers[1].cycles = kMax - 5;
  const ModelComposition seq =
      composer.compose(layers, ModelCompose::kSequential);
  EXPECT_EQ(seq.sequential_cycles, kMax);
  EXPECT_EQ(seq.cycles, kMax);
  const ModelComposition pipe =
      composer.compose(layers, ModelCompose::kPipelined);
  EXPECT_LE(pipe.cycles, pipe.sequential_cycles);
}

// ---- run_model end-to-end ---------------------------------------------------

GnnWorkload banded_workload(std::size_t v, std::size_t f) {
  GnnWorkload w;
  w.name = "band";
  w.adjacency = path_graph(v).with_self_loops().gcn_normalized();
  w.in_features = f;
  return w;
}

TEST(RunModelComposeTest, PipelinedPatternOverlapsOnBandedGraph) {
  const GnnWorkload w = banded_workload(2048, 64);
  GnnModelSpec spec;
  spec.feature_widths = {64, 32, 16};
  const Omega omega((AcceleratorConfig()));
  const DataflowPattern& pp3 = pattern_by_name("PP3");
  const ModelRunResult seq =
      run_model(omega, w, spec, pp3, ModelCompose::kSequential);
  const ModelRunResult pipe =
      run_model(omega, w, spec, pp3, ModelCompose::kPipelined);

  // The composition mode must not perturb the per-layer cost model.
  ASSERT_EQ(seq.layers.size(), pipe.layers.size());
  for (std::size_t l = 0; l < seq.layers.size(); ++l) {
    EXPECT_EQ(seq.layers[l].cycles, pipe.layers[l].cycles);
    EXPECT_EQ(seq.layers[l].agg.cycles, pipe.layers[l].agg.cycles);
    EXPECT_EQ(seq.layers[l].cmb.cycles, pipe.layers[l].cmb.cycles);
    EXPECT_DOUBLE_EQ(seq.layers[l].energy.on_chip_pj(),
                     pipe.layers[l].energy.on_chip_pj());
  }
  EXPECT_EQ(seq.total_cycles, seq.sequential_cycles);
  EXPECT_EQ(pipe.sequential_cycles, seq.sequential_cycles);
  EXPECT_DOUBLE_EQ(pipe.total_on_chip_pj, seq.total_on_chip_pj);
  EXPECT_EQ(pipe.total_macs, seq.total_macs);
  // And on this banded graph the PP boundaries genuinely overlap.
  EXPECT_LT(pipe.total_cycles, pipe.sequential_cycles);
  EXPECT_GT(pipe.composition.overlapped_boundaries, 0u);
}

TEST(RunModelComposeTest, FunctionalOutputsIndependentOfComposeMode) {
  // Cross-layer composition is a cost-model concern: the functional path
  // computes identical outputs whichever mode costed the schedule.
  const GnnWorkload w = banded_workload(32, 8);
  const GnnModelSpec spec = gcn_two_layer(8, 6, 4);
  Rng rng(3);
  MatrixF x(32, 8);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t j = 0; j < x.cols(); ++j) {
      x(i, j) = static_cast<float>(rng.uniform() - 0.5);
    }
  }
  std::vector<MatrixF> weights;
  std::vector<std::size_t> dims{8, 6, 4};
  for (std::size_t l = 0; l + 1 < dims.size(); ++l) {
    MatrixF wl(dims[l], dims[l + 1]);
    for (std::size_t i = 0; i < wl.rows(); ++i) {
      for (std::size_t j = 0; j < wl.cols(); ++j) {
        wl(i, j) = static_cast<float>(rng.uniform() - 0.5);
      }
    }
    weights.push_back(std::move(wl));
  }
  const DataflowDescriptor df =
      DataflowDescriptor::parse("PP_AC(VtFsNt, VsGsFt)");
  const MatrixF a = functional_inference(w.adjacency, x, weights, spec, df);
  // Costing the model under either composition leaves the numerics alone.
  const Omega omega((AcceleratorConfig()));
  (void)run_model(omega, w, spec, pattern_by_name("PP1"),
                  ModelCompose::kSequential);
  const MatrixF b = functional_inference(w.adjacency, x, weights, spec, df);
  (void)run_model(omega, w, spec, pattern_by_name("PP1"),
                  ModelCompose::kPipelined);
  const MatrixF c = functional_inference(w.adjacency, x, weights, spec, df);
  ASSERT_EQ(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      EXPECT_EQ(a(i, j), b(i, j));
      EXPECT_EQ(a(i, j), c(i, j));
    }
  }
}

}  // namespace
}  // namespace omega
