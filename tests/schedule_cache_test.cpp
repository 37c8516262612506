// Evaluation-reuse layer tests: cached (WorkloadContext) and uncached
// Omega::run must be bit-identical across gather/scatter orders, all four
// inter-phase strategies and skewed graphs; the caches themselves must
// dedupe transposes and lane schedules.
#include <gtest/gtest.h>

#include "dse/search.hpp"
#include <functional>
#include <utility>

#include "engine/schedule_cache.hpp"
#include "graph/generators.hpp"
#include "omega/omega.hpp"
#include "omega/pipeline.hpp"

namespace omega {
namespace {

GnnWorkload make_workload(CSRGraph g, std::size_t f, const char* name) {
  GnnWorkload w;
  w.name = name;
  w.adjacency = std::move(g).with_self_loops().gcn_normalized();
  w.in_features = f;
  return w;
}

GnnWorkload uniform_workload() {
  Rng rng(11);
  return make_workload(erdos_renyi(128, 700, rng), 32, "uniform");
}

GnnWorkload skewed_workload() {
  Rng rng(13);
  // Power-law tail: the "evil row" path that stresses the lane schedule.
  return make_workload(lognormal_chung_lu(160, 1200, 1.5, rng), 24, "skewed");
}

GnnWorkload rmat_workload() {
  Rng rng(17);
  return make_workload(rmat(8, 1500, rng), 16, "rmat");
}

AcceleratorConfig small_hw() {
  AcceleratorConfig hw;
  hw.num_pes = 64;
  return hw;
}

void expect_identical(const RunResult& a, const RunResult& b,
                      const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.pipeline_chunks, b.pipeline_chunks);
  EXPECT_EQ(a.pipeline_elements, b.pipeline_elements);
  EXPECT_EQ(a.intermediate_buffer_elements, b.intermediate_buffer_elements);
  EXPECT_EQ(a.intermediate_spilled, b.intermediate_spilled);

  const auto expect_phase = [](const PhaseResult& x, const PhaseResult& y) {
    EXPECT_EQ(x.cycles, y.cycles);
    EXPECT_EQ(x.issue_steps, y.issue_steps);
    EXPECT_EQ(x.load_cycles, y.load_cycles);
    EXPECT_EQ(x.stall_cycles, y.stall_cycles);
    EXPECT_EQ(x.psum_cycles, y.psum_cycles);
    EXPECT_EQ(x.fill_cycles, y.fill_cycles);
    EXPECT_EQ(x.macs, y.macs);
    EXPECT_EQ(x.active_pe_cycles, y.active_pe_cycles);
    EXPECT_EQ(x.chunk_cycles, y.chunk_cycles);
    EXPECT_EQ(x.chunk_completion, y.chunk_completion);
    for (std::size_t c = 0; c < kNumTrafficCategories; ++c) {
      EXPECT_EQ(x.traffic.gb[c].reads, y.traffic.gb[c].reads);
      EXPECT_EQ(x.traffic.gb[c].writes, y.traffic.gb[c].writes);
    }
    EXPECT_EQ(x.traffic.rf.reads, y.traffic.rf.reads);
    EXPECT_EQ(x.traffic.rf.writes, y.traffic.rf.writes);
    EXPECT_EQ(x.traffic.dram.reads, y.traffic.dram.reads);
    EXPECT_EQ(x.traffic.dram.writes, y.traffic.dram.writes);
    EXPECT_EQ(x.traffic.intermediate_partition.reads,
              y.traffic.intermediate_partition.reads);
    EXPECT_EQ(x.traffic.intermediate_partition.writes,
              y.traffic.intermediate_partition.writes);
  };
  expect_phase(a.agg, b.agg);
  expect_phase(a.cmb, b.cmb);
  // pJ values are pure functions of the (identical) traffic counters.
  EXPECT_EQ(a.energy.total_pj(), b.energy.total_pj());
}

/// Sweeps the full candidate generator (every inter-phase mode, gather and
/// scatter orders, both phase orders) and checks cached == uncached.
void check_parity_over_search_space(const GnnWorkload& w) {
  const Omega omega(small_hw());
  const LayerSpec layer{16};
  SearchOptions opt;
  opt.include_ca = true;  // CA adds the scatter-heavy half of the space
  const auto candidates = enumerate_search_candidates(
      opt, dims_of(w, layer), omega.config().num_pes);
  ASSERT_GT(candidates.size(), 100u);

  const WorkloadContext context(w.adjacency);
  std::array<bool, 4> mode_seen{};
  std::size_t compared = 0;
  for (std::size_t i = 0; i < candidates.size(); i += 7) {  // sample broadly
    const DataflowDescriptor& df = candidates[i];
    RunResult uncached;
    try {
      uncached = omega.run(w, layer, df);
    } catch (const Error&) {
      continue;  // infeasible on this substrate either way
    }
    const RunResult cached = omega.run(w, layer, df, context);
    expect_identical(cached, uncached, w.name + ": " + df.to_string());
    mode_seen[static_cast<std::size_t>(df.inter)] = true;
    ++compared;
  }
  EXPECT_GE(compared, 20u);
  EXPECT_TRUE(mode_seen[static_cast<std::size_t>(InterPhase::kSequential)]);
  EXPECT_TRUE(mode_seen[static_cast<std::size_t>(InterPhase::kSPGeneric)]);
  EXPECT_TRUE(mode_seen[static_cast<std::size_t>(InterPhase::kSPOptimized)]);
  EXPECT_TRUE(
      mode_seen[static_cast<std::size_t>(InterPhase::kParallelPipeline)]);
  // The whole sweep shares one transpose and a handful of schedules.
  EXPECT_LT(context.schedule_cache_size(), compared);
}

TEST(ScheduleCacheParityTest, UniformGraph) {
  check_parity_over_search_space(uniform_workload());
}

TEST(ScheduleCacheParityTest, SkewedGraph) {
  check_parity_over_search_space(skewed_workload());
}

TEST(ScheduleCacheParityTest, RmatGraph) {
  check_parity_over_search_space(rmat_workload());
}

TEST(ScheduleCacheParityTest, GatherAndScatterSeqDescriptors) {
  // Explicit named descriptors on the skewed graph: a gather order (V
  // outside N) and a scatter order (N outside V) under Seq.
  const GnnWorkload w = skewed_workload();
  const Omega omega(small_hw());
  const LayerSpec layer{16};
  const WorkloadContext context(w.adjacency);
  for (const char* text :
       {"Seq_AC(VsFsNt, VsGsFt)", "Seq_AC(NtVsFs, VsGsFt)"}) {
    auto df = DataflowDescriptor::parse(text);
    df.agg.tiles = {.v = 8, .n = 1, .f = 8, .g = 1};
    df.cmb.tiles = {.v = 8, .n = 1, .f = 1, .g = 8};
    if (df.agg.order.depth_of(Dim::kV) > df.agg.order.depth_of(Dim::kN)) {
      df.agg.tiles = {.v = 1, .n = 8, .f = 8, .g = 1};
    }
    expect_identical(omega.run(w, layer, df, context), omega.run(w, layer, df),
                     text);
  }
}

TEST(SharedTransposeTest, CachedAndShared) {
  Rng rng(3);
  const CSRGraph g = erdos_renyi(64, 256, rng);
  const auto t1 = g.shared_transposed();
  const auto t2 = g.shared_transposed();
  EXPECT_EQ(t1.get(), t2.get());  // one instance, shared

  // Same structure as an eager transpose.
  const CSRGraph eager = g.transposed();
  EXPECT_EQ(t1->vertex_array(), eager.vertex_array());
  EXPECT_EQ(t1->edge_array(), eager.edge_array());
}

TEST(SharedTransposeTest, CopyDropsCacheAndMutationInvalidates) {
  Rng rng(4);
  CSRGraph g = erdos_renyi(48, 200, rng);
  const auto before = g.shared_transposed();

  CSRGraph copy = g;  // copies must not alias a possibly-stale cache
  std::vector<float> vals(copy.num_edges(), 2.5f);
  copy.set_values(std::move(vals));
  const auto after = copy.shared_transposed();
  EXPECT_NE(before.get(), after.get());
  EXPECT_TRUE(after->has_values());
  EXPECT_FALSE(before->has_values());

  // set_values on the original invalidates its cache too.
  g.set_values(std::vector<float>(g.num_edges(), 1.5f));
  const auto rebuilt = g.shared_transposed();
  EXPECT_NE(before.get(), rebuilt.get());
  EXPECT_FLOAT_EQ(rebuilt->values().front(), 1.5f);
}

TEST(LaneScheduleTest, PrefixMaxMatchesAnIndependentLaneWalk) {
  Rng rng(5);
  const CSRGraph g = lognormal_chung_lu(96, 700, 1.5, rng);
  for (const auto& [lanes, width] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {8, 2}, {1, 1}, {3, 5}, {200, 1}}) {
    SCOPED_TRACE(std::to_string(lanes) + " lanes x " + std::to_string(width));
    const LaneSchedule s = build_lane_schedule(g, lanes, width);
    // Lane by lane: lane l walks rows l, l + lanes, ... and finishes each
    // row after the trips of every earlier row it walked.
    std::vector<std::uint64_t> finish(g.num_vertices(), 0);
    std::uint64_t total = 0;
    std::uint64_t slowest = 0;
    for (std::size_t l = 0; l < lanes; ++l) {
      std::uint64_t clock = 0;
      for (std::size_t r = l; r < g.num_vertices(); r += lanes) {
        const std::size_t deg = g.degree(static_cast<VertexId>(r));
        const std::uint64_t trips =
            deg == 0 ? 1 : (deg + width - 1) / width;
        clock += trips;
        total += trips;
        finish[r] = clock;
      }
      slowest = std::max(slowest, clock);
    }
    ASSERT_EQ(s.row_finish_prefix.size(), g.num_vertices());
    std::uint64_t running = 0;
    for (std::size_t r = 0; r < finish.size(); ++r) {
      running = std::max(running, finish[r]);
      EXPECT_EQ(s.row_finish_prefix[r], running) << "row " << r;
    }
    EXPECT_EQ(s.total_steps, total);
    EXPECT_EQ(s.critical_path, slowest);
    EXPECT_EQ(s.row_finish_prefix.back(), s.critical_path);
  }
}

TEST(WorkloadContextTest, SchedulesAreMemoized) {
  const GnnWorkload w = uniform_workload();
  const WorkloadContext context(w.adjacency);
  const auto a = context.lane_schedule(true, 8, 2);
  const auto b = context.lane_schedule(true, 8, 2);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(context.schedule_cache_size(), 1u);
  const auto c = context.lane_schedule(false, 8, 2);  // reverse walk differs
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(context.schedule_cache_size(), 2u);
}

/// Applies each mutation to a copy of `base` and expects a key different
/// from `base`'s; an unmutated copy must give an equal key.
template <typename Config>
void expect_every_field_keyed(
    const Config& base,
    const std::vector<std::pair<const char*, std::function<void(Config&)>>>&
        mutations) {
  const Config copy = base;
  EXPECT_EQ(term_key(copy), term_key(base));
  EXPECT_EQ(EvalTermKeyHash{}(term_key(copy)),
            EvalTermKeyHash{}(term_key(base)));
  for (const auto& [field, mutate] : mutations) {
    Config m = base;
    mutate(m);
    EXPECT_FALSE(term_key(m) == term_key(base)) << field;
  }
}

/// A chunked, flag-free config so every boolean and every chunk field has a
/// value to flip away from.
ChunkSpec keyed_chunks() {
  ChunkSpec c;
  c.rows = 64;
  c.cols = 16;
  c.row_block = 8;
  c.col_block = 4;
  c.major = TraversalMajor::kRowMajor;
  return c;
}

TEST(TermKeyTest, EveryGemmFieldChangesTheKey) {
  GemmPhaseConfig g;
  g.rows = 64;
  g.inner = 32;
  g.cols = 16;
  g.order = LoopOrder::parse("VGF", GnnPhase::kCombination);
  g.tiles = {.v = 4, .n = 1, .f = 2, .g = 2};
  g.pes = 64;
  g.bw_dist = 32;
  g.bw_red = 16;
  g.chunks = keyed_chunks();
  g.chunk_target = ChunkTarget::kMatrixA;
  using M = std::function<void(GemmPhaseConfig&)>;
  expect_every_field_keyed<GemmPhaseConfig>(
      g, {
             {"order", M([](auto& c) {
                c.order = LoopOrder::parse("GVF", GnnPhase::kCombination);
              })},
             {"rows", M([](auto& c) { c.rows = 65; })},
             {"inner", M([](auto& c) { c.inner = 33; })},
             {"cols", M([](auto& c) { c.cols = 17; })},
             {"tiles.v", M([](auto& c) { c.tiles.v = 8; })},
             {"tiles.f", M([](auto& c) { c.tiles.f = 4; })},
             {"tiles.g", M([](auto& c) { c.tiles.g = 4; })},
             {"pes", M([](auto& c) { c.pes = 128; })},
             {"bw_dist", M([](auto& c) { c.bw_dist = 33; })},
             {"bw_red", M([](auto& c) { c.bw_red = 17; })},
             {"rf_elements", M([](auto& c) { c.rf_elements = 32; })},
             {"a_from_rf", M([](auto& c) { c.a_from_rf = true; })},
             {"out_to_rf", M([](auto& c) { c.out_to_rf = true; })},
             {"a_stream_bw", M([](auto& c) { c.a_stream_bw = 8; })},
             {"out_drain_bw", M([](auto& c) { c.out_drain_bw = 8; })},
             {"a_in_dram", M([](auto& c) { c.a_in_dram = true; })},
             {"out_in_dram", M([](auto& c) { c.out_in_dram = true; })},
             {"a_category",
              M([](auto& c) { c.a_category = TrafficCategory::kInput; })},
             {"b_category",
              M([](auto& c) { c.b_category = TrafficCategory::kInput; })},
             {"out_category",
              M([](auto& c) {
                c.out_category = TrafficCategory::kIntermediate;
              })},
             {"a_via_partition", M([](auto& c) { c.a_via_partition = true; })},
             {"out_via_partition",
              M([](auto& c) { c.out_via_partition = true; })},
             {"chunks.rows", M([](auto& c) { c.chunks.rows = 65; })},
             {"chunks.cols", M([](auto& c) { c.chunks.cols = 17; })},
             {"chunks.row_block", M([](auto& c) { c.chunks.row_block = 16; })},
             {"chunks.col_block", M([](auto& c) { c.chunks.col_block = 8; })},
             {"chunks.major",
              M([](auto& c) {
                c.chunks.major = TraversalMajor::kColumnMajor;
              })},
             {"chunk_target",
              M([](auto& c) { c.chunk_target = ChunkTarget::kMatrixOut; })},
         });
}

TEST(TermKeyTest, EverySpmmFieldChangesTheKey) {
  const GnnWorkload w = uniform_workload();
  SpmmPhaseConfig s;
  s.graph = &w.adjacency;
  s.feat = 32;
  s.order = LoopOrder::parse("VFN", GnnPhase::kAggregation);
  s.tiles = {.v = 4, .n = 2, .f = 2, .g = 1};
  s.pes = 64;
  s.bw_dist = 32;
  s.bw_red = 16;
  s.chunks = keyed_chunks();
  s.chunk_target = ChunkTarget::kMatrixOut;
  using M = std::function<void(SpmmPhaseConfig&)>;
  expect_every_field_keyed<SpmmPhaseConfig>(
      s, {
             {"order", M([](auto& c) {
                c.order = LoopOrder::parse("NVF", GnnPhase::kAggregation);
              })},
             {"feat", M([](auto& c) { c.feat = 33; })},
             {"tiles.v", M([](auto& c) { c.tiles.v = 8; })},
             {"tiles.n", M([](auto& c) { c.tiles.n = 4; })},
             {"tiles.f", M([](auto& c) { c.tiles.f = 4; })},
             {"pes", M([](auto& c) { c.pes = 128; })},
             {"bw_dist", M([](auto& c) { c.bw_dist = 33; })},
             {"bw_red", M([](auto& c) { c.bw_red = 17; })},
             {"rf_elements", M([](auto& c) { c.rf_elements = 32; })},
             {"out_to_rf", M([](auto& c) { c.out_to_rf = true; })},
             {"b_from_rf", M([](auto& c) { c.b_from_rf = true; })},
             {"b_stream_bw", M([](auto& c) { c.b_stream_bw = 8; })},
             {"out_drain_bw", M([](auto& c) { c.out_drain_bw = 8; })},
             {"b_in_dram", M([](auto& c) { c.b_in_dram = true; })},
             {"out_in_dram", M([](auto& c) { c.out_in_dram = true; })},
             {"b_category",
              M([](auto& c) {
                c.b_category = TrafficCategory::kIntermediate;
              })},
             {"out_category",
              M([](auto& c) { c.out_category = TrafficCategory::kOutput; })},
             {"b_via_partition", M([](auto& c) { c.b_via_partition = true; })},
             {"out_via_partition",
              M([](auto& c) { c.out_via_partition = true; })},
             {"chunks.rows", M([](auto& c) { c.chunks.rows = 65; })},
             {"chunks.cols", M([](auto& c) { c.chunks.cols = 17; })},
             {"chunks.row_block", M([](auto& c) { c.chunks.row_block = 16; })},
             {"chunks.col_block", M([](auto& c) { c.chunks.col_block = 8; })},
             {"chunks.major",
              M([](auto& c) {
                c.chunks.major = TraversalMajor::kColumnMajor;
              })},
             {"chunk_target",
              M([](auto& c) { c.chunk_target = ChunkTarget::kMatrixA; })},
         });
}

TEST(TermKeyTest, SpmmAndGemmKeysNeverCollide) {
  // Zero-extent configs make every shared word equal; the engine tag alone
  // must still separate them.
  GemmPhaseConfig g;
  SpmmPhaseConfig s;
  EXPECT_NE(term_key(g).w[0], term_key(s).w[0]);
}

TEST(SimulatePhaseTest, MisBoundSpmmContextThrows) {
  const GnnWorkload w = uniform_workload();
  const GnnWorkload other = skewed_workload();
  const WorkloadContext wrong(other.adjacency);
  PhaseEngineConfig cfg;
  cfg.spmm.graph = &w.adjacency;
  cfg.spmm.context = &wrong;
  cfg.spmm.feat = 16;
  cfg.spmm.order = LoopOrder::parse("VFN", GnnPhase::kAggregation);
  cfg.spmm.tiles = {.v = 4, .n = 1, .f = 4, .g = 1};
  cfg.spmm.pes = 64;
  EXPECT_THROW((void)simulate_phase(cfg, &wrong), Error);
  EXPECT_EQ(wrong.phase_cache_size(), 0u);  // nothing memoized for it

  // The same binding through run_pipeline: the classic chain's spmm phase
  // gets the mis-bound context and fails before touching the memo.
  const Omega omega(small_hw());
  const PipelineSpec spec = two_phase_pipeline(
      DataflowDescriptor::parse("Seq_AC(VsFsNt, VsGsFt)"), LayerSpec{16},
      omega.config().num_pes);
  EXPECT_THROW((void)omega.run_pipeline(w, spec, &wrong), Error);
  EXPECT_EQ(wrong.phase_cache_size(), 0u);

  // Correctly bound, both paths memoize.
  const WorkloadContext right(w.adjacency);
  cfg.spmm.context = &right;
  EXPECT_NO_THROW((void)simulate_phase(cfg, &right));
  EXPECT_EQ(right.phase_cache_size(), 1u);
}

TEST(SimulatePhaseTest, PhaseMemoSizeAfterAFixedSearchIsPinned) {
  // A fixed classic-chain search plus a stride of cached Omega::run calls on
  // one context. The count is the number of distinct memo keys the memo
  // admitted; it changes only if the key's equivalence classes (or the
  // big-grid refusal) change.
  const GnnWorkload w = skewed_workload();
  const Omega omega(small_hw());
  const LayerSpec layer{16};
  SearchOptions opt;
  opt.include_ca = true;
  opt.max_candidates = 400;
  opt.threads = 1;
  const WorkloadContext context(w.adjacency);
  (void)search_mappings(omega, w, layer, opt, &context);
  EXPECT_EQ(context.phase_cache_size(), 689u);

  const auto candidates = enumerate_search_candidates(
      opt, dims_of(w, layer), omega.config().num_pes);
  for (std::size_t i = 0; i < candidates.size(); i += 11) {
    try {
      (void)omega.run(w, layer, candidates[i], context);
    } catch (const Error&) {
    }
  }
  EXPECT_EQ(context.phase_cache_size(), 4004u);
  EXPECT_EQ(context.phase_memo_overflow(), 0u);
}

TEST(RmatGeneratorTest, DeterministicAndSkewed) {
  Rng rng1(21), rng2(21);
  const CSRGraph a = rmat(10, 8000, rng1);
  const CSRGraph b = rmat(10, 8000, rng2);
  EXPECT_EQ(a.edge_array(), b.edge_array());
  EXPECT_EQ(a.num_vertices(), 1024u);
  a.validate();
  // Dedup drops some duplicates but the bulk must arrive...
  EXPECT_GT(a.num_edges(), 6000u);
  // ...and the default quadrant skew concentrates degree mass well above a
  // uniform graph's tail (avg degree ~8, uniform max is far below 8x).
  EXPECT_GT(a.max_degree(), static_cast<std::size_t>(4.0 * a.avg_degree()));
}

}  // namespace
}  // namespace omega
