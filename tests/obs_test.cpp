// Observability-layer tests: histogram bucket boundaries and quantile
// exactness, snapshot merge determinism across shard counts and thread
// counts, the shared percentile helper, trace-event JSON structure
// (parsed back through util/json and schema-checked), and the schedule
// exporter's determinism contract (a pure function of PipelineResult:
// byte-identical output, tid-0 span == total cycles, chunk slices inside
// their phase's span).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "graph/datasets.hpp"
#include "graph/stats.hpp"
#include "obs/metrics.hpp"
#include "obs/quantile.hpp"
#include "obs/schedule_trace.hpp"
#include "obs/trace.hpp"
#include "omega/pipeline.hpp"
#include "util/json.hpp"

namespace omega {
namespace {

// ---- Histogram buckets ------------------------------------------------------

TEST(HistogramTest, SmallValuesBucketExactly) {
  // Below 2^(kSubBucketBits+1) = 16 every value is its own bucket.
  for (std::uint64_t v = 0; v < 16; ++v) {
    EXPECT_EQ(obs::Histogram::bucket_index(v), v);
    EXPECT_EQ(obs::Histogram::bucket_lower_bound(v), v);
  }
  EXPECT_EQ(obs::Histogram::bucket_index(16), 16u);
}

TEST(HistogramTest, LowerBoundsAreMonotoneAndConsistent) {
  // Every value lands in a bucket whose [lower, next-lower) range holds it.
  const std::vector<std::uint64_t> probes{
      0,   1,    15,   16,        17,        31,         32,  100,
      255, 1000, 4095, 123456789, 1u << 30,  std::uint64_t{1} << 40};
  for (const std::uint64_t v : probes) {
    const std::size_t idx = obs::Histogram::bucket_index(v);
    EXPECT_LE(obs::Histogram::bucket_lower_bound(idx), v) << "value " << v;
    EXPECT_GT(obs::Histogram::bucket_lower_bound(idx + 1), v) << "value " << v;
  }
  for (std::size_t i = 0; i + 1 < 200; ++i) {
    EXPECT_LT(obs::Histogram::bucket_lower_bound(i),
              obs::Histogram::bucket_lower_bound(i + 1));
    // Round-trip: a bucket's lower bound indexes back to the same bucket.
    EXPECT_EQ(obs::Histogram::bucket_index(obs::Histogram::bucket_lower_bound(i)),
              i);
  }
}

TEST(HistogramTest, RelativeErrorStaysUnderSubBucketResolution) {
  // The class contract: the reported lower bound is within 12.5% of the
  // recorded value (one sub-bucket of the octave).
  for (std::uint64_t v = 16; v < (1u << 20); v = v * 9 / 8 + 1) {
    const std::uint64_t lo =
        obs::Histogram::bucket_lower_bound(obs::Histogram::bucket_index(v));
    EXPECT_LE(static_cast<double>(v - lo), 0.125 * static_cast<double>(v))
        << "value " << v;
  }
}

TEST(HistogramTest, QuantilesExactForSmallValues) {
  obs::Histogram h;
  for (std::uint64_t v = 1; v <= 10; ++v) h.record(v);
  EXPECT_EQ(h.count(), 10u);
  EXPECT_EQ(h.sum(), 55u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 10u);
  // Nearest rank: p50 -> 5th smallest = 5; p90 -> 9th = 9; p99 -> 10th = 10.
  EXPECT_EQ(h.value_at_percentile(50.0), 5u);
  EXPECT_EQ(h.value_at_percentile(90.0), 9u);
  EXPECT_EQ(h.value_at_percentile(99.0), 10u);
  EXPECT_EQ(h.value_at_percentile(0.0), 1u);
  EXPECT_EQ(h.value_at_percentile(100.0), 10u);
}

TEST(HistogramTest, EmptyHistogramReportsZeros) {
  const obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.value_at_percentile(99.0), 0u);
  EXPECT_TRUE(h.nonzero_buckets().empty());
}

TEST(HistogramTest, MergeIsExactAndShardCountInvariant) {
  // The same multiset of samples sharded 1 / 3 / 7 ways merges to an
  // identical histogram — the property that makes per-thread collection
  // reduce deterministically.
  std::vector<std::uint64_t> samples;
  std::uint64_t x = 12345;
  for (int i = 0; i < 1000; ++i) {
    x = x * 6364136223846793005u + 1442695040888963407u;  // LCG, fixed seed
    samples.push_back(x % 100000);
  }
  obs::Histogram reference;
  for (const std::uint64_t s : samples) reference.record(s);

  for (const std::size_t shards : {std::size_t{1}, std::size_t{3},
                                   std::size_t{7}}) {
    std::vector<obs::Histogram> parts(shards);
    for (std::size_t i = 0; i < samples.size(); ++i) {
      parts[i % shards].record(samples[i]);
    }
    obs::Histogram merged;
    for (const obs::Histogram& p : parts) merged.merge(p);
    EXPECT_EQ(merged, reference) << shards << " shards";
  }
}

// ---- Metrics registry -------------------------------------------------------

TEST(MetricsRegistryTest, CounterTotalsAreThreadCountInvariant) {
  // 1, 2 and 8 threads splitting the same work must produce byte-identical
  // snapshots (the registry's counters are plain sums).
  const std::size_t total = 9600;
  std::string reference_json;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    obs::MetricsRegistry reg;
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&reg, t, threads, total] {
        obs::MetricsRegistry::Counter& a = reg.counter("test.alpha");
        for (std::size_t i = t; i < total; i += threads) {
          a.fetch_add(1, std::memory_order_relaxed);
          reg.add("test.beta", 2);
        }
      });
    }
    for (std::thread& th : pool) th.join();
    reg.set_gauge("test.gamma", 3.5);
    const obs::MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counters.at("test.alpha"), total);
    EXPECT_EQ(snap.counters.at("test.beta"), 2 * total);
    const std::string json = reg.to_json();
    if (reference_json.empty()) {
      reference_json = json;
    } else {
      EXPECT_EQ(json, reference_json) << threads << " threads";
    }
  }
}

TEST(MetricsRegistryTest, SnapshotMergeAddsCountersAndMergesHistograms) {
  obs::MetricsRegistry a;
  obs::MetricsRegistry b;
  a.add("x", 3);
  b.add("x", 4);
  b.add("y", 1);
  a.observe("lat", 5);
  b.observe("lat", 7);
  obs::MetricsSnapshot s = a.snapshot();
  s.merge(b.snapshot());
  EXPECT_EQ(s.counters.at("x"), 7u);
  EXPECT_EQ(s.counters.at("y"), 1u);
  EXPECT_EQ(s.histograms.at("lat").count(), 2u);
  EXPECT_EQ(s.histograms.at("lat").sum(), 12u);
}

TEST(MetricsRegistryTest, JsonSnapshotParsesAndCarriesPercentiles) {
  obs::MetricsRegistry reg;
  reg.add("service.requests", 4);
  reg.set_gauge("registry.capacity", 8.0);
  for (std::uint64_t v = 1; v <= 10; ++v) reg.observe("service.latency_us", v);
  const JsonValue doc = JsonValue::parse(reg.to_json());
  ASSERT_TRUE(doc.is_object());
  const JsonValue* counters = doc.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->find("service.requests")->as_u64(), 4u);
  EXPECT_DOUBLE_EQ(doc.find("gauges")->find("registry.capacity")->as_double(),
                   8.0);
  const JsonValue* lat = doc.find("histograms")->find("service.latency_us");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->find("count")->as_u64(), 10u);
  EXPECT_EQ(lat->find("p50")->as_u64(), 5u);
  EXPECT_EQ(lat->find("p99")->as_u64(), 10u);
  ASSERT_NE(lat->find("buckets"), nullptr);
  EXPECT_EQ(lat->find("buckets")->items().size(), 10u);
}

// ---- Shared quantile helper -------------------------------------------------

TEST(QuantileTest, MatchesLinearInterpolationConvention) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(obs::percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(obs::percentile(v, 50.0), 2.5);  // rank 1.5
  EXPECT_DOUBLE_EQ(obs::percentile(v, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(obs::percentile({42.0}, 99.0), 42.0);
  // Unsorted input sorts internally.
  EXPECT_DOUBLE_EQ(obs::percentile({4.0, 1.0, 3.0, 2.0}, 50.0), 2.5);
}

TEST(QuantileTest, GraphDegreeStatsDelegateToTheSharedHelper) {
  // graph::percentile (size_t overload, kept for the degree stats) must
  // agree with the obs helper on the same data.
  const std::vector<std::size_t> degrees{3, 1, 4, 1, 5, 9, 2, 6};
  std::vector<double> as_double(degrees.begin(), degrees.end());
  EXPECT_DOUBLE_EQ(percentile(degrees, 50.0),
                   obs::percentile(as_double, 50.0));
  EXPECT_DOUBLE_EQ(percentile(degrees, 99.0),
                   obs::percentile(as_double, 99.0));
}

// ---- Trace events -----------------------------------------------------------

TEST(TraceTest, NullCollectorSpanIsANoOp) {
  obs::ScopedSpan span(nullptr, "nothing", "test");
  span.arg("ignored", 1);
  // Destructor must not crash; nothing observable to assert beyond that.
}

TEST(TraceTest, SpansEmitSchemaValidChromeTraceJson) {
  obs::TraceCollector tc;
  tc.name_process(0, "test.process");
  {
    obs::ScopedSpan outer(&tc, "outer", "test");
    outer.arg("items", 3);
    { obs::ScopedSpan inner(&tc, "inner", "test"); }
  }
  ASSERT_EQ(tc.size(), 3u);  // process_name + inner + outer

  const JsonValue doc = JsonValue::parse(tc.to_json());
  ASSERT_TRUE(doc.is_object());
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  bool saw_outer = false;
  for (const JsonValue& e : events->items()) {
    // Chrome trace-event schema: every event needs name/ph/ts/pid/tid;
    // complete ("X") events additionally need dur.
    ASSERT_NE(e.find("name"), nullptr);
    ASSERT_NE(e.find("ph"), nullptr);
    ASSERT_NE(e.find("ts"), nullptr);
    ASSERT_NE(e.find("pid"), nullptr);
    ASSERT_NE(e.find("tid"), nullptr);
    const std::string& ph = e.find("ph")->as_string();
    EXPECT_TRUE(ph == "X" || ph == "M" || ph == "i") << ph;
    if (ph == "X") {
      ASSERT_NE(e.find("dur"), nullptr);
    }
    if (e.find("name")->as_string() == "outer") {
      saw_outer = true;
      EXPECT_EQ(e.find("args")->find("items")->as_u64(), 3u);
      EXPECT_EQ(e.find("cat")->as_string(), "test");
    }
  }
  EXPECT_TRUE(saw_outer);
}

// ---- Schedule exporter ------------------------------------------------------

GnnWorkload cora_workload() {
  SynthesisOptions so;
  so.scale = 0.25;
  return synthesize_workload(dataset_by_name("Cora"), so);
}

PhaseSpec make_phase(const char* name, PhaseEngine engine, const char* order,
                     TileSizes tiles, std::size_t out_features = 0,
                     double density = 1.0) {
  PhaseSpec p;
  p.name = name;
  p.engine = engine;
  p.dataflow = IntraPhaseDataflow::parse(order, taxonomy_phase(engine));
  p.dataflow.tiles = tiles;
  p.out_features = out_features;
  p.weight_density = density;
  return p;
}

PipelineSpec gat_pipeline(InterPhase b0, InterPhase b1) {
  PipelineSpec s;
  s.phases = {
      make_phase("score", PhaseEngine::kDenseDense, "VsFtGs",
                 {.v = 4, .n = 1, .f = 1, .g = 4}, 16),
      make_phase("agg", PhaseEngine::kSparseDense, "NtFsVt",
                 {.v = 1, .n = 2, .f = 8, .g = 1}),
      make_phase("xform", PhaseEngine::kSparseSparse, "GsVtFt",
                 {.v = 1, .n = 1, .f = 1, .g = 8}, 8, 0.5),
  };
  s.boundaries = {b0, b1};
  return s;
}

PipelineResult run_gat(InterPhase b0, InterPhase b1) {
  AcceleratorConfig hw;
  hw.num_pes = 64;
  const Omega omega(hw);
  return omega.run_pipeline(cora_workload(), gat_pipeline(b0, b1));
}

TEST(ScheduleTraceTest, ExportIsDeterministicAndCoversTotalCycles) {
  const PipelineResult r = run_gat(InterPhase::kSPGeneric,
                                   InterPhase::kSequential);
  obs::TraceCollector a;
  obs::TraceCollector b;
  obs::export_pipeline_trace(r, a);
  obs::export_pipeline_trace(r, b);
  // Pure function of the result: two exports render byte-identically.
  EXPECT_EQ(a.to_json(), b.to_json());

  // The tid-0 "pipeline" span covers exactly the modeled total.
  bool found_total = false;
  for (const obs::TraceEvent& e : a.events()) {
    if (e.ph == 'X' && e.tid == 0 && e.name == "pipeline") {
      found_total = true;
      EXPECT_EQ(e.ts_us, 0u);
      EXPECT_EQ(e.dur_us, r.cycles);
    }
  }
  EXPECT_TRUE(found_total);
}

TEST(ScheduleTraceTest, PhaseSpansTileTheTimelineAndChunksStayInside) {
  const PipelineResult r = run_gat(InterPhase::kSPGeneric,
                                   InterPhase::kSequential);
  obs::TraceCollector tc;
  obs::export_pipeline_trace(r, tc);

  // Collect phase spans by tid (1..n) and check chunk slices nest inside.
  const std::size_t n = r.phases.size();
  std::vector<std::uint64_t> phase_start(n, 0);
  std::vector<std::uint64_t> phase_end(n, 0);
  std::uint64_t max_finish = 0;
  for (const obs::TraceEvent& e : tc.events()) {
    if (e.ph != 'X' || e.cat != "phase") continue;
    ASSERT_GE(e.tid, 1u);
    ASSERT_LE(e.tid, n);
    phase_start[e.tid - 1] = e.ts_us;
    phase_end[e.tid - 1] = e.ts_us + e.dur_us;
    max_finish = std::max(max_finish, e.ts_us + e.dur_us);
    EXPECT_EQ(e.dur_us, r.phases[e.tid - 1].result.cycles);
  }
  // Serialized boundaries: the last phase finishes at the pipeline total.
  EXPECT_EQ(max_finish, r.cycles);
  for (const obs::TraceEvent& e : tc.events()) {
    if (e.ph != 'X' || e.cat != "chunk") continue;
    ASSERT_GE(e.tid, 1u);
    ASSERT_LE(e.tid, n);
    EXPECT_GE(e.ts_us, phase_start[e.tid - 1]);
    EXPECT_LE(e.ts_us + e.dur_us, phase_end[e.tid - 1]);
  }
}

TEST(ScheduleTraceTest, OverlappedBoundaryEmitsOverlapWindow) {
  const PipelineResult r = run_gat(InterPhase::kParallelPipeline,
                                   InterPhase::kSequential);
  ASSERT_TRUE(r.boundaries[0].overlapped);
  obs::TraceCollector tc;
  obs::export_pipeline_trace(r, tc);
  bool saw_overlap = false;
  for (const obs::TraceEvent& e : tc.events()) {
    if (e.ph != 'X' || e.cat != "boundary") continue;
    if (e.name.find("score->agg") == 0) {
      saw_overlap = true;
      // The PP pair overlaps, so the boundary event is a window, not a
      // zero-width handoff, and it ends when the producer finishes.
      EXPECT_GT(e.dur_us, 0u);
    }
  }
  EXPECT_TRUE(saw_overlap);
}

TEST(ScheduleTraceTest, ChunkCoalescingRespectsTheEventCap) {
  const PipelineResult r = run_gat(InterPhase::kSPGeneric,
                                   InterPhase::kSequential);
  obs::ScheduleTraceOptions opt;
  opt.max_chunk_events = 4;
  obs::TraceCollector tc;
  obs::export_pipeline_trace(r, tc, opt);
  std::vector<std::size_t> per_tid(r.phases.size() + 2, 0);
  for (const obs::TraceEvent& e : tc.events()) {
    if (e.ph == 'X' && e.cat == "chunk") ++per_tid[e.tid];
  }
  for (const std::size_t c : per_tid) EXPECT_LE(c, 4u);

  // max_chunk_events = 0 drops chunk slices entirely (phase spans only).
  obs::ScheduleTraceOptions none;
  none.max_chunk_events = 0;
  obs::TraceCollector empty;
  obs::export_pipeline_trace(r, empty, none);
  for (const obs::TraceEvent& e : empty.events()) {
    EXPECT_NE(e.cat, "chunk");
  }
}

}  // namespace
}  // namespace omega
