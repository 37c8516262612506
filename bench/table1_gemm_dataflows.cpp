// Table I: implications of three classic 2D GEMM dataflows for the
// Combination phase — what is stationary, what streams, and how reduction
// happens — demonstrated quantitatively on one dense layer.
#include "bench_common.hpp"

#include "engine/gemm_engine.hpp"

static int harness() {
  using namespace omega;
  using namespace omega::bench;
  banner("Table I — 2D GEMM dataflow implications (Combination)");

  // One Combination layer: V x F -> V x G at Citeseer-like dimensions.
  const std::size_t v = 1024, f = 256, g = 16;

  struct Row {
    const char* dataflow;
    const char* order;
    TileSizes tiles;
    const char* stationary;
  };
  const std::vector<Row> rows = {
      {"VsGsFt", "VGF", {.v = 32, .n = 1, .f = 1, .g = 16},
       "Output (VG) stationary; A and W stream; temporal reduction"},
      {"GsFsVt", "GFV", {.v = 1, .n = 1, .f = 32, .g = 16},
       "Weight (FG) stationary; A streams; spatial reduction"},
      {"VsFsGt", "VFG", {.v = 32, .n = 1, .f = 16, .g = 1},
       "A (VF) stationary; W streams; spatial reduction"},
  };

  TextTable t({"dataflow", "A reads", "W reads", "Out writes", "Psum", "loads",
               "cycles", "note"});
  for (const auto& row : rows) {
    GemmPhaseConfig cfg;
    cfg.rows = v;
    cfg.inner = f;
    cfg.cols = g;
    cfg.order = LoopOrder::parse(row.order, GnnPhase::kCombination);
    cfg.tiles = row.tiles;
    cfg.pes = 512;
    const PhaseResult r = run_gemm_phase(cfg);
    t.add_row({row.dataflow,
               si_suffix(static_cast<double>(
                   r.traffic.gb_for(TrafficCategory::kIntermediate).reads)),
               si_suffix(static_cast<double>(
                   r.traffic.gb_for(TrafficCategory::kWeight).reads)),
               si_suffix(static_cast<double>(
                   r.traffic.gb_for(TrafficCategory::kOutput).writes)),
               si_suffix(static_cast<double>(
                   r.traffic.gb_for(TrafficCategory::kPsum).total())),
               with_commas(r.load_cycles), with_commas(r.cycles),
               row.stationary});
  }
  emit("Table 1: stationarity and traffic per dataflow", t,
       "table1_gemm_dataflows.csv");

  std::cout << "\nPaper shape check: the stationary operand is fetched "
               "once (V*F or F*G), the streaming operands multiply by the "
               "outer tile count, and only the output-stationary form "
               "avoids spatial-reduction hardware.\n";
  return 0;
}

int main() {
  return omega::bench::run_harness("table1_gemm_dataflows", harness);
}
