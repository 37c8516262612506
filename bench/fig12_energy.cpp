// Figure 12: on-chip buffer access energy of the Table V dataflows (GB vs
// RF vs the PP intermediate partition), with DRAM spill energy reported
// separately, matching the paper's on-chip characterization.
#include "bench_common.hpp"

static int harness() {
  using namespace omega;
  using namespace omega::bench;
  banner("Fig. 12 — on-chip buffer access energy");

  const Omega omega(default_accelerator());

  TextTable t({"dataset", "config", "GB(uJ)", "RF(uJ)", "IntBuf(uJ)",
               "on-chip(uJ)", "DRAM(uJ)", "norm-to-Seq1"});
  for (const auto& w : workloads()) {
    double seq1 = 0.0;
    for (const auto& p : table5_patterns()) {
      const RunResult r = omega.run_pattern(w, eval_layer(), p);
      const double on_chip = r.energy.on_chip_pj();
      if (p.name == "Seq1") seq1 = on_chip;
      t.add_row({w.name, p.name, fixed(r.energy.gb_pj / 1e6, 3),
                 fixed(r.energy.rf_pj / 1e6, 3),
                 fixed(r.energy.partition_pj / 1e6, 3),
                 fixed(on_chip / 1e6, 3), fixed(r.energy.dram_pj / 1e6, 3),
                 fixed(on_chip / seq1, 3)});
    }
  }
  emit("Fig 12: energy breakdown per dataflow", t, "fig12_energy.csv");

  std::cout << "\nPaper shape check: GB reads dominate; SP rows have no "
               "intermediate traffic; PP intermediate goes through the "
               "cheaper partition; pipelining energy gain is modest.\n";
  return 0;
}

int main() { return omega::bench::run_harness("fig12_energy", harness); }
