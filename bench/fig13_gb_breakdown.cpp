// Figure 13: global-buffer access breakdown by matrix (Adj, Inp, Int, Wt,
// Op, Psum) for Mutag and Citeseer across the Table V dataflows. PP's
// intermediate partition accesses are shown in the Int column (they replace
// GB traffic); Seq's spilled intermediate shows under DRAM.
#include "bench_common.hpp"

static int harness() {
  using namespace omega;
  using namespace omega::bench;
  banner("Fig. 13 — GB access breakdown (Mutag, Citeseer)");

  const Omega omega(default_accelerator());

  for (const char* ds : {"Mutag", "Citeseer"}) {
    const GnnWorkload& w = workload(ds);
    TextTable t({"config", "tiles", "Adj", "Inp", "Int(+part)", "Wt", "Op",
                 "Psum", "DRAM", "GB total"});
    for (const auto& p : table5_patterns()) {
      const RunResult r = omega.run_pattern(w, eval_layer(), p);
      const auto& tr = r.traffic;
      auto cat = [&](TrafficCategory c) {
        return si_suffix(static_cast<double>(tr.gb_for(c).total()));
      };
      const std::uint64_t int_total =
          tr.gb_for(TrafficCategory::kIntermediate).total() +
          tr.intermediate_partition.total();
      t.add_row({p.name, tile_tuple(r.dataflow),
                 cat(TrafficCategory::kAdjacency), cat(TrafficCategory::kInput),
                 si_suffix(static_cast<double>(int_total)),
                 cat(TrafficCategory::kWeight), cat(TrafficCategory::kOutput),
                 cat(TrafficCategory::kPsum),
                 si_suffix(static_cast<double>(tr.dram.total())),
                 si_suffix(static_cast<double>(tr.gb_total()))});
    }
    emit(std::string("Fig 13: GB accesses by matrix — ") + ds, t,
         std::string("fig13_") + to_lower(ds) + ".csv");
  }

  std::cout << "\nPaper shape check: input accesses dominate the dense HE "
               "sets, weights dominate HF (Cora/Citeseer); Mutag reuses "
               "most; SPhighV shows the psum blow-up.\n";
  return 0;
}

int main() { return omega::bench::run_harness("fig13_gb_breakdown", harness); }
