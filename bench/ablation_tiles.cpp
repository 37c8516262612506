// Ablation (Section V-B1's "T_V should neither be too high nor too low"):
// sweeps T_V for the SP-Optimized dataflow from 8 to 512 on Citeseer and
// Collab, holding T_V * T_F = 512.
#include "bench_common.hpp"

static int harness() {
  using namespace omega;
  using namespace omega::bench;
  banner("Ablation — SP tile-size sweep (T_V vs T_F)");

  const Omega omega(default_accelerator());

  for (const char* ds : {"Citeseer", "Collab", "Mutag"}) {
    const GnnWorkload& w = workload(ds);
    TextTable t({"T_V", "T_F", "agg cycles", "cmb cycles", "total",
                 "psum GB", "norm to best"});
    std::vector<std::array<std::uint64_t, 5>> rows;
    std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t tv = 8; tv <= 512; tv *= 2) {
      const std::size_t tf = 512 / tv;
      auto df = DataflowDescriptor::parse("SP_AC(VsFsNt, VsFsGt)");
      df.agg.tiles = {.v = tv, .n = 1, .f = tf, .g = 1};
      df.cmb.tiles = {.v = tv, .n = 1, .f = tf, .g = 1};
      if (df.validation_error()) continue;
      const RunResult r = omega.run(w, eval_layer(), df);
      rows.push_back({tv, r.agg.cycles, r.cmb.cycles, r.cycles,
                      r.traffic.gb_for(TrafficCategory::kPsum).total()});
      best = std::min(best, r.cycles);
    }
    for (const auto& row : rows) {
      t.add_row({std::to_string(row[0]), std::to_string(512 / row[0]),
                 with_commas(row[1]), with_commas(row[2]),
                 with_commas(row[3]),
                 si_suffix(static_cast<double>(row[4])),
                 fixed(static_cast<double>(row[3]) /
                           static_cast<double>(best), 3)});
    }
    emit(std::string("Tile sweep (SP dataflow) — ") + ds, t,
         std::string("ablation_tiles_") + to_lower(ds) + ".csv");
  }

  std::cout << "\nShape check: skewed graphs (Citeseer) degrade sharply at "
               "extreme T_V (evil rows); dense graphs tolerate high T_V; "
               "tiny T_V underuses vertex parallelism on small-F sets.\n";
  return 0;
}

int main() { return omega::bench::run_harness("ablation_tiles", harness); }
