// Figure 14: PP runtimes under different PE allocations (Agg-Cmb splits of
// 25-75 / 50-50 / 75-25) and pipelining granularities (PP1 = fine rows,
// PP3 = coarse rows), normalized to the 50-50 low-granularity point, for
// Collab, Mutag and Citeseer.
#include "bench_common.hpp"

static int harness() {
  using namespace omega;
  using namespace omega::bench;
  banner("Fig. 14 — PP load balancing across PE allocations");

  const Omega omega(default_accelerator());
  const std::vector<double> fractions{0.25, 0.5, 0.75};

  for (const char* ds : {"Collab", "Mutag", "Citeseer"}) {
    const GnnWorkload& w = workload(ds);
    TextTable t({"granularity", "alloc (Agg-Cmb)", "tiles", "cycles",
                 "norm to 50-50 low"});
    double base = 0.0;
    for (const char* cfg : {"PP1", "PP3"}) {
      for (const double frac : fractions) {
        DataflowPattern p = pattern_by_name(cfg);
        p.pp_agg_pe_fraction = frac;
        const RunResult r = omega.run_pattern(w, eval_layer(), p);
        // omega-lint: allow(float-eq): 0.5 is an exact grid value from the fractions list
        if (std::string(cfg) == "PP1" && frac == 0.5) {
          base = static_cast<double>(r.cycles);
        }
        const std::string alloc = std::to_string(static_cast<int>(frac * 100)) +
                                  "-" +
                                  std::to_string(static_cast<int>(100 - frac * 100));
        t.add_row({std::string(cfg) + (cfg == std::string("PP1") ? " (low)"
                                                                 : " (high)"),
                   alloc, tile_tuple(r.dataflow), with_commas(r.cycles),
                   base > 0 ? fixed(static_cast<double>(r.cycles) / base, 3)
                            : "-"});
      }
    }
    emit(std::string("Fig 14: PE allocation sweep — ") + ds, t,
         std::string("fig14_") + to_lower(ds) + ".csv");
  }

  std::cout << "\nPaper shape check: Collab (dense, Agg-heavy) suffers at "
               "25-75; Citeseer (Cmb-heavy) suffers at 75-25; Mutag is "
               "happiest near 50-50.\n";
  return 0;
}

int main() { return omega::bench::run_harness("fig14_load_balance", harness); }
