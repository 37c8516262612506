// Figure 15: dataflow runtimes at 512 vs 2048 PEs (normalized to Seq1 at
// each scale) for Mutag and Citeseer — the relative ordering should
// generalize across accelerator sizes.
#include "bench_common.hpp"

static int harness() {
  using namespace omega;
  using namespace omega::bench;
  banner("Fig. 15 — scalability: 512 vs 2048 PEs");

  for (const char* ds : {"Mutag", "Citeseer"}) {
    const GnnWorkload& w = workload(ds);
    TextTable t({"config", "cycles@512", "norm@512", "cycles@2048",
                 "norm@2048"});
    std::vector<std::pair<std::string, std::array<double, 2>>> norms;
    double seq512 = 0.0, seq2048 = 0.0;
    std::vector<std::array<std::uint64_t, 2>> cyc;
    const Omega omega512(scaled_accelerator(512));
    const Omega omega2048(scaled_accelerator(2048));
    for (const auto& p : table5_patterns()) {
      const RunResult a = omega512.run_pattern(w, eval_layer(), p);
      const RunResult b = omega2048.run_pattern(w, eval_layer(), p);
      if (p.name == "Seq1") {
        seq512 = static_cast<double>(a.cycles);
        seq2048 = static_cast<double>(b.cycles);
      }
      cyc.push_back({a.cycles, b.cycles});
      norms.push_back({p.name,
                       {static_cast<double>(a.cycles),
                        static_cast<double>(b.cycles)}});
    }
    for (std::size_t i = 0; i < norms.size(); ++i) {
      t.add_row({norms[i].first, with_commas(cyc[i][0]),
                 fixed(norms[i].second[0] / seq512, 3),
                 with_commas(cyc[i][1]),
                 fixed(norms[i].second[1] / seq2048, 3)});
    }
    emit(std::string("Fig 15: 512 vs 2048 PEs — ") + ds, t,
         std::string("fig15_") + to_lower(ds) + ".csv");
  }

  std::cout << "\nPaper shape check: normalized runtimes are similar at both "
               "scales, especially for the fast dataflows.\n";
  return 0;
}

int main() { return omega::bench::run_harness("fig15_scalability", harness); }
