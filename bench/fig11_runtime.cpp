// Figure 11: runtimes of the nine Table V dataflows normalized to Seq1 for
// a GCN layer (G = 16) on every Table IV workload, with the tile tuples the
// paper prints in brackets. PE utilization is near 100% by construction.
#include "bench_common.hpp"

static int harness() {
  using namespace omega;
  using namespace omega::bench;
  banner("Fig. 11 — dataflow runtimes normalized to Seq1 (GCN)");

  const Omega omega(default_accelerator());

  std::vector<std::string> header{"dataset", "cat"};
  for (const auto& p : table5_patterns()) header.push_back(p.name);
  TextTable norm(header);
  TextTable cycles(header);
  TextTable tiles(header);

  for (const auto& w : workloads()) {
    std::vector<std::string> nrow{w.name, to_string(w.category)};
    std::vector<std::string> crow = nrow;
    std::vector<std::string> trow = nrow;
    double seq1 = 0.0;
    for (const auto& p : table5_patterns()) {
      const RunResult r = omega.run_pattern(w, eval_layer(), p);
      if (p.name == "Seq1") seq1 = static_cast<double>(r.cycles);
      nrow.push_back(fixed(static_cast<double>(r.cycles) / seq1, 3));
      crow.push_back(with_commas(r.cycles));
      trow.push_back(tile_tuple(r.dataflow));
    }
    norm.add_row(std::move(nrow));
    cycles.add_row(std::move(crow));
    tiles.add_row(std::move(trow));
  }

  emit("Fig 11: runtime normalized to Seq1", norm, "fig11_normalized.csv");
  emit("Fig 11 (supplement): absolute cycles", cycles, "fig11_cycles.csv");
  emit("Fig 11 (supplement): bound tile sizes "
       "(T_VAGG,T_N,T_FAGG,T_VCMB,T_G,T_FCMB)",
       tiles, "fig11_tiles.csv");

  std::cout << "\nPaper shape check: SP2 competitive or best outside HF; "
               "SP/PP roughly halve Seq on HF (spill avoidance); SPhighV "
               "evil-row bound on skewed graphs.\n";
  return 0;
}

int main() { return omega::bench::run_harness("fig11_runtime", harness); }
