// Table IV: the evaluated workloads. Prints the specification next to the
// synthesized batch statistics so the substitution (synthetic generators in
// place of the TU-Dortmund/Planetoid files) is auditable.
#include "bench_common.hpp"

static int harness() {
  using namespace omega;
  using namespace omega::bench;
  banner("Table IV — datasets (spec vs synthesized batch)");

  TextTable t({"name", "cat", "#graphs", "batch", "spec nodes(av)",
               "spec edges(av)", "#feat", "batch V", "batch E", "avg deg",
               "max deg", "skew(max/mean)", "density"});
  for (const auto& spec : table4_datasets()) {
    const GnnWorkload& w = workload(spec.name);
    const DegreeStats s = compute_degree_stats(w.adjacency);
    t.add_row({spec.name, to_string(spec.category),
               std::to_string(spec.num_graphs), std::to_string(spec.batch_size),
               fixed(spec.avg_nodes, 2), fixed(spec.avg_edges, 2),
               std::to_string(spec.num_features), with_commas(w.num_vertices()),
               with_commas(w.num_edges()), fixed(s.mean_degree, 2),
               std::to_string(s.max_degree), fixed(s.skew_ratio, 1),
               fixed(100.0 * s.density, 3) + "%"});
  }
  emit("Table 4: dataset statistics", t, "table4_datasets.csv");

  std::cout << "\nNote: batch E includes GCN self-loops; node-classification "
               "sets use lognormal degree tails (evil rows) calibrated to "
               "citation-network skew.\n";
  return 0;
}

int main() { return omega::bench::run_harness("table4_datasets", harness); }
