// Figure 16: runtime as the global-buffer distribution/reduction bandwidth
// shrinks from 512 to 64 elements/cycle, normalized to Seq1 at 512
// elements. PP shares the ports between its two concurrently running
// phases, so it degrades fastest.
#include "bench_common.hpp"

static int harness() {
  using namespace omega;
  using namespace omega::bench;
  banner("Fig. 16 — bandwidth sensitivity");

  const std::vector<std::size_t> bandwidths{512, 256, 128, 64};
  const std::vector<std::string> configs{"Seq1", "SP2", "PP1", "PP3"};

  for (const char* ds : {"Collab", "Citeseer"}) {
    const GnnWorkload& w = workload(ds);
    std::vector<std::string> header{"config"};
    for (const std::size_t bw : bandwidths) {
      header.push_back("bw=" + std::to_string(bw));
    }
    TextTable t(header);
    double base = 0.0;  // Seq1 at the widest bandwidth
    for (const auto& cfg : configs) {
      std::vector<std::string> row{cfg};
      for (const std::size_t bw : bandwidths) {
        AcceleratorConfig hw = default_accelerator();
        hw.distribution_bandwidth = bw;
        hw.reduction_bandwidth = bw;
        const Omega omega(hw);
        const RunResult r =
            omega.run_pattern(w, eval_layer(), pattern_by_name(cfg));
        if (cfg == "Seq1" && bw == bandwidths.front()) {
          base = static_cast<double>(r.cycles);
        }
        row.push_back(fixed(static_cast<double>(r.cycles) / base, 3));
      }
      t.add_row(std::move(row));
    }
    emit(std::string("Fig 16: runtime vs GB bandwidth — ") + ds, t,
         std::string("fig16_") + to_lower(ds) + ".csv");
  }

  std::cout << "\nPaper shape check: all dataflows slow down as bandwidth "
               "drops; PP suffers most because the two phases contend.\n";
  return 0;
}

int main() { return omega::bench::run_harness("fig16_bandwidth", harness); }
