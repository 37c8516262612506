// perfbench_layers: one workload run of the layer benchmark.
//
//   perfbench_layers --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--trace-out <path>]
//   perfbench_layers --list-metrics
//
// Prints a human-readable report (workload, seed, every metric with its
// unit and sample count), then as the last line one JSON object
// {"correct","attempted","failed","metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Exit code 0 unless the
// arguments are bad or the run threw.
#include <exception>
#include <iomanip>
#include <iostream>
#include <string>

#include "util/json.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int usage() {
  std::cerr << "usage: perfbench_layers --workload "
               "<dse-sweep-rmat16|dse-budget-cora|service-mix-tcp> --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH]\n"
               "       perfbench_layers --list-metrics\n";
  return 2;
}

void list_metrics() {
  omega::JsonWriter w;
  w.begin_object();
  const auto list = [&](const char* key, std::span<const MetricSpec> specs) {
    w.key(key).begin_array();
    for (const MetricSpec& m : specs) {
      w.begin_object();
      w.member("name", m.name);
      w.member("unit", m.unit);
      w.end_object();
    }
    w.end_array();
  };
  list("end_to_end", e2e_catalog());
  list("per_layer", layer_catalog());
  w.end_object();
  std::cout << w.str() << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--list-metrics") {
      list_metrics();
      return 0;
    }
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        args.workload = v;
        have_workload = true;
      } else if (a == "--seed") {
        args.seed = std::stoull(v);
        have_seed = true;
      } else if (a == "--seconds") {
        args.seconds = std::stod(v);
        have_seconds = args.seconds > 0.0;
      } else if (a == "--trace") {
        if (v != "0" && v != "1") return usage();
        args.trace = v == "1";
        have_trace = true;
      } else if (a == "--trace-out") {
        args.trace_out = v;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return usage();
  }

  BenchResult r;
  try {
    if (args.workload == "dse-sweep-rmat16") {
      r = run_dse_sweep(args);
    } else if (args.workload == "dse-budget-cora") {
      r = run_dse_budget(args);
    } else if (args.workload == "service-mix-tcp") {
      r = run_service_mix(args);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench_layers: " << args.workload << ": " << e.what()
              << "\n";
    return 1;
  }
  if (args.trace) complete_layers(r);

  std::cout << "# workload " << args.workload << ", seed " << args.seed
            << ", " << args.seconds << " s, trace " << (args.trace ? 1 : 0)
            << "\n";
  for (const std::string& line : r.report) std::cout << "# " << line << "\n";
  const std::vector<Metric>& metrics = args.trace ? r.layers : r.e2e;
  for (const Metric& m : metrics) std::cout << format_metric(m) << "\n";
  std::cout << "  error_rate " << std::setprecision(6)
            << (r.attempted > 0 ? static_cast<double>(r.failed) /
                                      static_cast<double>(r.attempted)
                                : 0.0)
            << " (" << r.failed << " failed of " << r.attempted
            << " attempted)\n";
  std::cout << result_json(r, metrics) << std::endl;
  return 0;
}
