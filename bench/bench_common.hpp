// Shared support for the benchmark harness: every binary regenerates one
// table or figure of the paper, printing the same rows/series the paper
// reports and dumping a CSV next to the terminal output.
//
// Environment knobs:
//   OMEGA_BENCH_SCALE   workload scale factor (default 1.0 = Table IV scale)
//   OMEGA_BENCH_OUTDIR  directory for CSV dumps (default ./bench_results)
#pragma once

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "graph/datasets.hpp"
#include "graph/stats.hpp"
#include "obs/quantile.hpp"
#include "omega/omega.hpp"
#include "util/error.hpp"
#include "util/format.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"

namespace omega::bench {

/// Environment knobs: unset or empty is `fallback`, anything else must
/// parse strictly (util/parse.hpp, the parser omega_cli's flags use), so a
/// malformed value stops the binary instead of silently changing or
/// disabling what it sets. A count knob must also be positive: every one
/// sizes a workload, a search or a gated sample, and 0 would empty it.
inline std::size_t env_count(const char* name, std::size_t fallback) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return fallback;
  const std::uint64_t value = parse_count(s, name);
  if (value == 0) {
    throw InvalidArgumentError(std::string(name) +
                               " wants a positive integer, got: " + s);
  }
  return value;
}

inline double env_number(const char* name, double fallback) {
  const char* s = std::getenv(name);
  return s == nullptr || *s == '\0' ? fallback : parse_number(s, name);
}

/// OMEGA_BENCH_SCALE; a scale must be positive, so 0 or below is an error
/// rather than a silent full-scale run.
inline double bench_scale() {
  const double v = env_number("OMEGA_BENCH_SCALE", 1.0);
  if (v <= 0.0) {
    throw InvalidArgumentError(
        std::string("OMEGA_BENCH_SCALE wants a positive number, got: ") +
        std::getenv("OMEGA_BENCH_SCALE"));
  }
  return v;
}

/// OMEGA_BENCH_OUTDIR; unset or empty is the default, as for every knob.
inline std::string out_dir() {
  const char* s = std::getenv("OMEGA_BENCH_OUTDIR");
  return s != nullptr && *s != '\0' ? s : "bench_results";
}

/// Synthesizes the Table IV workloads once per binary.
inline const std::vector<GnnWorkload>& workloads() {
  static const std::vector<GnnWorkload> all = [] {
    SynthesisOptions opt;
    opt.scale = bench_scale();
    return synthesize_all_workloads(opt);
  }();
  return all;
}

inline const GnnWorkload& workload(const std::string& name) {
  for (const auto& w : workloads()) {
    if (to_lower(w.name) == to_lower(name)) return w;
  }
  throw InvalidArgumentError("no workload named " + name);
}

/// The paper's evaluation layer: GCN with 16 output features.
inline LayerSpec eval_layer() { return LayerSpec{16}; }

/// Tile tuple in the figures' bracket notation:
/// (T_VAGG, T_N, T_FAGG, T_VCMB, T_G, T_FCMB).
inline std::string tile_tuple(const DataflowDescriptor& df) {
  std::string s;
  for (const std::size_t t : {df.agg.tiles.v, df.agg.tiles.n, df.agg.tiles.f,
                              df.cmb.tiles.v, df.cmb.tiles.g, df.cmb.tiles.f}) {
    s += s.empty() ? "(" : ",";
    s += std::to_string(t);
  }
  return s + ")";
}

inline void emit(const std::string& title, const TextTable& table,
                 const std::string& csv_name) {
  std::cout << "\n== " << title << " ==\n" << table << std::flush;
  const std::string path = out_dir() + "/" + csv_name;
  if (write_file_if_possible(path, table.to_csv())) {
    std::cout << "(csv: " << path << ")\n";
  }
}

/// Median + tail summary of repeated timing samples. Every bench reports
/// through this one path so "median" and "p99" mean the same thing (the
/// shared exact-quantile helper, obs/quantile.hpp) across BENCH_*.json
/// files and the graph-stats percentiles.
struct RepeatSummary {
  double median = 0.0;
  double p99 = 0.0;
  double min = 0.0;
  double max = 0.0;
};

inline RepeatSummary summarize_samples(std::vector<double> samples) {
  RepeatSummary s;
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.median = obs::percentile_sorted(samples, 50.0);
  s.p99 = obs::percentile_sorted(samples, 99.0);
  s.min = samples.front();
  s.max = samples.back();
  return s;
}

/// Runs a harness's body as its main: a rejected knob or input
/// (omega::Error) prints "<name>: <what>" on stderr and exits 1, as
/// omega_cli does, instead of ending in std::terminate.
inline int run_harness(const char* name, int (*body)()) {
  try {
    return body();
  } catch (const Error& e) {
    std::cout << std::flush;
    std::cerr << name << ": " << e.what() << "\n";
    return 1;
  }
}

inline void banner(const std::string& what) {
  const double scale = bench_scale();  // a rejected knob stops before output
  std::cout << "OMEGA reproduction harness — " << what << "\n"
            << "accelerator: " << default_accelerator().summary()
            << "; workload scale " << fixed(scale, 2) << "\n";
}

}  // namespace omega::bench
