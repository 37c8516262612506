// Measurement plumbing shared by every workload of the layer benchmark:
// sample sets with the percentile rule, the per-run result and its JSON
// line, the layer recorder that times public calls into a trace, and the
// process's peak resident set.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Samples that must lie beyond a percentile before it may be reported.
inline constexpr std::size_t kSamplesBeyond = 10;

/// Samples strictly above the nearest-rank position of percentile `p` in a
/// set of `n`: n - ceil(p/100 * n).
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double p);

/// The highest of `ladder` (any order) that has at least kSamplesBeyond
/// samples beyond it in a set of `n`; nullopt when none has.
[[nodiscard]] std::optional<double> highest_supported_percentile(
    std::size_t n, const std::vector<double>& ladder);

/// Sample count a percentile needs: the smallest n with kSamplesBeyond
/// samples beyond `p`.
[[nodiscard]] std::size_t samples_needed(double p);

/// Percentile of `values` (linear interpolation, obs/quantile.hpp); 0 when
/// empty.
[[nodiscard]] double percentile_of(const std::vector<double>& values, double p);
[[nodiscard]] double median_of(const std::vector<double>& values);

/// Peak resident set of this process in MiB (getrusage ru_maxrss).
[[nodiscard]] double rss_peak_mib();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  // 0 = a count or a ratio, not a sample statistic
};

/// Everything one run reports. `e2e` is printed with --trace 0, `layers`
/// with --trace 1; `report` holds the human-readable lines printed above
/// the JSON line.
struct BenchResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> e2e;
  std::vector<Metric> layers;
  std::vector<std::string> report;

  /// Records a failed operation with the reason in the report.
  void fail(const std::string& why);
  void add_e2e(std::string name, double value, std::string unit,
               std::size_t samples = 0);
  void add_layer(std::string name, double value, std::string unit,
                 std::size_t samples = 0);
};

/// `m` as one aligned report line: name, value, unit, sample count.
[[nodiscard]] std::string format_metric(const Metric& m);

/// "<prefix>_p<q>_ms" at the highest of p50/p90/p99 up to `wanted` that has
/// kSamplesBeyond samples beyond it — the percentile rule, renaming the
/// metric when the wanted percentile lacks samples; nullopt when even p50
/// does.
[[nodiscard]] std::optional<Metric> latency_percentile(
    const std::string& prefix, const std::vector<double>& ms, double wanted);

/// The last stdout line: {"correct","attempted","failed","metrics"}.
[[nodiscard]] std::string result_json(const BenchResult& r,
                                      const std::vector<Metric>& metrics);

/// Times public calls into the library for the traced run: each call gets
/// its own span in the collector (category = the module) and its duration in
/// nanosecond resolution under `name`. With a null collector nothing is
/// recorded, so the untimed paths stay free of instrumentation.
class LayerRecorder {
 public:
  explicit LayerRecorder(omega::obs::TraceCollector* trace) : trace_(trace) {}

  [[nodiscard]] omega::obs::TraceCollector* trace() const { return trace_; }

  /// Runs `fn` inside a span and records its wall time in microseconds
  /// (also when `fn` throws). Thread-safe.
  template <typename Fn>
  decltype(auto) time(std::string_view name, std::string_view module,
                      Fn&& fn) {
    if (trace_ == nullptr) return fn();
    const omega::obs::ScopedSpan span(trace_, name, module);
    const Stopwatch watch(this, name);
    return fn();
  }

  void add(std::string_view name, double value_us);
  /// Copy of the samples recorded under `name` (empty when none).
  [[nodiscard]] std::vector<double> samples(std::string_view name) const;

 private:
  struct Stopwatch {
    LayerRecorder* self;
    std::string_view name;
    Clock::time_point t0;
    Stopwatch(LayerRecorder* s, std::string_view n)
        : self(s), name(n), t0(Clock::now()) {}
    Stopwatch(const Stopwatch&) = delete;
    Stopwatch& operator=(const Stopwatch&) = delete;
    ~Stopwatch() {
      self->add(name, std::chrono::duration<double, std::micro>(
                          Clock::now() - t0)
                          .count());
    }
  };

  omega::obs::TraceCollector* trace_;
  mutable std::mutex mutex_;
  std::map<std::string, std::vector<double>, std::less<>> samples_;
};

/// Self time of every span in the collector: its duration minus the part
/// of it covered by spans nested inside it on the same thread. Returns
/// name -> per-span self times (microseconds).
[[nodiscard]] std::map<std::string, std::vector<double>> span_self_times(
    const omega::obs::TraceCollector& trace);

}  // namespace perfbench
