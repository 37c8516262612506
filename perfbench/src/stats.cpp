#include "stats.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "obs/quantile.hpp"
#include "util/json.hpp"

namespace perfbench {

std::size_t samples_beyond(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return rank >= n ? 0 : n - rank;
}

std::optional<double> highest_supported_percentile(
    std::size_t n, const std::vector<double>& ladder) {
  std::optional<double> best;
  for (const double p : ladder) {
    if (samples_beyond(n, p) >= kSamplesBeyond && (!best || p > *best)) {
      best = p;
    }
  }
  return best;
}

std::size_t samples_needed(double p) {
  std::size_t n = kSamplesBeyond;
  while (samples_beyond(n, p) < kSamplesBeyond) ++n;
  return n;
}

double percentile_of(const std::vector<double>& values, double p) {
  return values.empty() ? 0.0 : omega::obs::percentile(values, p);
}

double median_of(const std::vector<double>& values) {
  return percentile_of(values, 50.0);
}

double rss_peak_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void BenchResult::fail(const std::string& why) {
  ++failed;
  report.push_back("FAILED: " + why);
}

void BenchResult::add_e2e(std::string name, double value, std::string unit,
                        std::size_t samples) {
  e2e.push_back({std::move(name), value, std::move(unit), samples});
}

void BenchResult::add_layer(std::string name, double value, std::string unit,
                          std::size_t samples) {
  layers.push_back({std::move(name), value, std::move(unit), samples});
}

std::string format_metric(const Metric& m) {
  std::ostringstream os;
  os << "  " << std::left << std::setw(40) << m.name << std::right
     << std::setw(16) << std::setprecision(6) << m.value << " " << m.unit;
  if (m.samples > 0) os << "  (n=" << m.samples << ")";
  return os.str();
}

std::optional<Metric> latency_percentile(const std::string& prefix,
                                         const std::vector<double>& ms,
                                         double wanted) {
  std::vector<double> ladder;
  for (const double p : {50.0, 90.0, 99.0}) {
    if (p <= wanted) ladder.push_back(p);
  }
  const std::optional<double> p = highest_supported_percentile(ms.size(), ladder);
  if (!p) return std::nullopt;
  return Metric{prefix + "_p" + std::to_string(static_cast<int>(*p)) + "_ms",
                percentile_of(ms, *p), "ms", ms.size()};
}

std::string result_json(const BenchResult& r, const std::vector<Metric>& metrics) {
  omega::JsonWriter w;
  w.begin_object();
  w.member("correct", r.failed == 0);
  w.member("attempted", r.attempted);
  w.member("failed", r.failed);
  w.key("metrics").begin_object();
  for (const Metric& m : metrics) {
    w.key(m.name).begin_object();
    w.member("value", std::isfinite(m.value) ? m.value : 0.0);
    w.member("unit", m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.str();
}

void LayerRecorder::add(std::string_view name, double value_us) {
  const std::scoped_lock lock(mutex_);
  auto it = samples_.find(name);
  if (it == samples_.end()) {
    it = samples_.emplace(std::string(name), std::vector<double>{}).first;
  }
  it->second.push_back(value_us);
}

std::vector<double> LayerRecorder::samples(std::string_view name) const {
  const std::scoped_lock lock(mutex_);
  const auto it = samples_.find(name);
  return it == samples_.end() ? std::vector<double>{} : it->second;
}

std::map<std::string, std::vector<double>> span_self_times(
    const omega::obs::TraceCollector& trace) {
  std::vector<omega::obs::TraceEvent> events = trace.events();
  std::erase_if(events,
                [](const omega::obs::TraceEvent& e) { return e.ph != 'X'; });
  // Per thread, in start order (longer span first on ties, so a parent
  // precedes the children that start with it).
  std::sort(events.begin(), events.end(),
            [](const omega::obs::TraceEvent& a,
               const omega::obs::TraceEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
              return a.dur_us > b.dur_us;
            });
  std::vector<double> child_us(events.size(), 0.0);
  std::vector<std::size_t> open;  // stack of enclosing spans
  for (std::size_t i = 0; i < events.size(); ++i) {
    const omega::obs::TraceEvent& e = events[i];
    while (!open.empty()) {
      const omega::obs::TraceEvent& top = events[open.back()];
      if (top.tid == e.tid && e.ts_us + e.dur_us <= top.ts_us + top.dur_us &&
          e.ts_us >= top.ts_us) {
        break;
      }
      open.pop_back();
    }
    if (!open.empty()) {
      child_us[open.back()] += static_cast<double>(e.dur_us);
    }
    open.push_back(i);
  }
  std::map<std::string, std::vector<double>> self;
  for (std::size_t i = 0; i < events.size(); ++i) {
    self[events[i].cat + "." + events[i].name].push_back(std::max(
        0.0, static_cast<double>(events[i].dur_us) - child_us[i]));
  }
  return self;
}

}  // namespace perfbench
