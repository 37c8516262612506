// dse-sweep-rmat16 and dse-budget-cora: searches through
// search_pipeline_mappings in cold-then-warm cycles, each cycle on a fresh
// WorkloadContext.
#include <functional>
#include <memory>
#include <optional>

#include "engine/schedule_cache.hpp"
#include "obs/trace.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace omega;

namespace {

/// Warm searches must return the cold search's ranked list and Pareto set
/// bit for bit.
bool same_result(const PipelineSearchResult& a, const PipelineSearchResult& b) {
  const auto same = [](const std::vector<RankedPipelineCandidate>& x,
                       const std::vector<RankedPipelineCandidate>& y) {
    if (x.size() != y.size()) return false;
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (x[i].key != y[i].key || x[i].cycles != y[i].cycles ||
          x[i].on_chip_pj != y[i].on_chip_pj || x[i].score != y[i].score) {
        return false;
      }
    }
    return true;
  };
  return a.generated == b.generated && a.evaluated == b.evaluated &&
         a.pruned == b.pruned && same(a.ranked, b.ranked) &&
         same(a.pareto, b.pareto);
}

struct DseConfig {
  std::function<GnnWorkload()> make;
  std::vector<SearchSpec> rotation;
  std::size_t warm_rounds_per_cycle = 4;
  std::size_t setups = 3;
};

struct LoopStats {
  std::vector<double> cold_s;   // per cycle: mean cold search over the rotation
  std::vector<double> warm_ms;  // per round: mean warm search over the rotation
  double warm_seconds = 0.0;
  std::uint64_t warm_searches = 0;
  std::uint64_t warm_evaluated = 0;
  std::uint64_t warm_pruned = 0;
  std::unique_ptr<WorkloadContext> last_context;

  /// Candidates decided (evaluated or pruned) per second of warm search.
  [[nodiscard]] double cand_per_s() const {
    return warm_seconds > 0.0
               ? static_cast<double>(warm_evaluated + warm_pruned) /
                     warm_seconds
               : 0.0;
  }
  [[nodiscard]] double per_search(std::uint64_t total) const {
    return warm_searches > 0 ? static_cast<double>(total) /
                                   static_cast<double>(warm_searches)
                             : 0.0;
  }
};

/// Cold-then-warm cycles until `seconds` have passed and `min_rounds` warm
/// rounds are in, or `cap_seconds` have passed.
LoopStats search_loop(const Omega& omega, const GnnWorkload& w,
                      const DseConfig& cfg, double seconds,
                      std::size_t min_rounds, double cap_seconds,
                      obs::TraceCollector* trace, BenchResult& r) {
  LoopStats s;
  const auto start = Clock::now();
  const auto done = [&] {
    const double el = seconds_since(start);
    return el >= cap_seconds ||
           (el >= seconds && !s.cold_s.empty() &&
            s.warm_ms.size() >= min_rounds);
  };
  const auto search = [&](const SearchSpec& spec, const WorkloadContext& ctx,
                          const char* span_name, double& dt) {
    PipelineSearchOptions opt = spec.options;
    opt.trace = trace;
    const obs::ScopedSpan span(trace, span_name, "bench");
    const auto t0 = Clock::now();
    PipelineSearchResult res =
        search_pipeline_mappings(omega, w, spec.chains, opt, &ctx);
    dt = seconds_since(t0);
    ++r.attempted;
    return res;
  };
  while (!done()) {
    s.last_context.reset();  // one cycle's term stores resident at a time
    auto ctx = std::make_unique<WorkloadContext>(w.adjacency);
    std::vector<PipelineSearchResult> cold;
    double cold_sum = 0.0;
    for (const SearchSpec& spec : cfg.rotation) {
      double dt = 0.0;
      cold.push_back(search(spec, *ctx, "search_cold", dt));
      cold_sum += dt;
      if (cold.back().ranked.empty()) r.fail(spec.label + ": empty ranking");
    }
    s.cold_s.push_back(cold_sum / static_cast<double>(cfg.rotation.size()));
    for (std::size_t k = 0; k < cfg.warm_rounds_per_cycle && !done(); ++k) {
      double round = 0.0;
      for (std::size_t i = 0; i < cfg.rotation.size(); ++i) {
        double dt = 0.0;
        const PipelineSearchResult res =
            search(cfg.rotation[i], *ctx, "search_warm", dt);
        round += dt;
        s.warm_seconds += dt;
        ++s.warm_searches;
        s.warm_evaluated += res.evaluated;
        s.warm_pruned += res.pruned;
        if (!same_result(res, cold[i])) {
          r.fail(cfg.rotation[i].label +
                 ": warm search differs from the cold search of its cycle");
        }
      }
      s.warm_ms.push_back(1e3 * round /
                          static_cast<double>(cfg.rotation.size()));
    }
    s.last_context = std::move(ctx);
  }
  return s;
}

}  // namespace

void report_stage_layers(const obs::TraceCollector& trace, BenchResult& r) {
  const std::vector<obs::TraceEvent> events = trace.events();
  struct Search {
    const obs::TraceEvent* span = nullptr;
    double enumerate = 0, prune = 0, evaluate = 0, rank = 0;
    double generated = 0;
  };
  std::vector<Search> warm;
  for (const obs::TraceEvent& e : events) {
    if (e.ph == 'X' && e.cat == "bench" && e.name == "search_warm") {
      warm.push_back({&e});
    }
  }
  for (const obs::TraceEvent& e : events) {
    if (e.ph != 'X' || e.cat != "dse") continue;
    for (Search& s : warm) {
      const obs::TraceEvent& p = *s.span;
      if (p.tid != e.tid || e.ts_us < p.ts_us ||
          e.ts_us + e.dur_us > p.ts_us + p.dur_us) {
        continue;
      }
      const double ms = static_cast<double>(e.dur_us) / 1e3;
      if (e.name == "enumerate") {
        s.enumerate += ms;
        for (const auto& [k, v] : e.args_u64) {
          if (k == "generated") s.generated += static_cast<double>(v);
        }
      } else if (e.name == "prune") {
        s.prune += ms;
      } else if (e.name == "evaluate") {
        s.evaluate += ms;
      } else if (e.name == "rank") {
        s.rank += ms;
      }
      break;
    }
  }
  std::vector<double> en, pr, ev, rk, gen, share;
  for (const Search& s : warm) {
    const double total = static_cast<double>(s.span->dur_us) / 1e3;
    en.push_back(s.enumerate);
    pr.push_back(s.prune);
    ev.push_back(s.evaluate);
    rk.push_back(s.rank);
    gen.push_back(s.generated);
    share.push_back(total > 0.0 ? s.enumerate / total : 0.0);
  }
  const std::size_t n = warm.size();
  r.add_layer("dse.enumerate_ms", median_of(en), "ms", n);
  r.add_layer("dse.generated", median_of(gen), "count", n);
  r.add_layer("dse.enumerate_share", median_of(share), "ratio", n);
  r.add_layer("dse.prune_ms", median_of(pr), "ms", n);
  r.add_layer("dse.evaluate_ms", median_of(ev), "ms", n);
  r.add_layer("dse.rank_ms", median_of(rk), "ms", n);
  const auto self = span_self_times(trace);
  const auto it = self.find("bench.search_warm");
  r.add_layer("dse.search_self_ms",
              it == self.end() ? 0.0 : median_of(it->second) / 1e3, "ms", n);
  for (const auto& [name, us] : self) {
    r.report.push_back("self time " + name + ": median " +
                       std::to_string(median_of(us)) + " us over " +
                       std::to_string(us.size()) + " spans");
  }
}

namespace {

BenchResult run_dse(const RunArgs& args, const DseConfig& cfg) {
  BenchResult r;
  const Omega omega(default_accelerator());
  obs::TraceCollector collector;
  LayerRecorder rec(args.trace ? &collector : nullptr);

  // Set-up: graph generation plus the first context with its reverse graph,
  // repeated; the last graph is the one searched.
  std::vector<double> setup_s;
  std::optional<GnnWorkload> w;
  for (std::size_t i = 0; i < cfg.setups; ++i) {
    w.reset();
    const auto t0 = Clock::now();
    w.emplace(rec.time("graph.generate", "graph", cfg.make));
    const WorkloadContext first(w->adjacency);
    rec.time("graph.transpose", "graph",
             [&] { return first.reverse_graph().num_edges(); });
    setup_s.push_back(seconds_since(t0));
  }
  r.report.push_back("graph: " + std::to_string(w->num_vertices()) +
                     " vertices, " + std::to_string(w->num_edges()) +
                     " edges, F=" + std::to_string(w->in_features));

  if (!args.trace) {
    const LoopStats s =
        search_loop(omega, *w, cfg, args.seconds,
                    samples_needed(50.0), 3.0 * args.seconds, nullptr, r);
    r.add_e2e("setup_s", median_of(setup_s), "s", setup_s.size());
    r.add_e2e("rss_peak_mib", rss_peak_mib(), "MiB");
    r.add_e2e("cold_search_s", median_of(s.cold_s), "s", s.cold_s.size());
    if (samples_beyond(s.warm_ms.size(), 50.0) < kSamplesBeyond) {
      r.fail("only " + std::to_string(s.warm_ms.size()) +
             " warm search rounds; search_p50_ms needs " +
             std::to_string(samples_needed(50.0)));
    }
    r.add_e2e("search_p50_ms", median_of(s.warm_ms), "ms", s.warm_ms.size());
    r.add_e2e("cand_per_s", s.cand_per_s(), "1/s", s.warm_ms.size());
    if (const auto m = latency_percentile("search", s.warm_ms, 90.0)) {
      r.report.push_back(format_metric(*m));
    }
    return r;
  }

  // Traced run: trace-off then trace-on halves for the overhead A/B; the
  // per-layer numbers come from the traced half and the probes after it.
  const double half = args.seconds / 2.0;
  LoopStats off = search_loop(omega, *w, cfg, half, 1, 3.0 * half, nullptr, r);
  off.last_context.reset();
  const LoopStats on =
      search_loop(omega, *w, cfg, half, 1, 3.0 * half, &collector, r);
  report_stage_layers(collector, r);
  r.add_layer("dse.evaluated", on.per_search(on.warm_evaluated), "count",
              on.warm_searches);
  r.add_layer("dse.pruned", on.per_search(on.warm_pruned), "count",
              on.warm_searches);
  if (on.last_context) report_context_layers(*on.last_context, r);
  r.add_layer("obs.trace_overhead_pct",
              on.cand_per_s() > 0.0
                  ? 100.0 * (off.cand_per_s() / on.cand_per_s() - 1.0)
                  : 0.0,
              "%");
  if (const auto p = highest_supported_percentile(on.warm_ms.size(), {90.0})) {
    r.add_layer("search_p90_ms", percentile_of(on.warm_ms, *p), "ms",
                on.warm_ms.size());
  }
  r.add_layer("graph.generate_ms", median_of(rec.samples("graph.generate")) / 1e3,
              "ms", cfg.setups);
  r.add_layer("graph.transpose_ms",
              median_of(rec.samples("graph.transpose")) / 1e3, "ms",
              cfg.setups);
  probe_engine_layers(omega, *w, cfg.rotation, 1024, rec, r);
  r.add_layer("obs.trace_events", static_cast<double>(collector.size()),
              "count");
  if (!args.trace_out.empty()) collector.write_file(args.trace_out);
  return r;
}

}  // namespace

BenchResult run_dse_sweep(const RunArgs& args) {
  DseConfig cfg;
  cfg.make = [seed = args.seed] { return rmat_workload(seed); };
  cfg.rotation = {sweep_search()};
  cfg.warm_rounds_per_cycle = 5;
  cfg.setups = 5;
  return run_dse(args, cfg);
}

BenchResult run_dse_budget(const RunArgs& args) {
  DseConfig cfg;
  cfg.make = [seed = args.seed] {
    return dataset_workload("Cora", kDatasetScale, seed);
  };
  cfg.rotation = budget_rotation();
  cfg.warm_rounds_per_cycle = 4;
  cfg.setups = 15;  // a set-up is ~2 ms; many keep its median steady
  return run_dse(args, cfg);
}

}  // namespace perfbench
