#include "service/server.hpp"

#include <chrono>
#include <optional>

#include "obs/trace.hpp"

namespace omega::service {

MappingService::MappingService(ServiceOptions options)
    : options_(options), registry_(options.registry_capacity) {}

std::string MappingService::handle(const Request& request) {
  if (request.kind == RequestKind::kStats) {
    const RegistryStats s = registry_.stats();
    JsonWriter w;
    w.begin_object();
    w.member("id", request.id);
    if (request.version > 0) w.member("version", request.version);
    w.member("ok", true);
    w.member("kind", "stats");
    w.key("registry").begin_object();
    w.member("hits", s.hits);
    w.member("misses", s.misses);
    w.member("evictions", s.evictions);
    w.member("resident", static_cast<std::uint64_t>(s.resident));
    w.member("capacity", static_cast<std::uint64_t>(s.capacity));
    w.end_object();
    // Evaluation-core counters (only the deterministic ones: delta hits,
    // batch shapes, and term timeline bytes depend on the serving machine's
    // thread layout and stay out of golden-able responses — the metrics
    // request reports those instead).
    const ContextEvalStats e = registry_.eval_stats();
    w.key("eval").begin_object();
    w.member("plans", e.plans);
    w.member("terms", e.terms);
    w.member("term_requests", e.term_requests);
    w.member("term_builds", e.term_builds);
    w.end_object();
    if (request.version >= 2) {
      // v2 extension: the acquire-recency epoch plus one signature-sorted
      // row per resident entry. Hit counts and epochs are deterministic for
      // a given request sequence (every session drains its other requests
      // around a stats request).
      w.member("epoch", registry_.epoch());
      w.key("entries").begin_array();
      for (const RegistryEntryStats& entry : registry_.entry_stats()) {
        w.begin_object();
        w.member("signature", entry.signature);
        w.member("hits", entry.hits);
        w.member("last_hit_epoch", entry.last_hit_epoch);
        w.member("warm", entry.warm);
        w.end_object();
      }
      w.end_array();
    }
    w.end_object();
    registry_.advance_epoch();
    return w.str();
  }
  if (request.kind == RequestKind::kMetrics) {
    const std::string response = metrics_response(request);
    registry_.advance_epoch();
    return response;
  }

  std::optional<obs::ScopedSpan> span;
  span.emplace(options_.trace, "registry_lookup", "service");
  const std::shared_ptr<const WorkloadEntry> entry =
      registry_.acquire(request.workload);
  span.reset();
  const GnnWorkload& workload = entry->workload;

  AcceleratorConfig hw;
  hw.num_pes = request.pes;
  if (request.bandwidth > 0) {
    hw.distribution_bandwidth = request.bandwidth;
    hw.reduction_bandwidth = request.bandwidth;
  }
  const Omega omega(hw);

  span.emplace(options_.trace, "evaluate", "service");
  switch (request.kind) {
    case RequestKind::kEvaluate: {
      if (request.has_pipeline) {
        // v2 N-phase shape: evaluate through the pipeline core, reusing the
        // registry's warmed context for the phases bound to the adjacency.
        const PipelineResult pr =
            omega.run_pipeline(workload, request.pipeline, &entry->context);
        span.reset();
        const obs::ScopedSpan ser(options_.trace, "serialize", "service");
        return evaluate_pipeline_response(request.id, workload,
                                          request.pipeline, pr,
                                          request.version);
      }
      const LayerSpec layer{request.out_features};
      RunResult r;
      if (!request.pattern.empty()) {
        DataflowPattern p = pattern_by_name(request.pattern);
        p.pp_agg_pe_fraction = request.pp_fraction;
        const DataflowDescriptor df =
            bind_tiles(p, dims_of(workload, layer), hw);
        r = omega.run(workload, layer, df, entry->context);
        r.config_name = p.name;
      } else {
        DataflowDescriptor df = DataflowDescriptor::parse(request.dataflow);
        df.pp_agg_pe_fraction = request.pp_fraction;
        if (!request.tiles.empty()) {
          df.agg.tiles = {.v = request.tiles[0],
                          .n = request.tiles[1],
                          .f = request.tiles[2],
                          .g = 1};
          df.cmb.tiles = {.v = request.tiles[3],
                          .n = 1,
                          .f = request.tiles[5],
                          .g = request.tiles[4]};
        }
        r = omega.run(workload, layer, df, entry->context);
      }
      span.reset();
      const obs::ScopedSpan ser(options_.trace, "serialize", "service");
      return evaluate_response(request.id, workload, r, request.version);
    }
    case RequestKind::kSearchMappings: {
      const SearchResult r =
          search_mappings(omega, workload, LayerSpec{request.out_features},
                          request.search, &entry->context);
      span.reset();
      const obs::ScopedSpan ser(options_.trace, "serialize", "service");
      return search_mappings_response(request.id, workload, r,
                                     request.version);
    }
    case RequestKind::kSearchPipeline: {
      const PipelineSearchResult r = search_pipeline_mappings(
          omega, workload, request.chain, request.pipeline_search,
          &entry->context);
      span.reset();
      const obs::ScopedSpan ser(options_.trace, "serialize", "service");
      return search_pipeline_response(request.id, workload, request.chain, r,
                                      request.version);
    }
    case RequestKind::kSearchModel: {
      GnnModelSpec spec;
      spec.model = request.model;
      spec.feature_widths.push_back(workload.in_features);
      spec.feature_widths.insert(spec.feature_widths.end(),
                                 request.widths.begin(), request.widths.end());
      const ModelSearchResult r = search_model_mappings(
          omega, workload, spec, request.model_options, &entry->context);
      span.reset();
      const obs::ScopedSpan ser(options_.trace, "serialize", "service");
      return search_model_response(request.id, workload, spec, r,
                                  request.version);
    }
    case RequestKind::kStats:
    case RequestKind::kMetrics: break;  // handled above
  }
  return error_response(request.id, "Error", "unreachable request kind");
}

std::string MappingService::metrics_response(const Request& request) {
  // One snapshot unifying the three counter sources: the service's own obs
  // registry (request counters + latency histograms), the workload
  // registry, and the eval-core counters of the resident contexts. The
  // registry/eval values are overlaid as point-in-time counters so the
  // response is a single namespace (DESIGN.md "Observability").
  obs::MetricsSnapshot snap = metrics_.snapshot();
  const RegistryStats s = registry_.stats();
  snap.counters["registry.hits"] = s.hits;
  snap.counters["registry.misses"] = s.misses;
  snap.counters["registry.evictions"] = s.evictions;
  snap.gauges["registry.resident"] = static_cast<double>(s.resident);
  snap.gauges["registry.capacity"] = static_cast<double>(s.capacity);
  const ContextEvalStats e = registry_.eval_stats();
  snap.counters["eval.plans"] = e.plans;
  snap.counters["eval.terms"] = e.terms;
  snap.counters["eval.term_requests"] = e.term_requests;
  snap.counters["eval.term_builds"] = e.term_builds;
  // Thread-schedule-dependent near the admission budget; metrics-only.
  snap.gauges["eval.term_timeline_bytes"] = static_cast<double>(e.term_bytes);

  JsonWriter w;
  w.begin_object();
  w.member("id", request.id);
  w.member("version", request.version);  // kMetrics is v2+ by construction
  w.member("ok", true);
  w.member("kind", "metrics");
  w.key("metrics");
  write_metrics_json(snap, w);
  w.end_object();
  return w.str();
}

std::string MappingService::handle_line(const std::string& line) {
  // omega-lint: allow(wall-clock): latency histograms are metrics-only, never goldened
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t id = 0;
  // Counter labels: the request kind once parsed, "error" for responses
  // that became structured errors. Counters are deterministic per request
  // sequence; the latency histograms are wall-clock (metrics-only, never
  // goldened).
  const char* kind = nullptr;
  bool ok = false;
  std::string response;
  // parse_request is all-or-nothing, so a parse-time error leaves no
  // Request to read the version from; probe it (and the id) straight off
  // the line so versioned clients get a consistent error shape.
  const auto fail = [&](const char* type, const char* message) {
    const RequestScheduling head = peek_request_scheduling(line);
    response = error_response(id > 0 ? id : head.id, type, message,
                              head.version);
  };
  try {
    std::optional<obs::ScopedSpan> span;
    span.emplace(options_.trace, "parse", "service");
    const Request request = parse_request(line);
    span.reset();
    id = request.id;
    kind = to_string(request.kind);
    response = handle(request);
    ok = true;
  } catch (const InvalidDataflowError& e) {
    fail("InvalidDataflowError", e.what());
  } catch (const ResourceError& e) {
    fail("ResourceError", e.what());
  } catch (const InvalidArgumentError& e) {
    fail("InvalidArgumentError", e.what());
  } catch (const Error& e) {
    fail("Error", e.what());
  } catch (const std::exception& e) {
    fail("Internal", e.what());
  }
  const auto us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          // omega-lint: allow(wall-clock): latency histograms are metrics-only, never goldened
          std::chrono::steady_clock::now() - t0)
          .count());
  metrics_.add("service.requests", 1);
  metrics_.add(ok ? "service.responses.ok" : "service.responses.error", 1);
  if (kind != nullptr) {
    metrics_.add(std::string("service.requests.") + kind, 1);
    metrics_.observe(std::string("service.latency_us.") + kind, us);
  }
  metrics_.observe("service.latency_us", us);
  return response;
}

// serve() lives in tcp.cpp with the socket transports: stdio runs the same
// session code on its own scheduler.

}  // namespace omega::service
