// Long-lived mapping service: answers NDJSON requests from the warmed
// workload registry (see DESIGN.md "Mapping service").
//
// Dispatch model: every transport runs the same session (tcp.hpp). serve()
// is one such session over a stream pair: request lines are submitted to a
// RequestScheduler as they are read, and responses stream back in
// per-band request order (all v1 requests share band 0, so their responses
// come back in request order). Every individual response is a
// deterministic function of its request (the underlying searches are
// thread-count-invariant by construction), so the output bytes are
// identical across scheduler thread counts, across warm/cold registry
// states, and across transports.
//
// Errors never tear down the service: engine ResourceError, taxonomy
// violations and malformed requests all map to {"ok":false,"error":{...}}
// responses carrying the request id.
#pragma once

#include <iosfwd>
#include <string>

#include "obs/metrics.hpp"
#include "service/shard.hpp"
#include "service/tcp.hpp"

namespace omega::obs {
class TraceCollector;
}  // namespace omega::obs

namespace omega::service {

struct ServiceOptions {
  /// Workloads kept warm; 0 disables caching (cold per-request builds).
  std::size_t registry_capacity = 8;
  /// Independent registry partitions (consistent-hash on the workload
  /// signature; see shard.hpp). 1 = the classic single registry, with
  /// byte-identical stats responses.
  std::size_t registry_shards = 1;
  /// When non-null, every request emits parse / registry_lookup / evaluate /
  /// serialize spans (wall-clock, category "service") into this collector.
  /// Null = zero instrumentation cost.
  obs::TraceCollector* trace = nullptr;
};

class MappingService {
 public:
  explicit MappingService(ServiceOptions options = {});

  /// Handles one request line; always returns a single-line JSON response
  /// (never throws — failures become structured error responses).
  [[nodiscard]] std::string handle_line(const std::string& line);

  /// Runs one NDJSON session (tcp.hpp) over `in`/`out` on its own
  /// RequestScheduler until `in` is exhausted: options' scheduler fields
  /// apply (the connection fields do not). Each response is written and
  /// flushed as soon as it is next in its band's request order. Blank
  /// lines are no-ops. Returns the number of requests served.
  std::size_t serve(std::istream& in, std::ostream& out,
                    const ServeOptions& options = {});

  [[nodiscard]] const ShardedRegistry& registry() const { return registry_; }

  /// Service-level metrics (request/response counters, latency histograms;
  /// naming convention in DESIGN.md "Observability"). The v2 `metrics`
  /// request snapshots this together with registry and eval-core counters.
  [[nodiscard]] const obs::MetricsRegistry& metrics() const {
    return metrics_;
  }
  /// Mutable sink for transport-level instrumentation (the request
  /// scheduler records its service.sched.* series here so one metrics
  /// response covers the whole serving core).
  [[nodiscard]] obs::MetricsRegistry& metrics_mut() { return metrics_; }

 private:
  [[nodiscard]] std::string handle(const Request& request);
  [[nodiscard]] std::string metrics_response(const Request& request);

  ServiceOptions options_;
  ShardedRegistry registry_;
  obs::MetricsRegistry metrics_;
};

}  // namespace omega::service
