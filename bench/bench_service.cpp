// Mapping-service benchmark: the registry's warm-vs-cold gate and the TCP
// serving core's streaming and priority gates. End-to-end service
// throughput and request latency are measured by the committed
// benchmark's service-mix-tcp workload (perfbench/), which
// tools/bench_ab.py gates against the parent commit.
//
// Warm registry vs cold synthesis. One fixed evaluate batch (Table V
// pattern evaluations cycling over three workloads) is replayed as one
// serve() session through two MappingService instances: cold has registry
// capacity 0, so every request pays graph synthesis and WorkloadContext
// warm-up; warm has the default capacity, so each workload is built once.
// Per-request synthesis dominates an evaluate, so this is where the
// registry's amortization shows: warm must be >= 3x cold, and the two
// response streams must be byte-identical (the registry is a pure cache).
// The gate catches a warm path that stops reusing its entry, which leaves
// hit/miss counters and response bytes unchanged.
//
// Streaming first-result latency. A fast high-band evaluate is sent behind
// a slow band-0 search on one connection. A batch barrier would hold every
// response until the whole batch is done, so its first-result latency is
// the time of the round's last response on the same connection; the
// streaming transport emits the fast request the moment it completes. The
// ratio is the headline win of the serving core and
// OMEGA_SERVICE_GATE_STREAM_SPEEDUP turns it into a gate.
//
// Priority flood + load shedding. Four connections flood band 0 while one
// connection runs closed-loop band-7 probes. The scheduler's admission
// bound sheds flood requests (structured "overloaded" responses — the shed
// rate is reported) while the probes ride the priority bands;
// OMEGA_SERVICE_GATE_P99_MS gates the high-band probe p99, and the server's
// per-band service.sched.* histograms land in the JSON as the flood
// artifact.
//
// Knobs: OMEGA_SERVICE_SCALE_PCT   (workload scale in percent, default 50)
//        OMEGA_SERVICE_SEARCH      (the slow search's candidate cap is 4x
//                                   this, default 96)
//        OMEGA_SERVICE_FLOOD       (flood requests per connection, default 60)
//        OMEGA_SERVICE_PROBES      (high-band probe count, default 24)
//        OMEGA_SERVICE_GATE_P99_MS (fail unless the high-band probe p99 is
//                                   <= this many ms; 0/unset = report only)
//        OMEGA_SERVICE_GATE_STREAM_SPEEDUP (fail unless streaming first-
//                                   result is this many times faster than
//                                   the batch barrier; 0/unset = report)
//        OMEGA_SERVICE_JSON        (output path, default BENCH_service.json)
// A malformed knob value, or a count of 0, exits 1 before any phase runs,
// naming the knob.
//
// Exit codes: 1 = a request failed, streamed out of order, warm and cold
// responses differ, a phase could not run (e.g. no TCP listener) or a knob
// is malformed, 2 = warm/cold gate breach, 3 = probe p99 gate breach,
// 4 = streaming first-result gate breach.
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "obs/metrics.hpp"
#include "service/server.hpp"
#include "service/tcp.hpp"
#include "util/format.hpp"
#include "util/json.hpp"

namespace {

using namespace omega;
using omega::bench::env_count;
using omega::bench::env_number;

std::string workload_json(const std::string& dataset, double scale) {
  JsonWriter w;
  w.begin_object();
  w.member("dataset", dataset);
  w.member("scale", scale);
  w.end_object();
  return w.str();
}

std::string evaluate_line(std::uint64_t id, int priority,
                          const std::string& wl, const std::string& pattern) {
  return R"({"id":)" + std::to_string(id) + R"(,"version":2,"priority":)" +
         std::to_string(priority) + R"(,"kind":"evaluate","workload":)" + wl +
         R"(,"out_features":16,"pattern":")" + pattern + R"("})";
}

double ms_between(std::chrono::steady_clock::time_point t0,
                  std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

// ---- warm registry vs cold synthesis ----

constexpr double kMinWarmSpeedup = 3.0;

struct RegistryResult {
  std::size_t requests = 0;
  double cold_rps = 0.0;
  double warm_rps = 0.0;
  double speedup = 0.0;
  service::RegistryStats stats;
  bool identical = true;
};

RegistryResult run_registry_phase(double scale) {
  // Eight rounds over the same three Table IV workloads — the access
  // pattern the registry amortizes (one model serving many mapping
  // queries).
  constexpr std::size_t kRounds = 8;
  const std::vector<std::string> datasets{"Citeseer", "Cora", "Proteins"};
  const std::vector<std::string> patterns{"Seq1", "SP1", "SP2",
                                          "PP1",  "PP3", "SPhighV"};
  std::string batch;
  std::uint64_t id = 0;
  for (std::size_t r = 0; r < kRounds; ++r) {
    for (const std::string& dataset : datasets) {
      const std::string wl = workload_json(dataset, scale);
      for (const std::string& pattern : patterns) {
        batch += evaluate_line(++id, 0, wl, pattern) + "\n";
      }
    }
  }
  RegistryResult result;
  result.requests = id;
  std::cout << "== warm registry vs cold synthesis ==\n"
            << "evaluate batch: " << result.requests << " requests over "
            << datasets.size() << " workloads (scale " << fixed(scale, 2)
            << ")\n";

  // Replays the batch as one serve() session; returns requests/sec.
  const auto timed = [&](service::MappingService& svc, std::string& out) {
    std::istringstream in(batch);
    std::ostringstream os;
    const auto t0 = std::chrono::steady_clock::now();
    (void)svc.serve(in, os);
    const auto t1 = std::chrono::steady_clock::now();
    out = os.str();
    const double seconds = std::chrono::duration<double>(t1 - t0).count();
    return seconds > 0.0 ? static_cast<double>(result.requests) / seconds
                         : 0.0;
  };
  service::ServiceOptions cold_opts;
  cold_opts.registry_capacity = 0;  // every request synthesizes fresh
  service::MappingService cold_svc(cold_opts);
  service::MappingService warm_svc;  // default registry capacity
  std::string cold_out;
  std::string warm_out;
  result.cold_rps = timed(cold_svc, cold_out);
  result.warm_rps = timed(warm_svc, warm_out);
  result.speedup =
      result.cold_rps > 0.0 ? result.warm_rps / result.cold_rps : 0.0;
  result.identical = cold_out == warm_out;
  result.stats = warm_svc.registry().stats();
  std::cout << "cold: " << fixed(result.cold_rps, 1)
            << " requests/sec, warm: " << fixed(result.warm_rps, 1)
            << " requests/sec -> " << fixed(result.speedup, 2) << "x\n"
            << "registry: " << result.stats.hits << " hits, "
            << result.stats.misses << " misses\n"
            << "parity: "
            << (result.identical ? "byte-identical" : "MISMATCH") << "\n";
  return result;
}

// ---- streaming first-result latency ----

struct StreamingResult {
  bool ok = true;
  double first_stream_ms = 0.0;  // median over rounds
  double first_batch_ms = 0.0;
  double speedup = 0.0;
};

StreamingResult run_streaming_phase(double scale, std::size_t search_cap) {
  constexpr std::size_t kStreamRounds = 3;
  StreamingResult result;
  service::MappingService svc;
  const std::string wl = workload_json("Cora", scale);
  std::uint64_t id = 0;
  const auto slow_line = [&](std::uint64_t i) {
    return R"({"id":)" + std::to_string(i) +
           R"(,"version":2,"priority":0,"kind":"search_mappings",)" +
           R"("workload":)" + wl +
           R"(,"out_features":16,"options":{"max_candidates":)" +
           std::to_string(search_cap * 4) + R"(,"top_k":3}})";
  };
  // Warm the registry and both request shapes un-timed.
  if (svc.handle_line(evaluate_line(++id, 7, wl, "SP2"))
              .find(R"("ok":true)") == std::string::npos ||
      svc.handle_line(slow_line(++id)).find(R"("ok":true)") ==
          std::string::npos) {
    std::cout << "streaming warmup failed\n";
    result.ok = false;
    return result;
  }

  std::cout << "\n== streaming first-result latency over TCP ==\n"
            << "band-7 evaluate behind a band-0 search (cap "
            << search_cap * 4 << "), " << kStreamRounds << " rounds\n";
  service::Listener listener = service::Listener::tcp("127.0.0.1", 0);
  const std::uint16_t port = listener.port();
  service::ServeOptions so;
  so.max_connections = kStreamRounds;
  so.scheduler_threads = 2;  // the fast request needs a free worker
  std::thread server([&] { service::serve_on(svc, listener, so); });
  std::vector<double> stream_ms;
  // Batch-barrier baseline: a barrier delivers its first result only once
  // the whole round is done, i.e. at the round's last response.
  std::vector<double> batch_ms;
  for (std::size_t r = 0; r < kStreamRounds; ++r) {
    service::StreamClient client =
        service::StreamClient::connect_tcp("127.0.0.1", port);
    const std::uint64_t fast_id = id + 2;
    const auto t0 = std::chrono::steady_clock::now();
    client.send_line(slow_line(++id));
    client.send_line(evaluate_line(++id, 7, wl, "SP2"));
    const std::optional<std::string> first = client.read_line();
    const auto t1 = std::chrono::steady_clock::now();
    const std::optional<std::string> last = client.read_line();
    const auto t2 = std::chrono::steady_clock::now();
    client.shutdown_writes();
    while (client.read_line()) {
    }
    if (!first ||
        first->find(R"("id":)" + std::to_string(fast_id)) ==
            std::string::npos ||
        first->find(R"("ok":true)") == std::string::npos || !last ||
        last->find(R"("ok":true)") == std::string::npos) {
      result.ok = false;  // the fast request did not stream first
    }
    stream_ms.push_back(ms_between(t0, t1));
    batch_ms.push_back(ms_between(t0, t2));
  }
  server.join();
  result.first_batch_ms = bench::summarize_samples(batch_ms).median;
  result.first_stream_ms = bench::summarize_samples(stream_ms).median;
  result.speedup = result.first_stream_ms > 0.0
                       ? result.first_batch_ms / result.first_stream_ms
                       : 0.0;
  std::cout << "first result: batch-barrier " << fixed(result.first_batch_ms, 3)
            << " ms, streaming " << fixed(result.first_stream_ms, 3)
            << " ms -> " << fixed(result.speedup, 2) << "x"
            << (result.ok ? "" : " (ORDER/PARITY FAILURE)") << "\n";
  return result;
}

// ---- priority flood + shedding ----

struct FloodResult {
  bool ok = true;
  std::size_t flood_requests = 0;
  std::size_t probe_requests = 0;
  std::size_t sheds = 0;
  double shed_rate = 0.0;
  bench::RepeatSummary probe;
  obs::MetricsSnapshot snap;
};

FloodResult run_flood_phase(double scale, std::size_t flood_n,
                            std::size_t probe_n) {
  constexpr std::size_t kFloodClients = 4;
  FloodResult result;
  service::MappingService svc;
  const std::string wl = workload_json("Cora", scale);
  if (svc.handle_line(evaluate_line(1, 0, wl, "SP2"))
          .find(R"("ok":true)") == std::string::npos) {
    std::cout << "flood warmup failed\n";
    result.ok = false;
    return result;
  }
  std::cout << "\n== priority flood over TCP ==\n"
            << kFloodClients << " connections x " << flood_n
            << " band-0 requests flooding, " << probe_n
            << " closed-loop band-7 probes\n";
  service::Listener listener = service::Listener::tcp("127.0.0.1", 0);
  const std::uint16_t port = listener.port();
  service::ServeOptions so;
  so.max_connections = kFloodClients + 1;
  so.scheduler_threads = 2;
  so.queue_depth = 8;  // small on purpose: the flood must shed
  std::thread server([&] { service::serve_on(svc, listener, so); });

  std::mutex agg_mu;
  std::size_t sheds = 0;
  bool flood_failed = false;
  std::vector<std::thread> flooders;
  for (std::size_t c = 0; c < kFloodClients; ++c) {
    flooders.emplace_back([&, c] {
      try {
        service::StreamClient client =
            service::StreamClient::connect_tcp("127.0.0.1", port);
        for (std::size_t i = 0; i < flood_n; ++i) {
          client.send_line(evaluate_line(1000 + c * flood_n + i, 0, wl, "SP2"));
        }
        client.shutdown_writes();
        std::size_t local_sheds = 0;
        std::size_t got = 0;
        while (const std::optional<std::string> r = client.read_line()) {
          ++got;
          if (r->find(R"("type":"overloaded")") != std::string::npos) {
            ++local_sheds;
          }
        }
        const std::scoped_lock lock(agg_mu);
        sheds += local_sheds;
        if (got != flood_n) flood_failed = true;
      } catch (const Error&) {
        const std::scoped_lock lock(agg_mu);
        flood_failed = true;
      }
    });
  }
  std::vector<double> probe_ms;
  {
    service::StreamClient probe =
        service::StreamClient::connect_tcp("127.0.0.1", port);
    for (std::size_t i = 0; i < probe_n; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      probe.send_line(evaluate_line(9000 + i, 7, wl, "SP2"));
      const std::optional<std::string> r = probe.read_line();
      const auto t1 = std::chrono::steady_clock::now();
      if (!r || r->find(R"("ok":true)") == std::string::npos) {
        result.ok = false;  // a band-7 probe must never shed
      }
      probe_ms.push_back(ms_between(t0, t1));
    }
    probe.shutdown_writes();
  }
  for (std::thread& t : flooders) t.join();
  server.join();
  if (flood_failed) result.ok = false;
  result.flood_requests = kFloodClients * flood_n;
  result.probe_requests = probe_n;
  result.sheds = sheds;
  result.shed_rate = static_cast<double>(sheds) /
                     static_cast<double>(result.flood_requests);
  result.probe = bench::summarize_samples(probe_ms);
  result.snap = svc.metrics().snapshot();
  std::cout << "flood: " << result.flood_requests << " requests, "
            << result.sheds << " shed (" << fixed(100.0 * result.shed_rate, 1)
            << "%)\n"
            << "band-7 probes: p50 " << fixed(result.probe.median, 3)
            << " ms, p99 " << fixed(result.probe.p99, 3) << " ms, max "
            << fixed(result.probe.max, 3) << " ms"
            << (result.ok ? "" : " (FLOOD FAILURE)") << "\n";
  return result;
}

void write_json(const char* path, double scale, const RegistryResult& reg,
                const StreamingResult& streaming, double gate_stream,
                const FloodResult& flood, double gate_p99_ms) {
  std::ofstream json(path);
  if (!json) return;
  JsonWriter jw(2);
  jw.begin_object();
  jw.member("bench", "service");
  jw.member("scale", scale);
  jw.key("registry").begin_object();
  jw.member("requests", static_cast<std::uint64_t>(reg.requests));
  jw.member("cold_requests_per_sec", reg.cold_rps);
  jw.member("warm_requests_per_sec", reg.warm_rps);
  jw.member("speedup", reg.speedup);
  jw.member("gate_speedup", kMinWarmSpeedup);
  jw.member("hits", reg.stats.hits);
  jw.member("misses", reg.stats.misses);
  jw.member("parity", reg.identical ? "byte-identical" : "mismatch");
  jw.end_object();
  jw.key("streaming").begin_object();
  jw.member("first_result_batch_ms", streaming.first_batch_ms);
  jw.member("first_result_stream_ms", streaming.first_stream_ms);
  jw.member("speedup", streaming.speedup);
  jw.member("gate_speedup", gate_stream);
  jw.member("ordered", streaming.ok);
  jw.end_object();
  jw.key("flood").begin_object();
  jw.member("flood_requests", static_cast<std::uint64_t>(flood.flood_requests));
  jw.member("probe_requests", static_cast<std::uint64_t>(flood.probe_requests));
  jw.member("sheds", static_cast<std::uint64_t>(flood.sheds));
  jw.member("shed_rate", flood.shed_rate);
  jw.member("probe_p50_ms", flood.probe.median);
  jw.member("probe_p99_ms", flood.probe.p99);
  jw.member("probe_max_ms", flood.probe.max);
  jw.member("gate_p99_ms", gate_p99_ms);
  // Server-side scheduler counters and per-band latency histograms — the
  // per-band artifact CI uploads.
  jw.key("sched_counters").begin_object();
  for (const auto& [name, v] : flood.snap.counters) {
    if (name.rfind("service.sched.", 0) == 0) jw.member(name, v);
  }
  jw.end_object();
  jw.key("band_latency_us").begin_object();
  for (const auto& [name, h] : flood.snap.histograms) {
    if (name.rfind("service.sched.latency_us.band", 0) != 0) continue;
    jw.key(name).begin_object();
    jw.member("count", h.count());
    jw.member("p50", h.value_at_percentile(50.0));
    jw.member("p90", h.value_at_percentile(90.0));
    jw.member("p99", h.value_at_percentile(99.0));
    jw.member("max", h.max());
    jw.key("buckets").begin_array();
    for (const obs::Histogram::Bucket& b : h.nonzero_buckets()) {
      jw.begin_object();
      jw.member("lo", b.lower_bound);
      jw.member("count", b.count);
      jw.end_object();
    }
    jw.end_array();
    jw.end_object();
  }
  jw.end_object();
  jw.end_object();
  jw.end_object();
  json << jw.str() << "\n";
  std::cout << "(json: " << path << ")\n";
}

int run_bench() {
  const double scale =
      static_cast<double>(env_count("OMEGA_SERVICE_SCALE_PCT", 50)) / 100.0;
  const std::size_t search_cap = env_count("OMEGA_SERVICE_SEARCH", 96);
  const std::size_t flood_n = env_count("OMEGA_SERVICE_FLOOD", 60);
  const std::size_t probe_n = env_count("OMEGA_SERVICE_PROBES", 24);
  const double gate_p99_ms = env_number("OMEGA_SERVICE_GATE_P99_MS", 0.0);
  const double gate_stream =
      env_number("OMEGA_SERVICE_GATE_STREAM_SPEEDUP", 0.0);
  const char* json_path = std::getenv("OMEGA_SERVICE_JSON");
  if (json_path == nullptr) json_path = "BENCH_service.json";

  // Every phase runs; one that cannot (a listener that will not bind, a
  // refused connection) throws to main and exits 1, so no gate passes
  // without its measurement.
  const RegistryResult reg = run_registry_phase(scale);
  const StreamingResult streaming = run_streaming_phase(scale, search_cap);
  const FloodResult flood = run_flood_phase(scale, flood_n, probe_n);
  write_json(json_path, scale, reg, streaming, gate_stream, flood,
             gate_p99_ms);

  if (!reg.identical || !streaming.ok || !flood.ok) return 1;
  if (reg.speedup < kMinWarmSpeedup) {
    std::cout << "REGISTRY GATE FAILED: warm " << fixed(reg.speedup, 2)
              << "x cold < required " << fixed(kMinWarmSpeedup, 2) << "x\n";
    return 2;
  }
  if (gate_p99_ms > 0.0 && flood.probe.p99 > gate_p99_ms) {
    std::cout << "HIGH-BAND LATENCY GATE FAILED: probe p99 "
              << fixed(flood.probe.p99, 3) << " ms > allowed "
              << fixed(gate_p99_ms, 3) << " ms\n";
    return 3;
  }
  if (gate_stream > 0.0 && streaming.speedup < gate_stream) {
    std::cout << "STREAMING GATE FAILED: first-result speedup "
              << fixed(streaming.speedup, 2) << "x < required "
              << fixed(gate_stream, 2) << "x\n";
    return 4;
  }
  return 0;
}

}  // namespace

int main() { return omega::bench::run_harness("bench_service", run_bench); }
