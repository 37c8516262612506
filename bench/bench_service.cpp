// Mapping-service benchmark: warm-registry throughput plus closed-loop
// tail latency.
//
// Phase 1 — throughput (warm registry vs cold per-request synthesis, the
// service's reason to exist). Each batch is replayed as one serve()
// session (the stdio transport) through two MappingService instances:
//
//  * cold: registry capacity 0, so every request pays graph synthesis and
//    WorkloadContext warm-up from scratch (the pre-service CLI cost);
//  * warm: default capacity, so each distinct workload is built once and
//    every later request starts from the warmed entry.
//
// Two batches are measured. The *evaluate* batch (Table V pattern
// evaluations cycling over the workloads) is where per-request synthesis
// dominates — that is the amortization the registry exists for, and the
// acceptance gate (warm >= 3x cold) runs on it. The *search* batch
// (search_mappings + search_model) is reported alongside: its requests
// spend most of their time in the candidate sweep itself, so the registry
// win is structurally smaller there.
//
// Phase 2 — mixed closed-loop latency. One request in flight at a time
// against a warmed service (handle_line per request): mostly Table V
// pattern evaluations with every 8th request a small search_mappings — the
// traffic shape a long-lived mapping daemon sees. Per-request wall-clock is
// summarized to exact p50/p99 through the shared quantile helper
// (obs/quantile.hpp) and written to the "latency" section of
// BENCH_service.json; OMEGA_SERVICE_GATE_P99_MS turns the p99 into a CI
// regression gate.
//
// Reports requests/sec for both paths, the registry hit rate, and verifies
// the response streams are byte-identical (the registry is a pure cache).
// Writes BENCH_service.json.
//
// Phase 3 — streaming first-result latency over TCP. A fast high-band
// evaluate is sent behind a slow band-0 search on one connection. A batch
// barrier would hold every response until the whole batch is done, so its
// first-result latency is the time of the round's last response on the
// same connection; the streaming transport emits the fast request the
// moment it completes. The ratio is the headline win of the serving core
// and OMEGA_SERVICE_GATE_STREAM_SPEEDUP turns it into a gate.
//
// Phase 4 — priority flood + load shedding over TCP. Four connections
// flood band 0 while one connection runs closed-loop band-7 probes. The
// scheduler's admission bound sheds flood requests (structured
// "overloaded" responses — the shed rate is reported) while the probes
// ride the priority bands; OMEGA_SERVICE_GATE_P99_MS gates the high-band
// probe p99, and the server's per-band service.sched.* histograms land in
// the JSON as the flood artifact.
//
// Knobs: OMEGA_SERVICE_ROUNDS      (batch repetitions, default 12)
//        OMEGA_SERVICE_SCALE_PCT   (workload scale in percent, default 50)
//        OMEGA_SERVICE_SEARCH      (search_mappings candidate cap, default 96)
//        OMEGA_SERVICE_MIXED       (closed-loop request count, default 64)
//        OMEGA_SERVICE_MIXED_ONLY  (=1: skip the throughput phase)
//        OMEGA_SERVICE_GATE_P99_MS (fail unless mixed p99 — and the flood
//                                   phase's high-band probe p99 — is <=
//                                   this many ms; 0/unset = report only)
//        OMEGA_SERVICE_TCP         (=0: skip the TCP phases 3-4)
//        OMEGA_SERVICE_TCP_ONLY    (=1: run only the TCP phases)
//        OMEGA_SERVICE_FLOOD      (flood requests per connection, default 60)
//        OMEGA_SERVICE_PROBES     (high-band probe count, default 24)
//        OMEGA_SERVICE_GATE_STREAM_SPEEDUP (fail unless streaming first-
//                                   result is this many times faster than
//                                   the batch barrier; 0/unset = report)
//        OMEGA_SERVICE_JSON        (output path, default BENCH_service.json)
//
// Exit codes: 1 = parity mismatch or a request failed, 2 = warm/cold
// throughput gate breach, 3 = p99 latency gate breach (mixed or high-band
// probe), 4 = streaming first-result gate breach.
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
using omega::bench::env_or;

std::string workload_json(const std::string& dataset, double scale) {
  JsonWriter w;
  w.begin_object();
  w.member("dataset", dataset);
  w.member("scale", scale);
  w.end_object();
  return w.str();
}

}  // namespace

int main() {
  const std::size_t rounds = env_or("OMEGA_SERVICE_ROUNDS", 12);
  const double scale =
      static_cast<double>(env_or("OMEGA_SERVICE_SCALE_PCT", 50)) / 100.0;
  const std::size_t search_cap = env_or("OMEGA_SERVICE_SEARCH", 96);
  const std::size_t mixed_n = env_or("OMEGA_SERVICE_MIXED", 64);
  const char* mixed_only_env = std::getenv("OMEGA_SERVICE_MIXED_ONLY");
  const bool mixed_only =
      mixed_only_env != nullptr && std::string(mixed_only_env) == "1";
  const char* tcp_env = std::getenv("OMEGA_SERVICE_TCP");
  const char* tcp_only_env = std::getenv("OMEGA_SERVICE_TCP_ONLY");
  const bool tcp_only =
      tcp_only_env != nullptr && std::string(tcp_only_env) == "1";
  const bool run_tcp =
      tcp_only || tcp_env == nullptr || std::string(tcp_env) != "0";
  const std::size_t flood_n = env_or("OMEGA_SERVICE_FLOOD", 60);
  const std::size_t probe_n = env_or("OMEGA_SERVICE_PROBES", 24);
  double gate_p99_ms = 0.0;
  if (const char* s = std::getenv("OMEGA_SERVICE_GATE_P99_MS")) {
    gate_p99_ms = std::atof(s);
  }
  double gate_stream = 0.0;
  if (const char* s = std::getenv("OMEGA_SERVICE_GATE_STREAM_SPEEDUP")) {
    gate_stream = std::atof(s);
  }
  const char* json_path = std::getenv("OMEGA_SERVICE_JSON");
  if (json_path == nullptr) json_path = "BENCH_service.json";

  // Repeated-workload batches cycling over the same three Table IV
  // workloads — the access pattern the registry amortizes (one model
  // serving many mapping queries).
  const std::vector<std::string> datasets{"Citeseer", "Cora", "Proteins"};
  const std::vector<std::string> patterns{"Seq1", "SP1", "SP2",
                                          "PP1",  "PP3", "SPhighV"};
  std::uint64_t id = 0;

  struct PathResult {
    std::vector<std::string> responses;
    double seconds = 0.0;
    double rps = 0.0;
  };
  PathResult cold, cold_search, warm, warm_search;
  bool identical = true;
  double speedup = 0.0;
  double search_speedup = 0.0;
  service::RegistryStats stats;
  double hit_rate = 0.0;
  std::size_t eval_batch_size = 0;
  std::size_t search_batch_size = 0;

  if (!mixed_only && !tcp_only) {
    std::vector<std::string> eval_batch;
    for (std::size_t r = 0; r < rounds; ++r) {
      for (const auto& dataset : datasets) {
        const std::string wl = workload_json(dataset, scale);
        for (const auto& pattern : patterns) {
          eval_batch.push_back(R"({"id":)" + std::to_string(++id) +
                               R"(,"kind":"evaluate","workload":)" + wl +
                               R"(,"out_features":16,"pattern":")" + pattern +
                               R"("})");
        }
      }
    }
    std::vector<std::string> search_batch;
    for (const auto& dataset : datasets) {
      const std::string wl = workload_json(dataset, scale);
      search_batch.push_back(
          R"({"id":)" + std::to_string(++id) +
          R"(,"kind":"search_mappings","workload":)" + wl +
          R"(,"out_features":16,"options":{"max_candidates":)" +
          std::to_string(search_cap) + R"(,"top_k":3}})");
      search_batch.push_back(R"({"id":)" + std::to_string(++id) +
                             R"(,"kind":"search_model","workload":)" + wl +
                             R"(,"model":{"arch":"gcn","widths":[16,8]},)" +
                             R"("options":{"budget":)" +
                             std::to_string(search_cap) + R"(}})");
    }
    eval_batch_size = eval_batch.size();
    search_batch_size = search_batch.size();

    std::cout << "== mapping-service throughput: warm registry vs cold ==\n"
              << "evaluate batch: " << eval_batch.size()
              << " requests, search batch: " << search_batch.size()
              << " requests, over " << datasets.size()
              << " workloads (scale " << fixed(scale, 2) << ", " << rounds
              << " rounds)\n";

    const auto timed = [&](service::MappingService& svc,
                           const std::vector<std::string>& batch) {
      PathResult p;
      std::string input;
      for (const std::string& line : batch) input += line + "\n";
      std::istringstream in(input);
      std::ostringstream out;
      const auto t0 = std::chrono::steady_clock::now();
      (void)svc.serve(in, out);
      const auto t1 = std::chrono::steady_clock::now();
      std::istringstream reread(out.str());
      for (std::string l; std::getline(reread, l);) p.responses.push_back(l);
      p.seconds = std::chrono::duration<double>(t1 - t0).count();
      p.rps = p.seconds > 0.0 ? static_cast<double>(batch.size()) / p.seconds
                              : 0.0;
      return p;
    };

    service::ServiceOptions cold_opts;
    cold_opts.registry_capacity = 0;  // every request synthesizes fresh
    service::MappingService cold_svc(cold_opts);
    cold = timed(cold_svc, eval_batch);
    cold_search = timed(cold_svc, search_batch);

    service::MappingService warm_svc;  // default registry capacity
    warm = timed(warm_svc, eval_batch);
    warm_search = timed(warm_svc, search_batch);

    identical = cold.responses == warm.responses &&
                cold_search.responses == warm_search.responses;
    speedup = cold.rps > 0.0 ? warm.rps / cold.rps : 0.0;
    search_speedup =
        cold_search.rps > 0.0 ? warm_search.rps / cold_search.rps : 0.0;
    stats = warm_svc.registry().stats();
    hit_rate = stats.hits + stats.misses > 0
                   ? static_cast<double>(stats.hits) /
                         static_cast<double>(stats.hits + stats.misses)
                   : 0.0;

    std::cout << "evaluate cold: " << fixed(cold.rps, 1)
              << " requests/sec (" << eval_batch.size() << " in "
              << fixed(cold.seconds, 3) << " s)\n"
              << "evaluate warm: " << fixed(warm.rps, 1)
              << " requests/sec (" << eval_batch.size() << " in "
              << fixed(warm.seconds, 3) << " s) -> " << fixed(speedup, 2)
              << "x\n"
              << "search cold:   " << fixed(cold_search.rps, 1)
              << " requests/sec, warm: " << fixed(warm_search.rps, 1)
              << " -> " << fixed(search_speedup, 2) << "x\n"
              << "registry: hit rate " << fixed(100.0 * hit_rate, 1) << "%, "
              << stats.resident << " resident\n"
              << "parity:   " << (identical ? "byte-identical" : "MISMATCH")
              << "\n";
  }

  // ---- mixed closed-loop latency ----
  //
  // Steady-state tail latency of a warmed daemon: the registry is filled by
  // un-timed warmup requests first, then `mixed_n` requests run one at a
  // time through handle_line. Latencies are wall-clock — the p50/p99 land
  // in BENCH_service.json, never in goldens.
  std::vector<double> eval_ms;
  std::vector<double> search_ms;
  bench::RepeatSummary lat, lat_eval, lat_search;
  bool p99_ok = true;
  if (!tcp_only) {
    std::cout << "\n== mixed closed-loop latency (1 in flight) ==\n"
              << mixed_n << " requests (7:1 evaluate:search_mappings, search "
              << "cap " << search_cap << ")\n";
    service::MappingService mixed_svc;  // default registry capacity
    for (const auto& dataset : datasets) {
      const std::string resp = mixed_svc.handle_line(
          R"({"id":)" + std::to_string(++id) +
          R"(,"kind":"evaluate","workload":)" + workload_json(dataset, scale) +
          R"(,"out_features":16,"pattern":"SP1"})");
      if (resp.find(R"("ok":true)") == std::string::npos) {
        std::cout << "warmup request failed: " << resp << "\n";
        return 1;
      }
    }
    std::vector<double> all_ms;
    all_ms.reserve(mixed_n);
    for (std::size_t i = 0; i < mixed_n; ++i) {
      const bool is_search = i % 8 == 7;
      const std::string wl =
          workload_json(datasets[i % datasets.size()], scale);
      std::string line;
      if (is_search) {
        line = R"({"id":)" + std::to_string(++id) +
               R"(,"kind":"search_mappings","workload":)" + wl +
               R"(,"out_features":16,"options":{"max_candidates":)" +
               std::to_string(search_cap) + R"(,"top_k":3}})";
      } else {
        line = R"({"id":)" + std::to_string(++id) +
               R"(,"kind":"evaluate","workload":)" + wl +
               R"(,"out_features":16,"pattern":")" +
               patterns[i % patterns.size()] + R"("})";
      }
      const auto t0 = std::chrono::steady_clock::now();
      const std::string resp = mixed_svc.handle_line(line);
      const auto t1 = std::chrono::steady_clock::now();
      if (resp.find(R"("ok":true)") == std::string::npos) {
        std::cout << "mixed request failed: " << resp << "\n";
        return 1;
      }
      const double ms =
          std::chrono::duration<double, std::milli>(t1 - t0).count();
      all_ms.push_back(ms);
      (is_search ? search_ms : eval_ms).push_back(ms);
    }
    lat = bench::summarize_samples(all_ms);
    lat_eval = bench::summarize_samples(eval_ms);
    lat_search = bench::summarize_samples(search_ms);
    std::cout << "overall:  p50 " << fixed(lat.median, 3) << " ms, p99 "
              << fixed(lat.p99, 3) << " ms, max " << fixed(lat.max, 3)
              << " ms\n"
              << "evaluate: p50 " << fixed(lat_eval.median, 3) << " ms, p99 "
              << fixed(lat_eval.p99, 3) << " ms (" << eval_ms.size() << ")\n"
              << "search:   p50 " << fixed(lat_search.median, 3)
              << " ms, p99 " << fixed(lat_search.p99, 3) << " ms ("
              << search_ms.size() << ")\n";
    if (gate_p99_ms > 0.0 && lat.p99 > gate_p99_ms) {
      std::cout << "LATENCY GATE FAILED: p99 " << fixed(lat.p99, 3)
                << " ms > allowed " << fixed(gate_p99_ms, 3) << " ms\n";
      p99_ok = false;
    }
  }

  // ---- streaming first-result latency over TCP (phase 3) ----
  struct StreamingResult {
    bool ran = false;
    bool ok = true;
    double first_stream_ms = 0.0;  // median over rounds
    double first_batch_ms = 0.0;
    double speedup = 0.0;
  };
  StreamingResult streaming;
  struct FloodResult {
    bool ran = false;
    bool ok = true;
    std::size_t flood_requests = 0;
    std::size_t probe_requests = 0;
    std::size_t sheds = 0;
    double shed_rate = 0.0;
    bench::RepeatSummary probe;
    obs::MetricsSnapshot snap;
  };
  FloodResult flood;

  if (run_tcp) {
    constexpr std::size_t kStreamRounds = 3;
    try {
      service::MappingService svc;
      const std::string wl = workload_json("Cora", scale);
      const auto fast_line = [&](std::uint64_t i) {
        return R"({"id":)" + std::to_string(i) +
               R"(,"version":2,"priority":7,"kind":"evaluate","workload":)" +
               wl + R"(,"out_features":16,"pattern":"SP2"})";
      };
      const auto slow_line = [&](std::uint64_t i) {
        return R"({"id":)" + std::to_string(i) +
               R"(,"version":2,"priority":0,"kind":"search_mappings",)" +
               R"("workload":)" + wl +
               R"(,"out_features":16,"options":{"max_candidates":)" +
               std::to_string(search_cap * 4) + R"(,"top_k":3}})";
      };
      // Warm the registry and both request shapes un-timed.
      if (svc.handle_line(fast_line(++id)).find(R"("ok":true)") ==
              std::string::npos ||
          svc.handle_line(slow_line(++id)).find(R"("ok":true)") ==
              std::string::npos) {
        std::cout << "streaming warmup failed\n";
        return 1;
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
      // Batch-barrier baseline: a barrier delivers its first result only
      // once the whole round is done, i.e. at the round's last response.
      std::vector<double> batch_ms;
      for (std::size_t r = 0; r < kStreamRounds; ++r) {
        service::StreamClient client =
            service::StreamClient::connect_tcp("127.0.0.1", port);
        const std::uint64_t fast_id = id + 2;
        const auto t0 = std::chrono::steady_clock::now();
        client.send_line(slow_line(++id));
        client.send_line(fast_line(++id));
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
            first->find(R"("ok":true)") == std::string::npos ||
            !last || last->find(R"("ok":true)") == std::string::npos) {
          streaming.ok = false;  // the fast request did not stream first
        }
        stream_ms.push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
        batch_ms.push_back(
            std::chrono::duration<double, std::milli>(t2 - t0).count());
      }
      server.join();
      streaming.ran = true;
      streaming.first_batch_ms = bench::summarize_samples(batch_ms).median;
      streaming.first_stream_ms = bench::summarize_samples(stream_ms).median;
      streaming.speedup = streaming.first_stream_ms > 0.0
                              ? streaming.first_batch_ms /
                                    streaming.first_stream_ms
                              : 0.0;
      std::cout << "first result: batch-barrier "
                << fixed(streaming.first_batch_ms, 3) << " ms, streaming "
                << fixed(streaming.first_stream_ms, 3) << " ms -> "
                << fixed(streaming.speedup, 2) << "x"
                << (streaming.ok ? "" : " (ORDER/PARITY FAILURE)") << "\n";
    } catch (const Error& e) {
      std::cout << "\n(tcp streaming phase skipped: " << e.what() << ")\n";
    }

    // ---- priority flood + shedding over TCP (phase 4) ----
    try {
      service::MappingService flood_svc;
      const std::string wl = workload_json("Cora", scale);
      if (flood_svc.handle_line(
                   R"({"id":1,"kind":"evaluate","workload":)" + wl +
                   R"(,"out_features":16,"pattern":"SP2"})")
              .find(R"("ok":true)") == std::string::npos) {
        std::cout << "flood warmup failed\n";
        return 1;
      }
      constexpr std::size_t kFloodClients = 4;
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
      std::thread server([&] { service::serve_on(flood_svc, listener, so); });

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
              client.send_line(
                  R"({"id":)" + std::to_string(1000 + c * flood_n + i) +
                  R"(,"version":2,"priority":0,"kind":"evaluate",)" +
                  R"("workload":)" + wl +
                  R"(,"out_features":16,"pattern":"SP2"})");
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
          probe.send_line(R"({"id":)" + std::to_string(9000 + i) +
                          R"(,"version":2,"priority":7,"kind":"evaluate",)" +
                          R"("workload":)" + wl +
                          R"(,"out_features":16,"pattern":"SP2"})");
          const std::optional<std::string> r = probe.read_line();
          const auto t1 = std::chrono::steady_clock::now();
          if (!r || r->find(R"("ok":true)") == std::string::npos) {
            flood.ok = false;  // a band-7 probe must never shed
          }
          probe_ms.push_back(
              std::chrono::duration<double, std::milli>(t1 - t0).count());
        }
        probe.shutdown_writes();
      }
      for (std::thread& t : flooders) t.join();
      server.join();
      flood.ran = true;
      if (flood_failed) flood.ok = false;
      flood.flood_requests = kFloodClients * flood_n;
      flood.probe_requests = probe_n;
      flood.sheds = sheds;
      flood.shed_rate = flood.flood_requests > 0
                            ? static_cast<double>(sheds) /
                                  static_cast<double>(flood.flood_requests)
                            : 0.0;
      flood.probe = bench::summarize_samples(probe_ms);
      flood.snap = flood_svc.metrics().snapshot();
      std::cout << "flood: " << flood.flood_requests << " requests, "
                << flood.sheds << " shed ("
                << fixed(100.0 * flood.shed_rate, 1) << "%)\n"
                << "band-7 probes: p50 " << fixed(flood.probe.median, 3)
                << " ms, p99 " << fixed(flood.probe.p99, 3) << " ms, max "
                << fixed(flood.probe.max, 3) << " ms"
                << (flood.ok ? "" : " (FLOOD FAILURE)") << "\n";
      if (gate_p99_ms > 0.0 && flood.probe.p99 > gate_p99_ms) {
        std::cout << "HIGH-BAND LATENCY GATE FAILED: probe p99 "
                  << fixed(flood.probe.p99, 3) << " ms > allowed "
                  << fixed(gate_p99_ms, 3) << " ms\n";
        p99_ok = false;
      }
    } catch (const Error& e) {
      std::cout << "\n(tcp flood phase skipped: " << e.what() << ")\n";
    }
  }

  std::ofstream json(json_path);
  if (json) {
    JsonWriter jw(2);
    jw.begin_object();
    jw.member("bench", "service_throughput");
    jw.member("workloads", static_cast<std::uint64_t>(datasets.size()));
    jw.member("scale", scale);
    if (!mixed_only && !tcp_only) {
      jw.member("evaluate_requests",
                static_cast<std::uint64_t>(eval_batch_size));
      jw.member("search_requests",
                static_cast<std::uint64_t>(search_batch_size));
      jw.member("rounds", static_cast<std::uint64_t>(rounds));
      jw.key("evaluate").begin_object();
      jw.key("cold").begin_object();
      jw.member("seconds", cold.seconds);
      jw.member("requests_per_sec", cold.rps);
      jw.end_object();
      jw.key("warm").begin_object();
      jw.member("seconds", warm.seconds);
      jw.member("requests_per_sec", warm.rps);
      jw.end_object();
      jw.member("speedup", speedup);
      jw.end_object();
      jw.key("search").begin_object();
      jw.key("cold").begin_object();
      jw.member("seconds", cold_search.seconds);
      jw.member("requests_per_sec", cold_search.rps);
      jw.end_object();
      jw.key("warm").begin_object();
      jw.member("seconds", warm_search.seconds);
      jw.member("requests_per_sec", warm_search.rps);
      jw.end_object();
      jw.member("speedup", search_speedup);
      jw.end_object();
      jw.key("registry").begin_object();
      jw.member("hits", stats.hits);
      jw.member("misses", stats.misses);
      jw.member("hit_rate", hit_rate);
      jw.member("resident", static_cast<std::uint64_t>(stats.resident));
      jw.end_object();
      jw.member("parity", identical ? "byte-identical" : "mismatch");
    }
    if (!tcp_only) {
      jw.key("latency").begin_object();
      jw.member("requests", static_cast<std::uint64_t>(mixed_n));
      jw.member("evaluate_requests",
                static_cast<std::uint64_t>(eval_ms.size()));
      jw.member("search_requests",
                static_cast<std::uint64_t>(search_ms.size()));
      jw.member("p50_ms", lat.median);
      jw.member("p99_ms", lat.p99);
      jw.member("max_ms", lat.max);
      jw.member("evaluate_p50_ms", lat_eval.median);
      jw.member("evaluate_p99_ms", lat_eval.p99);
      jw.member("search_p50_ms", lat_search.median);
      jw.member("search_p99_ms", lat_search.p99);
      jw.member("gate_p99_ms", gate_p99_ms);
      jw.end_object();
    }
    if (streaming.ran) {
      jw.key("streaming").begin_object();
      jw.member("first_result_batch_ms", streaming.first_batch_ms);
      jw.member("first_result_stream_ms", streaming.first_stream_ms);
      jw.member("speedup", streaming.speedup);
      jw.member("gate_speedup", gate_stream);
      jw.member("ordered", streaming.ok);
      jw.end_object();
    }
    if (flood.ran) {
      jw.key("flood").begin_object();
      jw.member("flood_requests",
                static_cast<std::uint64_t>(flood.flood_requests));
      jw.member("probe_requests",
                static_cast<std::uint64_t>(flood.probe_requests));
      jw.member("sheds", static_cast<std::uint64_t>(flood.sheds));
      jw.member("shed_rate", flood.shed_rate);
      jw.member("probe_p50_ms", flood.probe.median);
      jw.member("probe_p99_ms", flood.probe.p99);
      jw.member("probe_max_ms", flood.probe.max);
      jw.member("gate_p99_ms", gate_p99_ms);
      // Server-side scheduler counters and per-band latency histograms —
      // the per-band artifact CI uploads.
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
    }
    jw.end_object();
    json << jw.str() << "\n";
    std::cout << "(json: " << json_path << ")\n";
  }

  // Acceptance: warm >= 3x cold on a repeated-workload batch, the registry
  // must be semantically invisible (byte-identical responses), streamed
  // responses must arrive high-band-first with every request answered, and
  // — when gated — the p99s must stay under OMEGA_SERVICE_GATE_P99_MS and
  // streaming must beat the batch barrier by
  // OMEGA_SERVICE_GATE_STREAM_SPEEDUP.
  if (!identical) return 1;
  if (!streaming.ok || !flood.ok) return 1;
  if (!mixed_only && !tcp_only && speedup < 3.0) return 2;
  if (!p99_ok) return 3;
  if (gate_stream > 0.0 && streaming.ran && streaming.speedup < gate_stream) {
    std::cout << "STREAMING GATE FAILED: first-result speedup "
              << fixed(streaming.speedup, 2) << "x < required "
              << fixed(gate_stream, 2) << "x\n";
    return 4;
  }
  return 0;
}
