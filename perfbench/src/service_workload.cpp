// service-mix-tcp: an in-process daemon (serve_on on a port-0 Listener,
// default ServiceOptions) driven by closed-loop StreamClient connections.
#include <atomic>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>

#include "engine/schedule_cache.hpp"
#include "obs/trace.hpp"
#include "omega/omega.hpp"
#include "service/registry.hpp"
#include "service/scheduler.hpp"
#include "service/server.hpp"
#include "service/tcp.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace omega;

namespace {

constexpr std::size_t kClients = 3;
constexpr std::size_t kSetups = 7;
// Requests per client list: ~40 s of closed-loop traffic on a 4-core box.
// A client that runs out before --seconds is over fails the run.
constexpr std::size_t kPerClient = 6000;
constexpr const char* kHost = "127.0.0.1";

bool ok_response(const std::string& response) {
  return response.find(R"("ok":true)") != std::string::npos;
}

/// A response or request line without its leading {"id":N, member.
std::string without_id(const std::string& line) {
  const std::size_t comma = line.find(',');
  return comma == std::string::npos ? line : line.substr(comma);
}

/// search_pipeline responses carry per-sweep term-build counters, which
/// depend on what earlier requests left in the workload's term store; they
/// are the one part of a response that is not a function of the request.
std::string comparable(const std::string& response) {
  std::string s = without_id(response);
  const std::size_t at = s.find(R"("eval":{)");
  if (at != std::string::npos) {
    const std::size_t end = s.find('}', at);
    if (end != std::string::npos) s.erase(at, end + 2 - at);  // + trailing ,
  }
  return s;
}

/// A daemon on a port-0 listener, served on its own thread. The destructor
/// opens the connections the accept loop still waits for, then joins.
class Daemon {
 public:
  Daemon(obs::TraceCollector* trace, std::size_t connections)
      : service_(service::ServiceOptions{.trace = trace}),
        listener_(service::Listener::tcp(kHost, 0)),
        connections_(connections) {
    service::ServeOptions so;
    so.max_connections = connections;
    thread_ = std::thread([this, so] { service::serve_on(service_, listener_, so); });
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() {
    while (opened_ < connections_) {
      try {
        service::StreamClient c = connect();
        c.shutdown_writes();
        while (c.read_line()) {
        }
      } catch (const Error&) {
        // connect() counted the attempt; the accept loop may still need more
      }
    }
    thread_.join();
  }

  service::StreamClient connect() {
    ++opened_;
    return service::StreamClient::connect_tcp(kHost, listener_.port());
  }
  [[nodiscard]] const service::MappingService& service() const {
    return service_;
  }

 private:
  service::MappingService service_;
  service::Listener listener_;
  std::size_t connections_;
  std::atomic<std::size_t> opened_{0};
  std::thread thread_;  // last: joins before the members it uses go
};

/// One request/response exchange on a closed-loop connection.
std::string exchange(service::StreamClient& c, const std::string& line,
                     double& ms) {
  const auto t0 = Clock::now();
  c.send_line(line);
  std::optional<std::string> resp = c.read_line();
  ms = 1e3 * seconds_since(t0);
  return resp ? std::move(*resp) : std::string{};
}

void close_client(service::StreamClient& c) {
  c.shutdown_writes();
  while (c.read_line()) {
  }
}

struct Sent {
  std::size_t client = 0;
  std::size_t index = 0;  // position in the client's list
  std::string response;
  double ms = 0.0;
};

struct LoadStats {
  std::vector<Sent> sent;
  double seconds = 0.0;
  std::array<std::vector<double>, kRequestKinds> ms;  // per RequestKind
  std::vector<double> all_ms;
  std::uint64_t search_decided = 0;
  double search_seconds = 0.0;

  [[nodiscard]] double rps() const {
    return seconds > 0.0 ? static_cast<double>(sent.size()) / seconds : 0.0;
  }
  [[nodiscard]] double cand_per_s() const {
    return search_seconds > 0.0
               ? static_cast<double>(search_decided) / search_seconds
               : 0.0;
  }
};

struct SetUp {
  std::unique_ptr<Daemon> daemon;
  double setup_s = 0.0;        // listen + warm-up requests
  double cold_search_s = 0.0;  // mean of the fresh daemon's first searches
};

/// Set-up of one daemon accepting `connections`: listen plus the warm-up
/// requests for the hot workloads (timed), then the cold-search probe on
/// the same connection.
SetUp set_up(obs::TraceCollector* trace, std::size_t connections,
             const ServicePlan& plan, BenchResult& r) {
  SetUp out;
  const auto t0 = Clock::now();
  out.daemon = std::make_unique<Daemon>(trace, connections);
  service::StreamClient c = out.daemon->connect();
  for (const std::string& line : plan.warmup) {
    double ms = 0.0;
    ++r.attempted;
    if (!ok_response(exchange(c, line, ms))) r.fail("warm-up request failed");
  }
  out.setup_s = seconds_since(t0);
  for (const std::string& line : plan.cold_search) {
    double ms = 0.0;
    ++r.attempted;
    if (!ok_response(exchange(c, line, ms))) r.fail("cold search failed");
    out.cold_search_s += ms / 1e3;
  }
  out.cold_search_s /= static_cast<double>(plan.cold_search.size());
  close_client(c);
  return out;
}

/// Closed-loop clients, one connection each, until `seconds` have passed.
LoadStats drive(Daemon& d, const ServicePlan& plan, double seconds,
                BenchResult& r) {
  LoadStats s;
  std::vector<std::vector<Sent>> per(kClients);
  std::vector<std::thread> threads;
  std::atomic<bool> error{false};
  std::atomic<bool> exhausted{false};
  const auto start = Clock::now();
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      try {
        service::StreamClient conn = d.connect();
        const auto& list = plan.clients[c];
        for (std::size_t i = 0; seconds_since(start) < seconds; ++i) {
          if (i == list.size()) {
            exhausted = true;
            break;
          }
          Sent sent{c, i, {}, 0.0};
          sent.response = exchange(conn, list[i].line, sent.ms);
          per[c].push_back(std::move(sent));
        }
        close_client(conn);
      } catch (const std::exception&) {
        error = true;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  s.seconds = seconds_since(start);
  if (error) r.fail("a client connection failed");
  if (exhausted) r.fail("a client ran out of requests before the time was up");
  for (auto& client : per) {
    for (Sent& x : client) {
      const ServiceRequest& req = plan.clients[x.client][x.index];
      ++r.attempted;
      if (!ok_response(x.response)) {
        r.fail(std::string(to_string(req.kind)) + " request failed: " +
               x.response.substr(0, 160));
      }
      s.ms[static_cast<std::size_t>(req.kind)].push_back(x.ms);
      s.all_ms.push_back(x.ms);
      if (req.kind == RequestKind::kSearch && ok_response(x.response)) {
        const JsonValue v = JsonValue::parse(x.response);
        s.search_decided +=
            v.find("evaluated")->as_u64() + v.find("pruned")->as_u64();
        s.search_seconds += x.ms / 1e3;
      }
      s.sent.push_back(std::move(x));
    }
  }
  return s;
}

/// Replays every request the clients sent through handle_line, one at a
/// time, and compares the responses. Repeated request bodies are handled
/// once (a response is a function of its request; only the id differs).
/// Slices replay on separate services in parallel.
void check_against_replay(const ServicePlan& plan, const LoadStats& s,
                          BenchResult& r) {
  std::map<std::string, std::vector<const Sent*>> by_body;
  for (const Sent& x : s.sent) {
    by_body[without_id(plan.clients[x.client][x.index].line)].push_back(&x);
  }
  std::vector<const std::vector<const Sent*>*> groups;
  for (const auto& [body, group] : by_body) groups.push_back(&group);
  constexpr std::size_t kSlices = 4;
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kSlices; ++t) {
    threads.emplace_back([&, t] {
      service::MappingService replay;
      for (std::size_t g = t; g < groups.size(); g += kSlices) {
        const Sent& first = *groups[g]->front();
        const std::string expected = comparable(
            replay.handle_line(plan.clients[first.client][first.index].line));
        for (const Sent* x : *groups[g]) {
          if (comparable(x->response) != expected) ++mismatches;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (mismatches > 0) {
    r.fail(std::to_string(mismatches.load()) +
           " responses differ from the single-threaded replay");
  }
}

void check_parse(const ServicePlan& plan, BenchResult& r) {
  std::size_t bad = 0;
  const auto check = [&](const std::string& line) {
    try {
      (void)service::parse_request(line);
    } catch (const Error&) {
      ++bad;
    }
  };
  for (const std::string& l : plan.warmup) check(l);
  for (const std::string& l : plan.cold_search) check(l);
  for (const auto& client : plan.clients) {
    for (const ServiceRequest& q : client) check(q.line);
  }
  if (bad > 0) r.fail(std::to_string(bad) + " generated requests do not parse");
}

double hist_p50(const obs::MetricsSnapshot& snap, const std::string& name) {
  const auto it = snap.histograms.find(name);
  return it == snap.histograms.end()
             ? 0.0
             : static_cast<double>(it->second.value_at_percentile(50.0));
}

/// Service-layer probes of the traced run: parse, registry acquire,
/// response builders, scheduler queue wait, and the searches' DSE stages.
void probe_service_layers(const ServicePlan& plan, std::size_t daemon_capacity,
                          LayerRecorder& rec, BenchResult& r) {
  const auto& requests = plan.clients.front();
  const std::size_t n = std::min<std::size_t>(requests.size(), 400);
  std::vector<service::Request> parsed;
  for (std::size_t i = 0; i < n; ++i) {
    parsed.push_back(rec.time("service.parse", "service", [&] {
      return service::parse_request(requests[i].line);
    }));
  }

  // A registry the benchmark owns, with the daemon's capacity.
  service::WorkloadRegistry registry(daemon_capacity);
  const Omega omega(default_accelerator());
  std::map<std::string, std::shared_ptr<const service::WorkloadEntry>> hot;
  std::set<std::string> searched;  // search bodies already run once
  std::vector<double> evaluated, pruned;  // per warm probe search
  for (std::size_t i = 0; i < n; ++i) {
    const service::Request& q = parsed[i];
    const std::uint64_t misses = registry.stats().misses;
    const auto t0 = Clock::now();
    const std::shared_ptr<const service::WorkloadEntry> entry = rec.time(
        "service.registry_acquire", "service",
        [&] { return registry.acquire(q.workload); });
    const double us = 1e6 * seconds_since(t0);
    rec.add(registry.stats().misses > misses ? "service.registry_miss"
                                             : "service.registry_hit",
            us);
    if (requests[i].kind == RequestKind::kCold) continue;
    hot[q.workload.signature()] = entry;
    const GnnWorkload& w = entry->workload;
    try {
      switch (requests[i].kind) {
        case RequestKind::kEvaluate: {
          DataflowDescriptor df = DataflowDescriptor::parse(q.dataflow);
          df.pp_agg_pe_fraction = q.pp_fraction;
          df.agg.tiles = {.v = q.tiles[0], .n = q.tiles[1], .f = q.tiles[2],
                          .g = 1};
          df.cmb.tiles = {.v = q.tiles[3], .n = 1, .f = q.tiles[5],
                          .g = q.tiles[4]};
          const RunResult res = omega.run(w, LayerSpec{q.out_features}, df,
                                           entry->context);
          rec.time("service.serialize.evaluate", "service", [&] {
            return service::evaluate_response(q.id, w, res, q.version);
          });
          break;
        }
        case RequestKind::kPipelineEval: {
          const PipelineResult res =
              omega.run_pipeline(w, q.pipeline, &entry->context);
          rec.time("service.serialize.evaluate_pipeline", "service", [&] {
            return service::evaluate_pipeline_response(q.id, w, q.pipeline,
                                                       res, q.version);
          });
          break;
        }
        case RequestKind::kSearch: {
          PipelineSearchOptions opt = q.pipeline_search;
          opt.trace = rec.trace();
          const bool warm = !searched.insert(without_id(requests[i].line)).second;
          const obs::ScopedSpan span(rec.trace(),
                                     warm ? "search_warm" : "search_cold",
                                     "bench");
          const PipelineSearchResult res = search_pipeline_mappings(
              omega, w, q.chain, opt, &entry->context);
          if (warm) {
            evaluated.push_back(static_cast<double>(res.evaluated));
            pruned.push_back(static_cast<double>(res.pruned));
          }
          rec.time("service.serialize.search_pipeline", "service", [&] {
            return service::search_pipeline_response(q.id, w, q.chain, res,
                                                     q.version);
          });
          break;
        }
        case RequestKind::kCold: break;
      }
    } catch (const Error&) {
      r.fail("probe evaluation of request " + std::to_string(q.id) + " failed");
    }
  }
  const auto med = [&](const char* name) { return median_of(rec.samples(name)); };
  const auto cnt = [&](const char* name) { return rec.samples(name).size(); };
  r.add_layer("service.parse_us", med("service.parse"), "us",
              cnt("service.parse"));
  for (const char* kind : {"evaluate", "evaluate_pipeline", "search_pipeline"}) {
    const std::string name = std::string("service.serialize.") + kind;
    r.add_layer(std::string("service.serialize_us.") + kind,
                med(name.c_str()), "us", cnt(name.c_str()));
  }
  r.add_layer("service.registry_hit_us", med("service.registry_hit"), "us",
              cnt("service.registry_hit"));
  r.add_layer("service.registry_miss_ms", med("service.registry_miss") / 1e3,
              "ms", cnt("service.registry_miss"));
  std::size_t memo = 0, overflow = 0, schedules = 0;
  for (const auto& [sig, entry] : hot) {
    memo += entry->context.phase_cache_size();
    overflow += entry->context.phase_memo_overflow();
    schedules += entry->context.schedule_cache_size();
  }
  r.add_layer("engine.phase_memo_entries", static_cast<double>(memo), "count");
  r.add_layer("engine.phase_memo_overflow", static_cast<double>(overflow),
              "count");
  r.add_layer("engine.schedules", static_cast<double>(schedules), "count");

  // Scheduler queue wait: serve_on's default scheduler options, a handler
  // that timestamps its start, kClients closed-loop submitters.
  service::MappingService svc;
  std::mutex mu;
  std::map<std::string, Clock::time_point> submitted;  // guarded by mu
  service::RequestScheduler sched(
      [&](const std::string& line) {
        const auto started = Clock::now();
        {
          const std::scoped_lock lock(mu);
          rec.add("service.queue_wait",
                  std::chrono::duration<double, std::micro>(
                      started - submitted.at(line))
                      .count());
        }
        return svc.handle_line(line);
      },
      service::SchedulerOptions{});
  sched.start();
  std::vector<std::thread> submitters;
  for (std::size_t c = 0; c < kClients; ++c) {
    submitters.emplace_back([&, c] {
      const auto& list = plan.clients[c];
      for (std::size_t i = 0; i < std::min<std::size_t>(list.size(), 100);
           ++i) {
        {
          const std::scoped_lock lock(mu);
          submitted[list[i].line] = Clock::now();
        }
        std::promise<void> done;
        sched.submit(list[i].line, service::SubmitMeta{},
                     [&](std::string, bool) { done.set_value(); });
        done.get_future().wait();
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  sched.stop();
  r.add_layer("service.queue_wait_us", med("service.queue_wait"), "us",
              cnt("service.queue_wait"));
  report_stage_layers(*rec.trace(), r);
  r.add_layer("dse.evaluated", median_of(evaluated), "count", evaluated.size());
  r.add_layer("dse.pruned", median_of(pruned), "count", pruned.size());
}

}  // namespace

BenchResult run_service_mix(const RunArgs& args) {
  BenchResult r;
  const auto t_inputs = Clock::now();
  const ServicePlan plan = service_plan(args.seed, kClients, kPerClient);
  check_parse(plan, r);
  r.report.push_back("inputs: " + std::to_string(kClients) + " x " +
                     std::to_string(kPerClient) + " requests generated in " +
                     std::to_string(seconds_since(t_inputs)) + " s");
  obs::TraceCollector collector;
  LayerRecorder rec(args.trace ? &collector : nullptr);

  if (!args.trace) {
    std::vector<double> setup_s;
    std::vector<double> cold_s;
    SetUp up;
    for (std::size_t i = 0; i < kSetups; ++i) {
      up.daemon.reset();
      const bool last = i + 1 == kSetups;
      up = set_up(nullptr, last ? 1 + kClients : 1, plan, r);
      setup_s.push_back(up.setup_s);
      cold_s.push_back(up.cold_search_s);
    }
    const LoadStats s = drive(*up.daemon, plan, args.seconds, r);
    up.daemon.reset();
    const auto t_replay = Clock::now();
    check_against_replay(plan, s, r);
    r.report.push_back("replay check: " +
                       std::to_string(seconds_since(t_replay)) + " s");
    const auto& search = s.ms[static_cast<std::size_t>(RequestKind::kSearch)];
    r.add_e2e("setup_s", median_of(setup_s), "s", setup_s.size());
    r.add_e2e("rss_peak_mib", rss_peak_mib(), "MiB");
    r.add_e2e("cold_search_s", median_of(cold_s), "s", cold_s.size());
    if (samples_beyond(search.size(), 50.0) < kSamplesBeyond) {
      r.fail("only " + std::to_string(search.size()) + " search requests");
    }
    r.add_e2e("search_p50_ms", median_of(search), "ms", search.size());
    r.add_e2e("cand_per_s", s.cand_per_s(), "1/s", search.size());
    // The service's per-kind figures, client side, under the percentile
    // rule (they are per-layer metrics of the traced run).
    r.report.push_back(format_metric(
        {"rps", s.rps(), "1/s", s.sent.size()}));
    const std::pair<RequestKind, double> tails[] = {
        {RequestKind::kEvaluate, 50.0},     {RequestKind::kEvaluate, 99.0},
        {RequestKind::kPipelineEval, 50.0}, {RequestKind::kSearch, 90.0},
        {RequestKind::kCold, 50.0}};
    for (const auto& [kind, p] : tails) {
      if (const auto m = latency_percentile(
              to_string(kind), s.ms[static_cast<std::size_t>(kind)], p)) {
        r.report.push_back(format_metric(*m));
      }
    }
    return r;
  }

  // Traced run: a trace-off daemon, then a traced one, each for half the
  // time; the per-layer numbers come from the traced half and the probes.
  const double half = args.seconds / 2.0;
  LoadStats off;
  {
    const SetUp up = set_up(nullptr, 1 + kClients, plan, r);
    off = drive(*up.daemon, plan, half, r);
  }
  check_against_replay(plan, off, r);
  LoadStats on;
  obs::MetricsSnapshot server;
  service::RegistryStats reg{};
  ContextEvalStats eval{};
  {
    const SetUp up = set_up(&collector, 1 + kClients, plan, r);
    on = drive(*up.daemon, plan, half, r);
    server = up.daemon->service().metrics().snapshot();
    reg = up.daemon->service().registry().stats();
    eval = up.daemon->service().registry().eval_stats();
  }
  check_against_replay(plan, on, r);

  const auto kind_ms = [&](RequestKind k) -> const std::vector<double>& {
    return on.ms[static_cast<std::size_t>(k)];
  };
  const auto pct = [&](const std::vector<double>& v, double p) {
    return samples_beyond(v.size(), p) >= kSamplesBeyond ? percentile_of(v, p)
                                                          : 0.0;
  };
  r.add_layer("rps", on.rps(), "1/s", on.sent.size());
  r.add_layer("evaluate_p50_ms", pct(kind_ms(RequestKind::kEvaluate), 50.0),
              "ms", kind_ms(RequestKind::kEvaluate).size());
  r.add_layer("evaluate_p99_ms", pct(kind_ms(RequestKind::kEvaluate), 99.0),
              "ms", kind_ms(RequestKind::kEvaluate).size());
  r.add_layer("pipeline_eval_p50_ms",
              pct(kind_ms(RequestKind::kPipelineEval), 50.0), "ms",
              kind_ms(RequestKind::kPipelineEval).size());
  r.add_layer("search_p90_ms", pct(kind_ms(RequestKind::kSearch), 90.0), "ms",
              kind_ms(RequestKind::kSearch).size());
  r.add_layer("cold_p50_ms", pct(kind_ms(RequestKind::kCold), 50.0), "ms",
              kind_ms(RequestKind::kCold).size());
  r.add_layer("obs.trace_overhead_pct",
              on.rps() > 0.0 ? 100.0 * (off.rps() / on.rps() - 1.0) : 0.0,
              "%");
  r.add_layer("service.handle_us.evaluate",
              hist_p50(server, "service.latency_us.evaluate"), "us");
  r.add_layer("service.handle_us.search_pipeline",
              hist_p50(server, "service.latency_us.search_pipeline"), "us");
  r.add_layer("service.transport_us",
              1e3 * median_of(on.all_ms) - hist_p50(server, "service.latency_us"),
              "us", on.all_ms.size());
  r.add_layer("service.registry_hit_ratio",
              reg.hits + reg.misses > 0
                  ? static_cast<double>(reg.hits) /
                        static_cast<double>(reg.hits + reg.misses)
                  : 0.0,
              "ratio");
  r.add_layer("service.evictions", static_cast<double>(reg.evictions), "count");
  r.add_layer("engine.term_requests", static_cast<double>(eval.term_requests),
              "count");
  r.add_layer("engine.term_builds", static_cast<double>(eval.term_builds),
              "count");
  r.add_layer("engine.term_build_ratio",
              eval.term_requests > 0
                  ? static_cast<double>(eval.term_builds) /
                        static_cast<double>(eval.term_requests)
                  : 0.0,
              "ratio");
  r.add_layer("engine.terms", static_cast<double>(eval.terms), "count");
  r.add_layer("engine.term_timeline_mib",
              static_cast<double>(eval.term_bytes) / (1024.0 * 1024.0), "MiB");

  // Graph layer: synthesis and transpose of the hot workloads.
  for (const std::string& name : plan.hot_datasets) {
    const GnnWorkload w = rec.time("graph.generate", "graph", [&] {
      return dataset_workload(name, kDatasetScale, args.seed);
    });
    rec.time("graph.transpose", "graph",
             [&] { return w.adjacency.transposed().num_edges(); });
  }
  r.add_layer("graph.generate_ms", median_of(rec.samples("graph.generate")) / 1e3,
              "ms", plan.hot_datasets.size());
  r.add_layer("graph.transpose_ms",
              median_of(rec.samples("graph.transpose")) / 1e3, "ms",
              plan.hot_datasets.size());

  probe_service_layers(plan, service::ServiceOptions{}.registry_capacity, rec,
                       r);
  const GnnWorkload cora = dataset_workload("Cora", kDatasetScale, args.seed);
  probe_engine_layers(Omega(default_accelerator()), cora, budget_rotation(),
                      1024, rec, r);
  r.add_layer("obs.trace_events", static_cast<double>(collector.size()),
              "count");
  if (!args.trace_out.empty()) collector.write_file(args.trace_out);
  return r;
}

}  // namespace perfbench
