#include "inputs.hpp"

#include <algorithm>
#include <limits>
#include <unordered_set>

#include "dse/search.hpp"
#include "graph/generators.hpp"
#include "omega/tiler.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace omega;

GnnWorkload rmat_workload(std::uint64_t seed) {
  Rng rng(seed);
  GnnWorkload w;
  w.name = "rmat-s" + std::to_string(kSweepScale);
  w.adjacency = rmat(kSweepScale, kSweepEdgeBudget, rng)
                    .with_self_loops()
                    .gcn_normalized();
  w.in_features = kSweepInFeatures;
  return w;
}

GnnWorkload dataset_workload(const std::string& name, double scale,
                             std::uint64_t seed) {
  SynthesisOptions so;
  so.seed = seed;
  so.scale = scale;
  return synthesize_workload(dataset_by_name(name), so);
}

PipelineChainSpec classic_ac_chain() {
  PipelineChainSpec c;
  c.phases = {{.name = "agg", .engine = PhaseEngine::kSparseDense},
              {.name = "cmb",
               .engine = PhaseEngine::kDenseDense,
               .out_features = 16}};
  return c;
}

PipelineChainSpec classic_ca_chain() {
  PipelineChainSpec c;
  c.phases = {{.name = "cmb",
               .engine = PhaseEngine::kDenseDense,
               .out_features = 16},
              {.name = "agg", .engine = PhaseEngine::kSparseDense}};
  return c;
}

PipelineChainSpec gat_chain() {
  PipelineChainSpec c;
  c.phases = {{.name = "score",
               .engine = PhaseEngine::kDenseDense,
               .out_features = 16},
              {.name = "agg", .engine = PhaseEngine::kSparseDense},
              {.name = "xform",
               .engine = PhaseEngine::kSparseSparse,
               .out_features = 8,
               .weight_density = 0.5}};
  return c;
}

SearchSpec sweep_search() {
  SearchSpec s{"ac+ca", {classic_ac_chain(), classic_ca_chain()}, {}};
  s.options.objective = Objective::kRuntime;
  s.options.max_candidates = kSweepCap;
  s.options.seed_table5 = true;
  return s;
}

std::vector<SearchSpec> budget_rotation() {
  SearchSpec classic{"classic", {classic_ac_chain()}, {}};
  classic.options.objective = Objective::kRuntime;
  classic.options.max_candidates = kSearchBudget;
  SearchSpec gat{"gat", {gat_chain()}, {}};
  gat.options.objective = Objective::kEnergyDelayProduct;
  gat.options.prune = true;
  gat.options.max_candidates = kSearchBudget;
  return {classic, gat};
}

std::vector<PipelineCandidate> evaluated_bindings(
    const Omega& omega, const GnnWorkload& w,
    const std::vector<PipelineChainSpec>& chains,
    PipelineSearchOptions options) {
  options.prune = false;
  options.top_k = std::numeric_limits<std::size_t>::max();
  PipelineSearchResult r =
      search_pipeline_mappings(omega, w, chains, options);
  std::vector<PipelineCandidate> out;
  out.reserve(r.ranked.size());
  for (RankedPipelineCandidate& c : r.ranked) {
    out.push_back(std::move(c.candidate));
  }
  return out;
}

const char* to_string(RequestKind k) {
  switch (k) {
    case RequestKind::kEvaluate: return "evaluate";
    case RequestKind::kPipelineEval: return "pipeline_eval";
    case RequestKind::kSearch: return "search";
    case RequestKind::kCold: return "cold";
  }
  return "?";
}

namespace {

void write_workload(JsonWriter& w, const std::string& dataset,
                    std::uint64_t seed) {
  w.key("workload").begin_object();
  w.member("dataset", dataset);
  w.member("scale", kDatasetScale);
  w.member("seed", seed);
  w.end_object();
}

/// Draws `count` distinct indices below `population` (fewer if it is
/// smaller), in draw order.
std::vector<std::size_t> distinct_sample(Rng& rng, std::size_t population,
                                         std::size_t count) {
  count = std::min(count, population);
  std::unordered_set<std::size_t> seen;
  std::vector<std::size_t> out;
  out.reserve(count);
  while (out.size() < count) {
    const auto i = static_cast<std::size_t>(rng.next_below(population));
    if (seen.insert(i).second) out.push_back(i);
  }
  return out;
}

std::string evaluate_line(std::uint64_t id, const std::string& dataset,
                          std::uint64_t seed, const DataflowDescriptor& df) {
  JsonWriter w;
  w.begin_object();
  w.member("id", id);
  w.member("kind", "evaluate");
  write_workload(w, dataset, seed);
  w.member("out_features", std::uint64_t{16});
  w.member("dataflow", df.to_string());
  w.key("tiles").begin_array();
  for (const std::size_t t : {df.agg.tiles.v, df.agg.tiles.n, df.agg.tiles.f,
                              df.cmb.tiles.v, df.cmb.tiles.g, df.cmb.tiles.f}) {
    w.value(static_cast<std::uint64_t>(t));
  }
  w.end_array();
  if (df.inter == InterPhase::kParallelPipeline) {
    w.member("pp_fraction", df.pp_agg_pe_fraction);
  }
  w.end_object();
  return w.str();
}

std::string pipeline_eval_line(std::uint64_t id, const std::string& dataset,
                               std::uint64_t seed,
                               const PipelineChainSpec& chain,
                               const PipelineCandidate& c) {
  JsonWriter w;
  w.begin_object();
  w.member("id", id);
  w.member("version", std::uint64_t{2});
  w.member("kind", "evaluate");
  write_workload(w, dataset, seed);
  w.key("pipeline").begin_object();
  w.key("phases").begin_array();
  for (std::size_t i = 0; i < chain.phases.size(); ++i) {
    const PhaseChainSpec& p = chain.phases[i];
    const IntraPhaseDataflow& df = c.phases[i];
    w.begin_object();
    w.member("name", p.name);
    w.member("engine", to_string(p.engine));
    w.member("dataflow", df.to_string());
    w.key("tiles").begin_array();
    if (p.engine == PhaseEngine::kSparseDense) {
      for (const std::size_t t : {df.tiles.v, df.tiles.n, df.tiles.f}) {
        w.value(static_cast<std::uint64_t>(t));
      }
    } else {
      for (const std::size_t t : {df.tiles.v, df.tiles.f, df.tiles.g}) {
        w.value(static_cast<std::uint64_t>(t));
      }
    }
    w.end_array();
    if (p.engine != PhaseEngine::kSparseDense) {
      w.member("out_features", static_cast<std::uint64_t>(p.out_features));
    }
    if (p.engine == PhaseEngine::kSparseSparse) {
      w.member("density", p.weight_density);
    }
    w.end_object();
  }
  w.end_array();
  w.key("boundaries").begin_array();
  for (const InterPhase b : c.boundaries) w.value(to_string(b));
  w.end_array();
  if (!c.pe_fractions.empty()) {
    w.key("pe_fractions").begin_array();
    for (const double f : c.pe_fractions) w.value(f);
    w.end_array();
  }
  w.end_object();
  w.end_object();
  return w.str();
}

std::string search_line(std::uint64_t id, const std::string& dataset,
                        std::uint64_t seed, bool gat) {
  JsonWriter w;
  w.begin_object();
  w.member("id", id);
  w.member("version", std::uint64_t{2});
  w.member("kind", "search_pipeline");
  write_workload(w, dataset, seed);
  w.key("chain").begin_object();
  w.key("phases").begin_array();
  const PipelineChainSpec chain = gat ? gat_chain() : classic_ac_chain();
  for (const PhaseChainSpec& p : chain.phases) {
    w.begin_object();
    w.member("name", p.name);
    w.member("engine", to_string(p.engine));
    if (p.engine != PhaseEngine::kSparseDense) {
      w.member("out_features", static_cast<std::uint64_t>(p.out_features));
    }
    if (p.engine == PhaseEngine::kSparseSparse) {
      w.member("density", p.weight_density);
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.key("options").begin_object();
  w.member("max_candidates", static_cast<std::uint64_t>(kSearchBudget));
  w.member("objective", gat ? "edp" : "runtime");
  if (gat) w.member("prune", true);
  w.end_object();
  w.end_object();
  return w.str();
}

std::string pattern_line(std::uint64_t id, const std::string& dataset,
                         std::uint64_t seed, const std::string& pattern) {
  JsonWriter w;
  w.begin_object();
  w.member("id", id);
  w.member("kind", "evaluate");
  write_workload(w, dataset, seed);
  w.member("out_features", std::uint64_t{16});
  w.member("pattern", pattern);
  w.end_object();
  return w.str();
}

}  // namespace

ServicePlan service_plan(std::uint64_t seed, std::size_t clients,
                         std::size_t per_client) {
  ServicePlan plan;
  plan.hot_datasets = {"Cora", "Citeseer", "Proteins"};
  const std::size_t hot = plan.hot_datasets.size();
  Rng rng(seed ^ 0x5e41ce5eedull);
  std::uint64_t id = 0;

  for (const std::string& d : plan.hot_datasets) {
    plan.warmup.push_back(pattern_line(++id, d, seed, "SP1"));
  }
  plan.cold_search.push_back(search_line(++id, "Cora", seed, false));
  plan.cold_search.push_back(search_line(++id, "Cora", seed, true));

  // Request-kind pattern of one block of 20, shuffled per block.
  std::vector<RequestKind> block;
  block.insert(block.end(), 15, RequestKind::kEvaluate);
  block.insert(block.end(), 2, RequestKind::kPipelineEval);
  block.insert(block.end(), 2, RequestKind::kSearch);
  block.insert(block.end(), 1, RequestKind::kCold);
  const std::size_t blocks = (per_client + block.size() - 1) / block.size();
  const std::size_t total = blocks * block.size() * clients;

  // Distinct candidates per hot workload, drawn from the populations the
  // searchers enumerate.
  const Omega omega(default_accelerator());
  const std::size_t pes = omega.config().num_pes;
  std::vector<std::vector<DataflowDescriptor>> evals(hot);
  std::vector<std::vector<PipelineCandidate>> pipes(hot);
  const PipelineChainSpec gat = gat_chain();
  for (std::size_t h = 0; h < hot; ++h) {
    const GnnWorkload w = dataset_workload(plan.hot_datasets[h], kDatasetScale,
                                           seed);
    SearchOptions so;
    so.include_ca = true;
    const std::vector<DataflowDescriptor> pop = enumerate_search_candidates(
        so, dims_of(w, LayerSpec{16}), pes);
    // Sized for the worst case (every draw lands on this workload), so no
    // descriptor repeats within a run.
    for (const std::size_t i :
         distinct_sample(rng, pop.size(), total * 15 / 20 + 1)) {
      evals[h].push_back(pop[i]);
    }
    PipelineSearchOptions po;
    po.max_candidates = total * 2 / 20 + 1;
    po.seed_table5 = false;
    pipes[h] = evaluated_bindings(omega, w, {gat}, po);
    rng.shuffle(pipes[h]);
  }

  std::vector<std::size_t> next_eval(hot, 0);
  std::vector<std::size_t> next_pipe(hot, 0);
  std::size_t next_search = 0;
  std::uint64_t cold_seed = 1000003 * (seed + 1);
  plan.clients.resize(clients);
  for (std::size_t b = 0; b < blocks; ++b) {
    for (std::size_t c = 0; c < clients; ++c) {
      std::vector<RequestKind> kinds = block;
      rng.shuffle(kinds);
      for (const RequestKind k : kinds) {
        const auto h = static_cast<std::size_t>(rng.next_below(hot));
        const std::string& d = plan.hot_datasets[h];
        std::string line;
        switch (k) {
          case RequestKind::kEvaluate:
            line = evaluate_line(++id, d, seed,
                                 evals[h][next_eval[h]++ % evals[h].size()]);
            break;
          case RequestKind::kPipelineEval:
            line = pipeline_eval_line(
                ++id, d, seed, gat, pipes[h][next_pipe[h]++ % pipes[h].size()]);
            break;
          case RequestKind::kSearch: {
            // Round-robin over (workload, chain) keeps the mix of the six
            // searches identical across seeds.
            const std::size_t s = next_search++;
            line = search_line(++id, plan.hot_datasets[(s / 2) % hot], seed,
                               s % 2 == 1);
            break;
          }
          case RequestKind::kCold:
            line = pattern_line(++id, "Cora", ++cold_seed, "SP2");
            break;
        }
        if (plan.clients[c].size() < per_client) {
          plan.clients[c].push_back({k, std::move(line)});
        }
      }
    }
  }
  return plan;
}

namespace {

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ull;
    }
  }
  template <typename T>
  void vec(const std::vector<T>& v) {
    const std::uint64_t n = v.size();
    bytes(&n, sizeof n);
    if (!v.empty()) bytes(v.data(), v.size() * sizeof(T));
  }
};

}  // namespace

std::uint64_t fingerprint(const CSRGraph& g) {
  Fnv f;
  f.vec(g.vertex_array());
  f.vec(g.edge_array());
  f.vec(g.values());
  return f.h;
}

std::uint64_t fingerprint(const ServicePlan& plan) {
  Fnv f;
  const auto str = [&](const std::string& s) {
    f.bytes(s.data(), s.size());
    f.bytes("\n", 1);
  };
  for (const std::string& s : plan.hot_datasets) str(s);
  for (const std::string& s : plan.warmup) str(s);
  for (const std::string& s : plan.cold_search) str(s);
  for (const auto& client : plan.clients) {
    for (const ServiceRequest& r : client) {
      f.bytes(&r.kind, sizeof r.kind);
      str(r.line);
    }
    str("--");
  }
  return f.h;
}

}  // namespace perfbench
