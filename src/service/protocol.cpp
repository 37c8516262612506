#include "service/protocol.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/format.hpp"

namespace omega::service {

namespace {

/// Field accessors with protocol-grade messages. All throw
/// InvalidArgumentError so the server maps them to structured errors.
std::uint64_t u64_field(const JsonValue& v, const char* what) {
  // omega-lint: allow(uncaught-escape): narrow Error->InvalidArgumentError rewrap; anything else reaches the handle_line catch-all
  try {
    return v.as_u64();
  } catch (const Error&) {
    throw InvalidArgumentError(std::string(what) +
                               " must be an unsigned integer");
  }
}

double double_field(const JsonValue& v, const char* what) {
  if (!v.is_number()) {
    throw InvalidArgumentError(std::string(what) + " must be a number");
  }
  return v.as_double();
}

bool bool_field(const JsonValue& v, const char* what) {
  if (!v.is_bool()) {
    throw InvalidArgumentError(std::string(what) + " must be a boolean");
  }
  return v.as_bool();
}

std::string string_field(const JsonValue& v, const char* what) {
  if (!v.is_string()) {
    throw InvalidArgumentError(std::string(what) + " must be a string");
  }
  return v.as_string();
}

WorkloadRef parse_workload(const JsonValue& v) {
  WorkloadRef w;
  if (!v.is_object()) {
    throw InvalidArgumentError("workload must be an object");
  }
  bool saw_scale = false;
  bool saw_seed = false;
  for (const auto& [key, value] : v.members()) {
    if (key == "dataset") w.dataset = string_field(value, "workload.dataset");
    else if (key == "mtx") w.mtx_path = string_field(value, "workload.mtx");
    else if (key == "scale") {
      w.scale = double_field(value, "workload.scale");
      saw_scale = true;
    } else if (key == "seed") {
      w.seed = u64_field(value, "workload.seed");
      saw_seed = true;
    } else if (key == "in_features") {
      w.in_features =
          static_cast<std::size_t>(u64_field(value, "workload.in_features"));
    } else if (key == "self_loops") {
      w.add_self_loops = bool_field(value, "workload.self_loops");
    } else if (key == "normalize") {
      w.gcn_normalize = bool_field(value, "workload.normalize");
    } else {
      throw InvalidArgumentError("unknown workload key: " + key);
    }
  }
  if (w.dataset.empty() == w.mtx_path.empty()) {
    throw InvalidArgumentError(
        "workload wants exactly one of \"dataset\" or \"mtx\"");
  }
  if (!w.mtx_path.empty()) {
    if (w.in_features == 0) {
      throw InvalidArgumentError(
          "mtx workloads need \"in_features\" (the file carries no features)");
    }
    // Synthesis-only knobs would be silently ignored (and would fragment
    // the registry into duplicate entries for the same file); reject them.
    if (saw_scale || saw_seed) {
      throw InvalidArgumentError(
          "mtx workloads do not take \"scale\"/\"seed\" (the file is loaded "
          "as-is)");
    }
  }
  if (!(w.scale > 0.0)) {
    throw InvalidArgumentError("workload.scale must be positive");
  }
  return w;
}

/// Shared knobs of search_mappings and the per-layer half of search_model.
void parse_search_option(const std::string& key, const JsonValue& value,
                         SearchOptions& so, bool* known) {
  *known = true;
  if (key == "objective") {
    so.objective =
        objective_from_string(string_field(value, "options.objective"));
  } else if (key == "max_candidates") {
    so.max_candidates =
        static_cast<std::size_t>(u64_field(value, "options.max_candidates"));
  } else if (key == "top_k") {
    so.top_k = static_cast<std::size_t>(u64_field(value, "options.top_k"));
  } else if (key == "prune") {
    so.prune = bool_field(value, "options.prune");
  } else if (key == "include_ca") {
    so.include_ca = bool_field(value, "options.include_ca");
  } else if (key == "threads") {
    so.threads = static_cast<std::size_t>(u64_field(value, "options.threads"));
  } else {
    *known = false;
  }
}

void parse_mapping_options(const JsonValue& v, SearchOptions& so) {
  if (!v.is_object()) {
    throw InvalidArgumentError("options must be an object");
  }
  for (const auto& [key, value] : v.members()) {
    bool known = false;
    parse_search_option(key, value, so, &known);
    if (!known) throw InvalidArgumentError("unknown options key: " + key);
  }
}

void parse_model_options(const JsonValue& v, ModelSearchOptions& mo) {
  if (!v.is_object()) {
    throw InvalidArgumentError("options must be an object");
  }
  for (const auto& [key, value] : v.members()) {
    bool known = false;
    parse_search_option(key, value, mo.layer, &known);
    if (known) continue;
    if (key == "budget") {
      mo.layer.max_candidates =
          static_cast<std::size_t>(u64_field(value, "options.budget"));
    } else if (key == "total_budget") {
      mo.max_total_candidates =
          static_cast<std::size_t>(u64_field(value, "options.total_budget"));
    } else if (key == "allocation") {
      const std::string a = to_lower(string_field(value, "options.allocation"));
      if (a == "even") mo.budget_allocation = BudgetAllocation::kEven;
      else if (a == "mac") mo.budget_allocation = BudgetAllocation::kMacWeighted;
      else throw InvalidArgumentError("unknown allocation: " + a);
    } else if (key == "seed_table5") {
      mo.seed_table5 = bool_field(value, "options.seed_table5");
    } else if (key == "compose") {
      // Absent => kSequential (the ModelSearchOptions default): request
      // lines written before cross-layer composition existed keep their
      // historical ranking semantics. (Responses did grow the
      // compose/composed_cycles fields — the goldens were regenerated.)
      mo.compose =
          compose_from_string(to_lower(string_field(value, "options.compose")));
    } else {
      throw InvalidArgumentError("unknown options key: " + key);
    }
  }
}

/// v2 evaluate: {"phases":[{"name","engine","dataflow","tiles","out_features",
/// "density"},...],"boundaries":["Seq",...],"pe_fractions":[...],
/// "in_features":N}. Tile arrays hold one entry per canonical phase dim
/// (V,N,F for spmm; V,F,G for gemm/spgemm).
PipelineSpec parse_pipeline(const JsonValue& v) {
  if (!v.is_object()) {
    throw InvalidArgumentError("pipeline must be an object");
  }
  PipelineSpec spec;
  bool saw_phases = false;
  for (const auto& [key, value] : v.members()) {
    if (key == "phases") {
      saw_phases = true;
      if (!value.is_array()) {
        throw InvalidArgumentError("pipeline.phases must be an array");
      }
      for (const auto& pv : value.items()) {
        if (!pv.is_object()) {
          throw InvalidArgumentError("pipeline.phases[] must be objects");
        }
        std::string name;
        PhaseEngine engine = PhaseEngine::kDenseDense;
        std::string dataflow_text;
        std::vector<std::size_t> tiles;
        std::size_t out_features = 0;
        double density = 1.0;
        bool saw_engine = false;
        for (const auto& [pk, pval] : pv.members()) {
          if (pk == "name") {
            name = string_field(pval, "phases[].name");
          } else if (pk == "engine") {
            engine = phase_engine_from_string(
                string_field(pval, "phases[].engine"));
            saw_engine = true;
          } else if (pk == "dataflow") {
            dataflow_text = string_field(pval, "phases[].dataflow");
          } else if (pk == "tiles") {
            for (const auto& t : pval.items()) {
              tiles.push_back(
                  static_cast<std::size_t>(u64_field(t, "phases[].tiles[]")));
            }
          } else if (pk == "out_features") {
            out_features = static_cast<std::size_t>(
                u64_field(pval, "phases[].out_features"));
          } else if (pk == "density") {
            density = double_field(pval, "phases[].density");
          } else {
            throw InvalidArgumentError("unknown phases[] key: " + pk);
          }
        }
        if (!saw_engine || dataflow_text.empty()) {
          throw InvalidArgumentError(
              "each pipeline phase needs \"engine\" and \"dataflow\"");
        }
        spec.phases.push_back(assemble_phase_spec(
            std::move(name), engine, dataflow_text, tiles, out_features,
            density, spec.phases.size()));
      }
    } else if (key == "boundaries") {
      if (!value.is_array()) {
        throw InvalidArgumentError("pipeline.boundaries must be an array");
      }
      for (const auto& b : value.items()) {
        spec.boundaries.push_back(
            inter_phase_from_string(string_field(b, "pipeline.boundaries[]")));
      }
    } else if (key == "pe_fractions") {
      if (!value.is_array()) {
        throw InvalidArgumentError("pipeline.pe_fractions must be an array");
      }
      for (const auto& f : value.items()) {
        spec.pe_fractions.push_back(
            double_field(f, "pipeline.pe_fractions[]"));
      }
    } else if (key == "in_features") {
      spec.in_features = static_cast<std::size_t>(
          u64_field(value, "pipeline.in_features"));
    } else {
      throw InvalidArgumentError("unknown pipeline key: " + key);
    }
  }
  if (!saw_phases || spec.phases.empty()) {
    throw InvalidArgumentError("pipeline needs a non-empty \"phases\" array");
  }
  return spec;
}

/// v2 search_pipeline: {"phases":[{"name","engine","out_features",
/// "density"},...],"in_features":N}. The binding half (orders, tiles,
/// boundaries, fractions) is what the search enumerates, so the chain
/// carries none of it.
PipelineChainSpec parse_chain(const JsonValue& v) {
  if (!v.is_object()) {
    throw InvalidArgumentError("chain must be an object");
  }
  PipelineChainSpec chain;
  bool saw_phases = false;
  for (const auto& [key, value] : v.members()) {
    if (key == "phases") {
      saw_phases = true;
      if (!value.is_array()) {
        throw InvalidArgumentError("chain.phases must be an array");
      }
      for (const auto& pv : value.items()) {
        if (!pv.is_object()) {
          throw InvalidArgumentError("chain.phases[] must be objects");
        }
        PhaseChainSpec phase;
        bool saw_engine = false;
        for (const auto& [pk, pval] : pv.members()) {
          if (pk == "name") {
            phase.name = string_field(pval, "chain.phases[].name");
          } else if (pk == "engine") {
            phase.engine = phase_engine_from_string(
                string_field(pval, "chain.phases[].engine"));
            saw_engine = true;
          } else if (pk == "out_features") {
            phase.out_features = static_cast<std::size_t>(
                u64_field(pval, "chain.phases[].out_features"));
          } else if (pk == "density") {
            phase.weight_density =
                double_field(pval, "chain.phases[].density");
          } else {
            throw InvalidArgumentError("unknown chain.phases[] key: " + pk);
          }
        }
        if (!saw_engine) {
          throw InvalidArgumentError("each chain phase needs \"engine\"");
        }
        chain.phases.push_back(std::move(phase));
      }
    } else if (key == "in_features") {
      chain.in_features =
          static_cast<std::size_t>(u64_field(value, "chain.in_features"));
    } else {
      throw InvalidArgumentError("unknown chain key: " + key);
    }
  }
  if (!saw_phases || chain.phases.empty()) {
    throw InvalidArgumentError("chain needs a non-empty \"phases\" array");
  }
  return chain;
}

void parse_pipeline_search_options(const JsonValue& v,
                                   PipelineSearchOptions& po) {
  if (!v.is_object()) {
    throw InvalidArgumentError("options must be an object");
  }
  for (const auto& [key, value] : v.members()) {
    if (key == "objective") {
      po.objective =
          objective_from_string(string_field(value, "options.objective"));
    } else if (key == "max_candidates") {
      po.max_candidates =
          static_cast<std::size_t>(u64_field(value, "options.max_candidates"));
    } else if (key == "top_k") {
      po.top_k = static_cast<std::size_t>(u64_field(value, "options.top_k"));
    } else if (key == "prune") {
      po.prune = bool_field(value, "options.prune");
    } else if (key == "prune_seed") {
      po.prune_seed =
          static_cast<std::size_t>(u64_field(value, "options.prune_seed"));
    } else if (key == "threads") {
      po.threads = static_cast<std::size_t>(u64_field(value, "options.threads"));
    } else if (key == "seed_table5") {
      po.seed_table5 = bool_field(value, "options.seed_table5");
    } else {
      throw InvalidArgumentError("unknown options key: " + key);
    }
  }
}

void write_workload_summary(JsonWriter& w, const GnnWorkload& workload) {
  w.key("workload").begin_object();
  w.member("name", workload.name);
  w.member("vertices", static_cast<std::uint64_t>(workload.num_vertices()));
  w.member("edges", static_cast<std::uint64_t>(workload.num_edges()));
  w.member("in_features",
           static_cast<std::uint64_t>(workload.in_features));
  w.end_object();
}

void write_candidate(JsonWriter& w, const Candidate& c) {
  w.begin_object();
  w.member("dataflow", c.dataflow.to_string());
  w.member("cycles", c.cycles);
  w.member("on_chip_pj", c.on_chip_pj);
  w.member("score", c.score);
  w.end_object();
}

}  // namespace

std::string WorkloadRef::signature() const {
  // Canonical, collision-free key: field=value pairs in fixed order, with
  // the double rendered shortest-round-trip so 0.25 and 0.250 coincide only
  // when they are the same value.
  std::string s;
  s += dataset.empty() ? "mtx=" + mtx_path : "dataset=" + to_lower(dataset);
  s += ";scale=" + json_number(scale);
  s += ";seed=" + std::to_string(seed);
  s += ";f=" + std::to_string(in_features);
  s += ";loops=" + std::string(add_self_loops ? "1" : "0");
  s += ";norm=" + std::string(gcn_normalize ? "1" : "0");
  return s;
}

const char* to_string(RequestKind k) {
  switch (k) {
    case RequestKind::kEvaluate: return "evaluate";
    case RequestKind::kSearchMappings: return "search_mappings";
    case RequestKind::kSearchModel: return "search_model";
    case RequestKind::kStats: return "stats";
    case RequestKind::kSearchPipeline: return "search_pipeline";
    case RequestKind::kMetrics: return "metrics";
  }
  return "?";
}

Request parse_request(const std::string& line) {
  const JsonValue root = JsonValue::parse(line);
  if (!root.is_object()) {
    throw InvalidArgumentError("request must be a JSON object");
  }

  Request r;
  const JsonValue* kind = root.find("kind");
  if (kind == nullptr) {
    throw InvalidArgumentError("request needs a \"kind\"");
  }
  const std::string k = string_field(*kind, "kind");
  if (k == "evaluate") r.kind = RequestKind::kEvaluate;
  else if (k == "search_mappings") r.kind = RequestKind::kSearchMappings;
  else if (k == "search_model") r.kind = RequestKind::kSearchModel;
  else if (k == "search_pipeline") r.kind = RequestKind::kSearchPipeline;
  else if (k == "stats") r.kind = RequestKind::kStats;
  else if (k == "metrics") r.kind = RequestKind::kMetrics;
  else throw InvalidArgumentError("unknown request kind: " + k);

  // Keys irrelevant to the request kind are rejected, not ignored: a field
  // that cannot affect the response is almost certainly a client mistake.
  const auto only_for = [&](const char* key, bool allowed) {
    if (!allowed) {
      throw InvalidArgumentError(std::string("\"") + key +
                                 "\" does not apply to " +
                                 to_string(r.kind) + " requests");
    }
  };
  const bool is_evaluate = r.kind == RequestKind::kEvaluate;
  // Workload-free kinds: stats and metrics take no substrate either.
  const bool is_bare = r.kind == RequestKind::kStats ||
                       r.kind == RequestKind::kMetrics;
  const bool is_search_pipeline = r.kind == RequestKind::kSearchPipeline;

  bool saw_workload = false;
  bool saw_out_features = false;
  bool saw_pp_fraction = false;
  bool saw_chain = false;
  bool saw_scheduling = false;
  for (const auto& [key, value] : root.members()) {
    if (key == "kind") continue;
    if (key == "id") {
      r.id = u64_field(value, "id");
    } else if (key == "priority") {
      // Scheduling fields apply to every kind (the transports schedule all
      // requests, barriers included); validated against the version after
      // the loop since "version" may appear in any member position.
      r.priority = u64_field(value, "priority");
      saw_scheduling = true;
      if (r.priority > kMaxRequestPriority) {
        throw InvalidArgumentError(
            "priority must be in [0, " +
            std::to_string(kMaxRequestPriority) + "]");
      }
    } else if (key == "deadline_ms") {
      r.deadline_ms = u64_field(value, "deadline_ms");
      saw_scheduling = true;
    } else if (key == "version") {
      r.version = u64_field(value, "version");
      if (r.version < 1 || r.version > 2) {
        throw InvalidArgumentError(
            "unsupported protocol version: " + std::to_string(r.version) +
            " (this server speaks versions 1 and 2)");
      }
    } else if (key == "pipeline") {
      only_for("pipeline", is_evaluate);
      r.pipeline = parse_pipeline(value);
      r.has_pipeline = true;
    } else if (key == "chain") {
      only_for("chain", is_search_pipeline);
      r.chain = parse_chain(value);
      saw_chain = true;
    } else if (key == "workload") {
      only_for("workload", !is_bare);
      r.workload = parse_workload(value);
      saw_workload = true;
    } else if (key == "pes") {
      only_for("pes", !is_bare);
      r.pes = static_cast<std::size_t>(u64_field(value, "pes"));
      if (r.pes == 0) throw InvalidArgumentError("pes must be >= 1");
    } else if (key == "bandwidth") {
      only_for("bandwidth", !is_bare);
      r.bandwidth = static_cast<std::size_t>(u64_field(value, "bandwidth"));
    } else if (key == "out_features") {
      // search_model derives every layer's widths from the model spec.
      only_for("out_features",
               is_evaluate || r.kind == RequestKind::kSearchMappings);
      r.out_features =
          static_cast<std::size_t>(u64_field(value, "out_features"));
      saw_out_features = true;
      if (r.out_features == 0) {
        throw InvalidArgumentError("out_features must be >= 1");
      }
    } else if (key == "dataflow") {
      only_for("dataflow", is_evaluate);
      r.dataflow = string_field(value, "dataflow");
    } else if (key == "pattern") {
      only_for("pattern", is_evaluate);
      r.pattern = string_field(value, "pattern");
    } else if (key == "tiles") {
      only_for("tiles", is_evaluate);
      for (const auto& t : value.items()) {
        r.tiles.push_back(static_cast<std::size_t>(u64_field(t, "tiles[]")));
      }
      if (r.tiles.size() != 6) {
        throw InvalidArgumentError(
            "tiles wants 6 values: T_VAGG,T_N,T_FAGG,T_VCMB,T_G,T_FCMB");
      }
    } else if (key == "pp_fraction") {
      only_for("pp_fraction", is_evaluate);
      r.pp_fraction = double_field(value, "pp_fraction");
      saw_pp_fraction = true;
    } else if (key == "options") {
      if (r.kind == RequestKind::kSearchModel) {
        parse_model_options(value, r.model_options);
      } else if (r.kind == RequestKind::kSearchMappings) {
        parse_mapping_options(value, r.search);
      } else if (is_search_pipeline) {
        parse_pipeline_search_options(value, r.pipeline_search);
      } else {
        throw InvalidArgumentError(
            "options only applies to search_mappings / search_model / "
            "search_pipeline");
      }
    } else if (key == "model") {
      only_for("model", r.kind == RequestKind::kSearchModel);
      if (!value.is_object()) {
        throw InvalidArgumentError("model must be an object");
      }
      for (const auto& [mk, mv] : value.members()) {
        if (mk == "arch") {
          r.model = gnn_model_from_string(string_field(mv, "model.arch"));
        } else if (mk == "widths") {
          for (const auto& width : mv.items()) {
            r.widths.push_back(
                static_cast<std::size_t>(u64_field(width, "model.widths[]")));
          }
        } else {
          throw InvalidArgumentError("unknown model key: " + mk);
        }
      }
    } else {
      throw InvalidArgumentError("unknown request key: " + key);
    }
  }

  if (!is_bare && !saw_workload) {
    throw InvalidArgumentError(std::string(to_string(r.kind)) +
                               " needs a \"workload\"");
  }
  if (is_evaluate) {
    if (r.has_pipeline) {
      // The N-phase shape is a v2 addition; a v1 (or unversioned) client
      // sending one is a mistake, not a silent upgrade.
      if (r.version < 2) {
        throw InvalidArgumentError(
            "\"pipeline\" requires \"version\":2 (unversioned requests "
            "speak the v1 two-phase shape)");
      }
      // Every two-phase-shape field is rejected, not ignored: the phases
      // carry their own widths and PE fractions, and a silently-discarded
      // out_features is exactly the defaulted-field failure the strict
      // parser exists to surface.
      if (!r.dataflow.empty() || !r.pattern.empty() || !r.tiles.empty() ||
          saw_out_features || saw_pp_fraction) {
        throw InvalidArgumentError(
            "\"pipeline\" replaces \"dataflow\"/\"pattern\"/\"tiles\"/"
            "\"out_features\"/\"pp_fraction\" — send one shape or the "
            "other");
      }
    } else if (r.dataflow.empty() == r.pattern.empty()) {
      // Wording kept stable: unversioned clients see byte-identical
      // responses, including this error.
      throw InvalidArgumentError(
          "evaluate wants exactly one of \"dataflow\" or \"pattern\"");
    }
    // Explicit tiles only bind onto an explicit descriptor; a pattern's
    // tiles come from bind_tiles and would silently win otherwise.
    if (!r.pattern.empty() && !r.tiles.empty()) {
      throw InvalidArgumentError(
          "\"tiles\" applies to \"dataflow\" requests, not \"pattern\"");
    }
  }
  if (r.kind == RequestKind::kSearchModel && r.widths.empty()) {
    throw InvalidArgumentError(
        "search_model needs model.widths (hidden layer widths)");
  }
  if (is_search_pipeline) {
    // Like evaluate's "pipeline", the N-phase search is a v2 addition.
    if (r.version < 2) {
      throw InvalidArgumentError(
          "search_pipeline requires \"version\":2 (unversioned requests "
          "speak the v1 two-phase shape)");
    }
    if (!saw_chain) {
      throw InvalidArgumentError("search_pipeline needs a \"chain\"");
    }
  }
  if (r.kind == RequestKind::kMetrics && r.version < 2) {
    throw InvalidArgumentError(
        "metrics requires \"version\":2 (v1 observability is the stats "
        "request)");
  }
  if (saw_scheduling && r.version < 2) {
    throw InvalidArgumentError(
        "\"priority\"/\"deadline_ms\" require \"version\":2 (unversioned "
        "requests keep the v1 unscheduled shape)");
  }
  return r;
}

RequestScheduling peek_request_scheduling(const std::string& line) {
  RequestScheduling s;
  JsonValue root;
  // omega-lint: allow(uncaught-escape): parse probe; malformed lines keep the defaults and fail properly at parse_request
  try {
    root = JsonValue::parse(line);
  } catch (const Error&) {
    return s;
  }
  // A member that is absent or not an unsigned integer reads as 0.
  const auto u64 = [&root](const char* key) -> std::uint64_t {
    const JsonValue* v = root.find(key);
    if (v == nullptr || !v->is_number()) return 0;
    // omega-lint: allow(uncaught-escape): parse probe; only Error means "not an unsigned integer"
    try {
      return v->as_u64();
    } catch (const Error&) {
      return 0;
    }
  };
  s.id = u64("id");
  if (const std::uint64_t version = u64("version");
      version >= 1 && version <= 2) {
    s.version = version;
  }
  if (s.version >= 2) {
    if (const std::uint64_t priority = u64("priority");
        priority <= kMaxRequestPriority) {
      s.priority = priority;
    }
    s.deadline_ms = u64("deadline_ms");
  }
  const JsonValue* kind = root.find("kind");
  s.barrier = kind != nullptr && kind->is_string() &&
              (kind->as_string() == "stats" || kind->as_string() == "metrics");
  return s;
}

std::string error_response(std::uint64_t id, const std::string& type,
                           const std::string& message,
                           std::uint64_t version) {
  JsonWriter w;
  w.begin_object();
  w.member("id", id);
  if (version > 0) w.member("version", version);
  w.member("ok", false);
  w.key("error").begin_object();
  w.member("type", type);
  w.member("message", message);
  w.end_object();
  w.end_object();
  return w.str();
}

std::string evaluate_response(std::uint64_t id, const GnnWorkload& workload,
                              const RunResult& result,
                              std::uint64_t version) {
  JsonWriter w;
  w.begin_object();
  w.member("id", id);
  if (version > 0) w.member("version", version);
  w.member("ok", true);
  w.member("kind", "evaluate");
  write_workload_summary(w, workload);
  w.key("result").begin_object();
  w.member("dataflow", result.dataflow.to_string());
  if (!result.config_name.empty()) w.member("pattern", result.config_name);
  w.member("cycles", result.cycles);
  w.member("agg_cycles", result.agg.cycles);
  w.member("cmb_cycles", result.cmb.cycles);
  w.member("pes_agg", static_cast<std::uint64_t>(result.pes_agg));
  w.member("pes_cmb", static_cast<std::uint64_t>(result.pes_cmb));
  w.member("granularity", to_string(result.granularity));
  w.member("pipeline_elements",
           static_cast<std::uint64_t>(result.pipeline_elements));
  w.member("intermediate_buffer_elements",
           static_cast<std::uint64_t>(result.intermediate_buffer_elements));
  w.member("intermediate_spilled", result.intermediate_spilled);
  w.member("on_chip_pj", result.energy.on_chip_pj());
  w.member("dram_pj", result.energy.dram_pj);
  w.member("agg_utilization", result.agg_dynamic_utilization());
  w.member("cmb_utilization", result.cmb_dynamic_utilization());
  w.key("traffic_gb").begin_object();
  for (std::size_t c = 0; c < kNumTrafficCategories; ++c) {
    const auto& a = result.traffic.gb[c];
    w.key(to_string(static_cast<TrafficCategory>(c))).begin_object();
    w.member("reads", a.reads);
    w.member("writes", a.writes);
    w.end_object();
  }
  w.end_object();  // traffic_gb
  w.end_object();  // result
  w.end_object();
  return w.str();
}

std::string search_mappings_response(std::uint64_t id,
                                     const GnnWorkload& workload,
                                     const SearchResult& result,
                                     std::uint64_t version) {
  JsonWriter w;
  w.begin_object();
  w.member("id", id);
  if (version > 0) w.member("version", version);
  w.member("ok", true);
  w.member("kind", "search_mappings");
  write_workload_summary(w, workload);
  w.member("generated", static_cast<std::uint64_t>(result.generated));
  w.member("evaluated", static_cast<std::uint64_t>(result.evaluated));
  w.member("pruned", static_cast<std::uint64_t>(result.pruned));
  w.key("best");
  write_candidate(w, result.best());
  w.key("ranked").begin_array();
  for (const auto& c : result.ranked) write_candidate(w, c);
  w.end_array();
  w.key("pareto").begin_array();
  for (const auto& c : result.pareto) write_candidate(w, c);
  w.end_array();
  w.end_object();
  return w.str();
}

std::string search_model_response(std::uint64_t id, const GnnWorkload& workload,
                                  const GnnModelSpec& spec,
                                  const ModelSearchResult& result,
                                  std::uint64_t version) {
  JsonWriter w;
  w.begin_object();
  w.member("id", id);
  if (version > 0) w.member("version", version);
  w.member("ok", true);
  w.member("kind", "search_model");
  write_workload_summary(w, workload);
  w.key("model").begin_object();
  w.member("arch", to_string(spec.model));
  w.key("widths").begin_array();
  for (const std::size_t width : spec.feature_widths) {
    w.value(static_cast<std::uint64_t>(width));
  }
  w.end_array();
  w.end_object();
  w.key("layers").begin_array();
  for (std::size_t l = 0; l < result.layers.size(); ++l) {
    const auto& lr = result.layers[l];
    const Candidate& best = lr.search.best();
    w.begin_object();
    w.member("layer", static_cast<std::uint64_t>(l));
    w.member("in_features", static_cast<std::uint64_t>(lr.spec.in_features));
    w.member("out_features",
             static_cast<std::uint64_t>(lr.spec.out_features));
    w.member("dataflow", best.dataflow.to_string());
    w.member("cycles", best.cycles);
    w.member("on_chip_pj", best.on_chip_pj);
    w.member("evaluated", static_cast<std::uint64_t>(lr.search.evaluated));
    w.member("pruned", static_cast<std::uint64_t>(lr.search.pruned));
    w.end_object();
  }
  w.end_array();
  const ModelCandidate& best = result.best();
  w.member("total_cycles", best.total_cycles);
  // composed_cycles == total_cycles under sequential composition; under
  // "compose":"pipelined" it is the cross-layer makespan (<= the sum).
  w.member("compose", to_string(result.compose));
  w.member("composed_cycles", best.composed_cycles);
  w.member("overlapped_boundaries",
           static_cast<std::uint64_t>(best.overlapped_boundaries));
  w.member("total_on_chip_pj", best.total_on_chip_pj);
  w.member("evaluated", static_cast<std::uint64_t>(result.evaluated));
  w.member("pruned", static_cast<std::uint64_t>(result.pruned));
  w.member("generated", static_cast<std::uint64_t>(result.generated));
  w.member("budget_exhausted", result.budget_exhausted);
  w.end_object();
  return w.str();
}

std::string evaluate_pipeline_response(std::uint64_t id,
                                       const GnnWorkload& workload,
                                       const PipelineSpec& spec,
                                       const PipelineResult& result,
                                       std::uint64_t version) {
  JsonWriter w;
  w.begin_object();
  w.member("id", id);
  if (version > 0) w.member("version", version);
  w.member("ok", true);
  w.member("kind", "evaluate");
  write_workload_summary(w, workload);
  w.key("result").begin_object();
  w.member("pipeline", spec.to_string());
  w.member("cycles", result.cycles);
  w.member("num_phases", static_cast<std::uint64_t>(result.phases.size()));
  w.member("in_features", static_cast<std::uint64_t>(result.in_features));
  w.member("out_features", static_cast<std::uint64_t>(result.out_features));
  w.key("phases").begin_array();
  for (const PhaseOutcome& p : result.phases) {
    w.begin_object();
    w.member("name", p.name);
    w.member("engine", to_string(p.engine));
    w.member("cycles", p.result.cycles);
    w.member("macs", p.result.macs);
    w.member("pes", static_cast<std::uint64_t>(p.pes));
    w.member("in_features", static_cast<std::uint64_t>(p.in_features));
    w.member("out_features", static_cast<std::uint64_t>(p.out_features));
    w.member("utilization", p.dynamic_utilization());
    w.end_object();
  }
  w.end_array();
  w.key("boundaries").begin_array();
  for (const BoundaryOutcome& b : result.boundaries) {
    w.begin_object();
    w.member("inter", to_string(b.inter));
    w.member("granularity", to_string(b.granularity));
    w.member("pipeline_chunks", static_cast<std::uint64_t>(b.pipeline_chunks));
    w.member("pipeline_elements",
             static_cast<std::uint64_t>(b.pipeline_elements));
    w.member("buffer_elements", static_cast<std::uint64_t>(b.buffer_elements));
    w.member("spilled", b.spilled);
    w.member("overlapped", b.overlapped);
    w.end_object();
  }
  w.end_array();
  w.member("on_chip_pj", result.energy.on_chip_pj());
  w.member("dram_pj", result.energy.dram_pj);
  w.key("traffic_gb").begin_object();
  for (std::size_t c = 0; c < kNumTrafficCategories; ++c) {
    const auto& a = result.traffic.gb[c];
    w.key(to_string(static_cast<TrafficCategory>(c))).begin_object();
    w.member("reads", a.reads);
    w.member("writes", a.writes);
    w.end_object();
  }
  w.end_object();  // traffic_gb
  w.end_object();  // result
  w.end_object();
  return w.str();
}

std::string search_pipeline_response(std::uint64_t id,
                                     const GnnWorkload& workload,
                                     const PipelineChainSpec& chain,
                                     const PipelineSearchResult& result,
                                     std::uint64_t version) {
  const auto write_ranked = [](JsonWriter& w,
                               const RankedPipelineCandidate& c) {
    w.begin_object();
    w.member("pipeline", c.key);
    w.member("cycles", c.cycles);
    w.member("on_chip_pj", c.on_chip_pj);
    w.member("score", c.score);
    w.end_object();
  };
  JsonWriter w;
  w.begin_object();
  w.member("id", id);
  if (version > 0) w.member("version", version);
  w.member("ok", true);
  w.member("kind", "search_pipeline");
  write_workload_summary(w, workload);
  w.member("chain", chain.to_string());
  w.member("generated", static_cast<std::uint64_t>(result.generated));
  w.member("evaluated", static_cast<std::uint64_t>(result.evaluated));
  w.member("pruned", static_cast<std::uint64_t>(result.pruned));
  // Deterministic eval-core counters only (delta hits / batch shapes are
  // thread-layout dependent and stay out of goldens).
  w.key("eval").begin_object();
  w.member("term_requests", result.eval.term_requests);
  w.member("term_builds", result.eval.term_builds);
  w.end_object();
  w.key("best");
  write_ranked(w, result.best());
  w.key("ranked").begin_array();
  for (const RankedPipelineCandidate& c : result.ranked) write_ranked(w, c);
  w.end_array();
  w.key("pareto").begin_array();
  for (const RankedPipelineCandidate& c : result.pareto) write_ranked(w, c);
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace omega::service
