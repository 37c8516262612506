// omega_cli — evaluate any dataflow on any Table IV workload from the
// command line, or serve mapping requests as a long-lived daemon.
//
// Usage (`omega_cli help <command>` prints per-command flags):
//   omega_cli run  <dataset> "<dataflow>" [--tiles v,n,f,V,G,F] [--pes N]
//                  [--g N] [--frac X] [--bw N] [--scale X]
//   omega_cli run-pipeline <dataset> --phase name=...,engine=...,order=...
//                  [--phase ...] [--inter Seq,SPg,...] [--pe-fractions ...]
//       Evaluates an N-phase sparse/dense pipeline (omega/pipeline.hpp):
//       engines spmm | gemm | spgemm (sparse-weight Combination at a
//       configurable density).
//   omega_cli list                     # datasets and Table V configs
//   omega_cli pattern <dataset> <name> [--pes N] [--g N] [--scale X]
//   omega_cli search-model <dataset> [--widths 16,8] [--model gcn|sage|gin]
//                  [--pes N] [--scale X] [--budget N] [--total-budget N]
//                  [--objective runtime|energy|edp] [--no-prune]
//                  [--allocation mac|even] [--compose sequential|pipelined]
//                  [--json PATH]
//   omega_cli run-model <dataset> <pattern> [--widths 16,8]
//                  [--model gcn|sage|gin] [--pes N] [--scale X]
//                  [--compose sequential|pipelined]
//       Replays one Table V pattern over every model layer and prints the
//       composed timeline (cross-layer overlap under --compose pipelined).
//   omega_cli serve [--registry N] [--sched-threads N] [--queue N]
//                  [--socket PATH | --tcp PORT] [--max-connections N]
//       Long-lived mapping service. Default: NDJSON on stdin/stdout — one
//       JSON request per line, each response streamed as soon as it is
//       ready (v1 responses in request order). --socket/--tcp serve the
//       same protocol over sockets (one connection = one session).
//   omega_cli batch <file|->  [--registry N] [--sched-threads N]
//       One-shot: replay a request file through an in-process service.
//   omega_cli client (--socket PATH | --connect HOST:PORT) [file|-]
//       Send a request file to a running `serve --socket/--tcp` daemon.
//   omega_cli metrics (--socket PATH | --connect HOST:PORT)
//       Fetch a v2 metrics snapshot from a running daemon.
//
// Observability: run-pipeline / search-pipeline / serve / batch accept
// --trace PATH and write a Chrome trace-event JSON (load in Perfetto or
// chrome://tracing). run-pipeline renders the modeled schedule itself
// (per-phase chunk timelines, boundary overlaps); the others record
// wall-clock stage spans.
//
// Request lines (see DESIGN.md "Mapping service" for the full schema):
//   {"id":1,"kind":"evaluate","workload":{"dataset":"Cora","scale":0.25},
//    "out_features":16,"pattern":"SP2"}
//   {"id":2,"kind":"search_mappings","workload":{"mtx":"graph.mtx",
//    "in_features":64},"options":{"max_candidates":512}}
//   {"id":3,"kind":"search_model","workload":{"dataset":"Citeseer"},
//    "model":{"arch":"gcn","widths":[16,8]},"options":{"budget":400}}
//   {"id":4,"kind":"stats"}
//
// Examples:
//   omega_cli run Citeseer "PP_AC(VtFsNt, VsGsFt)" --tiles 1,1,256,16,16,1
//   omega_cli pattern Collab SP2
//   omega_cli search-model Cora --widths 16,7 --budget 2000 --json model.json
//   printf '%s\n' '{"id":1,"kind":"stats"}' | omega_cli serve
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "dse/model_search.hpp"
#include "dse/pipeline_search.hpp"
#include "graph/datasets.hpp"
#include "graph/stats.hpp"
#include "obs/schedule_trace.hpp"
#include "obs/trace.hpp"
#include "omega/omega.hpp"
#include "omega/pipeline.hpp"
#include "service/server.hpp"
#include "service/tcp.hpp"
#include "util/format.hpp"
#include "util/json.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"

namespace {

using namespace omega;

// ---- Per-subcommand usage ---------------------------------------------------

struct CommandHelp {
  const char* name;
  const char* summary;  // one line for the global listing
  const char* usage;    // full --help text
};

constexpr CommandHelp kCommands[] = {
    {"run", "evaluate one two-phase dataflow on a dataset",
     "usage: omega_cli run <dataset> \"<dataflow>\" [flags]\n"
     "  Evaluates a fully bound two-phase descriptor, e.g.\n"
     "  \"PP_AC(VtFsNt, VsGsFt)\".\n"
     "flags:\n"
     "  --tiles v,n,f,V,G,F  explicit tile sizes "
     "(T_VAGG,T_N,T_FAGG,T_VCMB,T_G,T_FCMB)\n"
     "  --pes N              PE count (default 512)\n"
     "  --g N                output feature width G (default 16)\n"
     "  --frac X             PP aggregation PE fraction in (0,1)\n"
     "  --bw N               distribution/reduction bandwidth (default "
     "unbounded)\n"
     "  --scale X            workload scale factor (default 1.0)\n"},
    {"run-pipeline", "evaluate an N-phase sparse/dense pipeline",
     "usage: omega_cli run-pipeline <dataset> --phase <spec> [--phase ...] "
     "[flags]\n"
     "  Evaluates an arbitrary chain of phases through the pipeline core\n"
     "  (omega/pipeline.hpp). Each --phase is a comma-separated key=value\n"
     "  list:\n"
     "    name=<label>       free-form phase label (default phaseN)\n"
     "    engine=<kind>      spmm | gemm | spgemm (sparse-weight)\n"
     "    order=<notation>   intra-phase order, e.g. VtFsNt / VsFtGs\n"
     "    tiles=AxBxC        tile sizes per canonical dim (V,N,F for spmm;\n"
     "                       V,F,G otherwise)\n"
     "    out=N              output feature width (gemm/spgemm)\n"
     "    density=D          weight density in (0,1] (spgemm only)\n"
     "flags:\n"
     "  --inter A,B,...      one boundary per adjacent pair: Seq | SPg | SP "
     "| PP\n"
     "  --pe-fractions ...   relative PE weights, one per phase (PP pairs "
     "split\n"
     "                       the array proportionally)\n"
     "  --pes N --bw N --scale X --in-features N\n"
     "  --trace PATH         write the modeled schedule as Chrome\n"
     "                       trace-event JSON (phase tracks, chunk slices,\n"
     "                       boundary overlaps; 1 cycle = 1 trace us)\n"
     "example:\n"
     "  omega_cli run-pipeline Cora --scale 0.25 \\\n"
     "    --phase name=score,engine=gemm,order=VsFtGs,tiles=8x1x8,out=16 \\\n"
     "    --phase name=agg,engine=spmm,order=NtFsVt,tiles=1x4x16 \\\n"
     "    --phase name=xform,engine=spgemm,order=GsVtFt,tiles=1x1x8,out=8,"
     "density=0.5 \\\n"
     "    --inter SPg,Seq\n"},
    {"search-pipeline", "mapping search over an N-phase pipeline chain",
     "usage: omega_cli search-pipeline <dataset> --phase <spec> [--phase ...] "
     "[flags]\n"
     "  Searches the mapping space of an N-phase chain "
     "(dse/pipeline_search.hpp):\n"
     "  the chain fixes engines/widths/densities, the searcher enumerates "
     "loop\n"
     "  orders, tilings, boundary strategies, and PP PE fractions. Each\n"
     "  --phase is a comma-separated key=value list:\n"
     "    name=<label>       free-form phase label (default phaseN)\n"
     "    engine=<kind>      spmm | gemm | spgemm (sparse-weight)\n"
     "    out=N              output feature width (gemm/spgemm)\n"
     "    density=D          weight density in (0,1] (spgemm only)\n"
     "flags:\n"
     "  --objective runtime|energy|edp\n"
     "  --budget N           candidate cap (deterministic subsample; 0 = "
     "all)\n"
     "  --top-k N            ranked entries to keep (default 16)\n"
     "  --prune              lossless lower-bound pruning (any objective)\n"
     "  --no-seeds           drop the Table V seed compositions\n"
     "  --threads N --pes N --bw N --scale X --in-features N --json PATH\n"
     "  --trace PATH         write search-stage spans (enumerate / prune /\n"
     "                       evaluate / rank) as Chrome trace-event JSON\n"
     "example:\n"
     "  omega_cli search-pipeline Cora --scale 0.25 \\\n"
     "    --phase name=score,engine=gemm,out=16 --phase engine=spmm \\\n"
     "    --phase name=xform,engine=spgemm,out=8,density=0.5 \\\n"
     "    --objective edp --budget 512 --prune\n"},
    {"pattern", "evaluate a named Table V configuration",
     "usage: omega_cli pattern <dataset> <name> [flags]\n"
     "  Binds the named Table V pattern's tile sizes to the workload and\n"
     "  evaluates it. See `omega_cli list` for the names.\n"
     "flags:\n"
     "  --pes N --g N --frac X --bw N --scale X\n"},
    {"list", "list datasets and Table V configurations",
     "usage: omega_cli list\n"
     "  Prints the Table IV datasets and Table V dataflow configurations.\n"},
    {"search-model", "per-layer mapping search over a GNN model",
     "usage: omega_cli search-model <dataset> [flags]\n"
     "flags:\n"
     "  --widths 16,8            hidden layer widths (appended to F)\n"
     "  --model gcn|sage|gin     model family (default gcn)\n"
     "  --objective runtime|energy|edp\n"
     "  --budget N               per-layer candidate budget\n"
     "  --total-budget N         model-wide candidate budget\n"
     "  --allocation mac|even    budget split across layers\n"
     "  --compose sequential|pipelined\n"
     "  --no-prune               disable lower-bound pruning\n"
     "  --pes N --scale X --json PATH\n"},
    {"run-model", "replay one pattern over every model layer",
     "usage: omega_cli run-model <dataset> <pattern> [flags]\n"
     "flags:\n"
     "  --widths 16,8 --model gcn|sage|gin\n"
     "  --compose sequential|pipelined --pes N --scale X\n"},
    {"serve", "long-lived NDJSON mapping service",
     "usage: omega_cli serve [flags]\n"
     "  Default: NDJSON on stdin/stdout — one JSON request per line (blank\n"
     "  lines are ignored), each response streamed as soon as it is ready.\n"
     "  --socket/--tcp serve the same session per connection instead.\n"
     "  Every transport dispatches through one bounded priority/deadline\n"
     "  scheduler: responses stream in per-session priority-band order\n"
     "  (v1 requests: request order), and overload sheds as structured\n"
     "  {\"error\":{\"type\":\"overloaded\"}} responses. See DESIGN.md\n"
     "  \"Serving core\".\n"
     "flags:\n"
     "  --registry N         workload registry capacity\n"
     "  --socket PATH        serve a Unix domain socket (streaming)\n"
     "  --tcp PORT           serve TCP on --bind:PORT (streaming; port 0\n"
     "                       picks a free port, printed on stderr)\n"
     "  --bind ADDR          TCP bind address (default 127.0.0.1)\n"
     "  --backlog N          listen() backlog (default 64)\n"
     "  --queue N            scheduler admission queue depth, also each\n"
     "                       session's cap on unanswered requests\n"
     "                       (default 256)\n"
     "  --sched-threads N    scheduler dispatch threads (default hardware)\n"
     "  --min-deadline MS    shed requests whose deadline_ms is below MS\n"
     "                       at admission (0 = disabled)\n"
     "  --max-connections N  stop after N connections (0 = forever)\n"
     "  --trace PATH         write per-request spans (parse / registry /\n"
     "                       evaluate / serialize) as Chrome trace-event\n"
     "                       JSON when the service exits\n"},
    {"batch", "replay a request file through an in-process service",
     "usage: omega_cli batch <file|-> [--registry N] [--trace PATH]\n"
     "                       [--sched-threads N] [--queue N] "
     "[--min-deadline MS]\n"
     "  Runs the file as one stdio session (same output as\n"
     "  `omega_cli serve < file`); the scheduler flags are serve's.\n"},
    {"client", "send requests to a running serve daemon",
     "usage: omega_cli client (--socket PATH | --connect HOST:PORT) "
     "[file|-]\n"
     "flags:\n"
     "  --priority N     inject \"priority\":N into each request line\n"
     "                   (0-7; requires v2 request lines)\n"
     "  --deadline-ms N  inject \"deadline_ms\":N likewise\n"
     "  Responses print as the daemon streams them: per-connection\n"
     "  request order within a priority band.\n"},
    {"metrics", "fetch a metrics snapshot from a serve daemon",
     "usage: omega_cli metrics (--socket PATH | --connect HOST:PORT)\n"
     "  Sends {\"id\":1,\"version\":2,\"kind\":\"metrics\"} and prints the\n"
     "  response: service counters, latency histograms (p50/p90/p99),\n"
     "  scheduler queue/shed counters, registry hit/miss/eviction\n"
     "  counters, and eval-core counters. See DESIGN.md \"Observability\"\n"
     "  for the metric namespace.\n"},
};

const CommandHelp* find_command(const std::string& name) {
  for (const CommandHelp& c : kCommands) {
    if (name == c.name) return &c;
  }
  return nullptr;
}

void print_global_usage(std::ostream& os) {
  os << "usage: omega_cli <command> [args]\n\ncommands:\n";
  std::size_t width = 0;
  for (const CommandHelp& c : kCommands) {
    width = std::max(width, std::string(c.name).size());
  }
  for (const CommandHelp& c : kCommands) {
    os << "  " << pad_right(c.name, width + 2) << c.summary << "\n";
  }
  os << "\n`omega_cli help <command>` or `omega_cli <command> --help` "
        "prints the command's flags.\n";
}

/// True when any argument asks for help; commands call this before parsing
/// so `omega_cli run --help` never trips the strict flag rejection.
bool wants_help(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--help" || a == "-h") return true;
  }
  return false;
}

struct CliOptions {
  std::size_t pes = 512;
  std::size_t g = 16;
  double frac = 0.5;
  std::size_t bw = 0;  // 0 = unbounded
  double scale = 1.0;
  std::vector<std::size_t> tiles;
};

CliOptions parse_flags(int argc, char** argv, int first) {
  CliOptions o;
  for (int i = first; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw InvalidArgumentError("missing value for " + a);
      return argv[++i];
    };
    if (a == "--pes") o.pes = parse_count(next(), a);
    else if (a == "--g") o.g = parse_count(next(), a);
    else if (a == "--frac") o.frac = parse_number(next(), a);
    else if (a == "--bw") o.bw = parse_count(next(), a);
    else if (a == "--scale") o.scale = parse_number(next(), a);
    else if (a == "--tiles") {
      for (const auto& part : split(next(), ',')) {
        o.tiles.push_back(parse_count(part, a));
      }
      if (o.tiles.size() != 6) {
        throw InvalidArgumentError(
            "--tiles wants 6 values: T_VAGG,T_N,T_FAGG,T_VCMB,T_G,T_FCMB");
      }
    } else {
      throw InvalidArgumentError("unknown flag: " + a);
    }
  }
  return o;
}

AcceleratorConfig hw_of(const CliOptions& o) {
  AcceleratorConfig hw;
  hw.num_pes = o.pes;
  if (o.bw > 0) {
    hw.distribution_bandwidth = o.bw;
    hw.reduction_bandwidth = o.bw;
  }
  return hw;
}

GnnWorkload load_workload(const std::string& name, const CliOptions& o) {
  SynthesisOptions so;
  so.scale = o.scale;
  return synthesize_workload(dataset_by_name(name), so);
}

void print_result(const RunResult& r, const GnnWorkload& w) {
  std::cout << "workload:    " << w.name << " (V="
            << with_commas(w.num_vertices()) << ", E="
            << with_commas(w.num_edges()) << ", F=" << w.in_features << ")\n"
            << "dataflow:    " << r.dataflow.to_string() << "\n"
            << "granularity: " << to_string(r.granularity) << ", Pel="
            << with_commas(r.pipeline_elements) << ", buffering="
            << with_commas(r.intermediate_buffer_elements) << " elems"
            << (r.intermediate_spilled ? " (Seq spilled to DRAM)" : "") << "\n"
            << "cycles:      " << with_commas(r.cycles) << "  (agg "
            << with_commas(r.agg.cycles) << " on " << r.pes_agg << " PEs, cmb "
            << with_commas(r.cmb.cycles) << " on " << r.pes_cmb << " PEs)\n"
            << "utilization: agg " << fixed(100 * r.agg_dynamic_utilization(), 1)
            << "% / cmb " << fixed(100 * r.cmb_dynamic_utilization(), 1)
            << "%\n"
            << "energy:      " << fixed(r.energy.on_chip_pj() / 1e6, 3)
            << " uJ on-chip + " << fixed(r.energy.dram_pj / 1e6, 3)
            << " uJ DRAM\n";
  TextTable t({"matrix", "GB reads", "GB writes"});
  for (std::size_t c = 0; c < kNumTrafficCategories; ++c) {
    const auto& a = r.traffic.gb[c];
    t.add_row({to_string(static_cast<TrafficCategory>(c)),
               with_commas(a.reads), with_commas(a.writes)});
  }
  std::cout << t;
}

int cmd_list() {
  std::cout << "datasets (Table IV):\n";
  for (const auto& s : table4_datasets()) {
    std::cout << "  " << pad_right(s.name, 12) << to_string(s.category)
              << "  V~" << fixed(s.avg_nodes, 0) << " E~"
              << fixed(s.avg_edges, 0) << " F=" << s.num_features << "\n";
  }
  std::cout << "\ndataflow configs (Table V):\n";
  for (const auto& p : table5_patterns()) {
    std::cout << "  " << pad_right(p.name, 9) << pad_right(p.to_string(), 26)
              << p.property << "\n";
  }
  return 0;
}

int cmd_run(int argc, char** argv) {
  if (argc < 4) throw InvalidArgumentError("run needs <dataset> <dataflow>");
  const CliOptions o = parse_flags(argc, argv, 4);
  const GnnWorkload w = load_workload(argv[2], o);
  DataflowDescriptor df = DataflowDescriptor::parse(argv[3]);
  df.pp_agg_pe_fraction = o.frac;
  if (!o.tiles.empty()) {
    df.agg.tiles = {.v = o.tiles[0], .n = o.tiles[1], .f = o.tiles[2], .g = 1};
    df.cmb.tiles = {.v = o.tiles[3], .n = 1, .f = o.tiles[5], .g = o.tiles[4]};
  }
  const Omega omega(hw_of(o));
  print_result(omega.run(w, LayerSpec{o.g}, df), w);
  return 0;
}

// ---- run-pipeline -----------------------------------------------------------

PhaseSpec parse_phase_arg(const std::string& text, std::size_t index) {
  std::string name;
  PhaseEngine engine = PhaseEngine::kDenseDense;
  std::string order_text;
  std::vector<std::size_t> tiles;
  std::size_t out_features = 0;
  double density = 1.0;
  bool saw_engine = false;
  for (const std::string& part : split(text, ',')) {
    const auto eq = part.find('=');
    if (eq == std::string::npos) {
      throw InvalidArgumentError("--phase wants key=value pairs; got \"" +
                                 part + "\"");
    }
    const std::string key = part.substr(0, eq);
    const std::string val = part.substr(eq + 1);
    if (key == "name") {
      name = val;
    } else if (key == "engine") {
      engine = phase_engine_from_string(val);
      saw_engine = true;
    } else if (key == "order") {
      order_text = val;
    } else if (key == "tiles") {
      for (const std::string& t : split(val, 'x')) {
        tiles.push_back(parse_count(t, "--phase tiles"));
      }
    } else if (key == "out") {
      out_features = parse_count(val, "--phase out");
    } else if (key == "density") {
      density = parse_number(val, "--phase density");
    } else {
      throw InvalidArgumentError("unknown --phase key: " + key);
    }
  }
  if (!saw_engine || order_text.empty()) {
    throw InvalidArgumentError("each --phase needs engine= and order=");
  }
  // Shared assembly (omega/pipeline.hpp): tile-dim mapping and name
  // defaulting stay identical between the CLI and the service v2 parser.
  return assemble_phase_spec(std::move(name), engine, order_text, tiles,
                             out_features, density, index);
}

int cmd_run_pipeline(int argc, char** argv) {
  if (argc < 3) {
    throw InvalidArgumentError("run-pipeline needs <dataset> and --phase");
  }
  PipelineSpec spec;
  std::size_t pes = 512;
  std::size_t bw = 0;
  double scale = 1.0;
  std::string trace_path;
  std::vector<InterPhase> boundaries;
  for (int i = 3; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw InvalidArgumentError("missing value for " + a);
      return argv[++i];
    };
    if (a == "--phase") {
      spec.phases.push_back(parse_phase_arg(next(), spec.phases.size()));
    } else if (a == "--inter") {
      for (const std::string& b : split(next(), ',')) {
        boundaries.push_back(inter_phase_from_string(b));
      }
    } else if (a == "--pe-fractions") {
      for (const std::string& f : split(next(), ',')) {
        spec.pe_fractions.push_back(parse_number(f, a));
      }
    } else if (a == "--in-features") {
      spec.in_features = parse_count(next(), a);
    } else if (a == "--pes") {
      pes = parse_count(next(), a);
    } else if (a == "--bw") {
      bw = parse_count(next(), a);
    } else if (a == "--scale") {
      scale = parse_number(next(), a);
    } else if (a == "--trace") {
      trace_path = next();
    } else {
      throw InvalidArgumentError("unknown flag: " + a);
    }
  }
  if (spec.phases.empty()) {
    throw InvalidArgumentError("run-pipeline needs at least one --phase");
  }
  // Boundaries default to Seq between every adjacent pair.
  spec.boundaries = boundaries.empty()
                        ? std::vector<InterPhase>(spec.phases.size() - 1,
                                                  InterPhase::kSequential)
                        : std::move(boundaries);

  SynthesisOptions so;
  so.scale = scale;
  const GnnWorkload w = synthesize_workload(dataset_by_name(argv[2]), so);
  AcceleratorConfig hw;
  hw.num_pes = pes;
  if (bw > 0) {
    hw.distribution_bandwidth = bw;
    hw.reduction_bandwidth = bw;
  }
  const Omega omega(hw);
  const PipelineResult r = omega.run_pipeline(w, spec);

  std::cout << "workload:  " << w.name << " (V=" << with_commas(w.num_vertices())
            << ", E=" << with_commas(w.num_edges()) << ", F=" << w.in_features
            << ")\n"
            << "pipeline:  " << spec.to_string() << "\n"
            << "cycles:    " << with_commas(r.cycles) << "\n"
            << "energy:    " << fixed(r.energy.on_chip_pj() / 1e6, 3)
            << " uJ on-chip + " << fixed(r.energy.dram_pj / 1e6, 3)
            << " uJ DRAM\n\n";
  TextTable phases({"phase", "engine", "dims", "PEs", "cycles", "MACs",
                    "util"});
  for (const PhaseOutcome& p : r.phases) {
    phases.add_row({p.name, to_string(p.engine),
                    std::to_string(p.in_features) + "->" +
                        std::to_string(p.out_features),
                    std::to_string(p.pes), with_commas(p.result.cycles),
                    with_commas(p.result.macs),
                    fixed(100 * p.dynamic_utilization(), 1) + "%"});
  }
  std::cout << phases;
  if (!r.boundaries.empty()) {
    TextTable bt({"boundary", "inter", "granularity", "chunks", "Pel",
                  "buffer", "notes"});
    for (std::size_t b = 0; b < r.boundaries.size(); ++b) {
      const BoundaryOutcome& bo = r.boundaries[b];
      std::string notes;
      if (bo.overlapped) notes += "overlapped";
      if (bo.spilled) notes += std::string(notes.empty() ? "" : ", ") +
                               "spilled to DRAM";
      if (notes.empty()) notes = "-";
      bt.add_row({r.phases[b].name + "->" + r.phases[b + 1].name,
                  to_string(bo.inter), to_string(bo.granularity),
                  std::to_string(bo.pipeline_chunks),
                  with_commas(bo.pipeline_elements),
                  with_commas(bo.buffer_elements), notes});
    }
    std::cout << "\n" << bt;
  }
  if (!trace_path.empty()) {
    obs::TraceCollector tc;
    obs::export_pipeline_trace(r, tc);
    tc.write_file(trace_path);
    std::cout << "\n(trace: " << trace_path << ", " << tc.size()
              << " events — load in Perfetto or chrome://tracing)\n";
  }
  return 0;
}

// ---- search-pipeline --------------------------------------------------------

/// Delta-hit and batch-shape numbers vary with the machine's thread layout —
/// informational here, never part of golden output.
void print_eval_stats(const EvalStats& e) {
  std::cout << "eval core: " << with_commas(e.term_requests)
            << " term requests (" << with_commas(e.term_builds) << " built, "
            << with_commas(e.delta_hits) << " delta hits), "
            << with_commas(e.batches) << " batches (max "
            << with_commas(e.max_batch) << ")\n";
}

PhaseChainSpec parse_chain_phase_arg(const std::string& text) {
  PhaseChainSpec p;
  bool saw_engine = false;
  for (const std::string& part : split(text, ',')) {
    const auto eq = part.find('=');
    if (eq == std::string::npos) {
      throw InvalidArgumentError("--phase wants key=value pairs; got \"" +
                                 part + "\"");
    }
    const std::string key = part.substr(0, eq);
    const std::string val = part.substr(eq + 1);
    if (key == "name") {
      p.name = val;
    } else if (key == "engine") {
      p.engine = phase_engine_from_string(val);
      saw_engine = true;
    } else if (key == "out") {
      p.out_features = parse_count(val, "--phase out");
    } else if (key == "density") {
      p.weight_density = parse_number(val, "--phase density");
    } else {
      throw InvalidArgumentError(
          "unknown --phase key for search-pipeline: " + key +
          " (the chain fixes engine/out/density; the searcher supplies "
          "orders and tiles)");
    }
  }
  if (!saw_engine) {
    throw InvalidArgumentError("each --phase needs engine=");
  }
  return p;
}

int cmd_search_pipeline(int argc, char** argv) {
  if (argc < 3) {
    throw InvalidArgumentError("search-pipeline needs <dataset> and --phase");
  }
  PipelineChainSpec chain;
  PipelineSearchOptions pso;
  std::size_t pes = 512;
  std::size_t bw = 0;
  double scale = 1.0;
  std::string json_path;
  std::string trace_path;
  for (int i = 3; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw InvalidArgumentError("missing value for " + a);
      return argv[++i];
    };
    if (a == "--phase") {
      chain.phases.push_back(parse_chain_phase_arg(next()));
    } else if (a == "--objective") {
      pso.objective = objective_from_string(next());
    } else if (a == "--budget") {
      pso.max_candidates = parse_count(next(), a);
    } else if (a == "--top-k") {
      pso.top_k = parse_count(next(), a);
    } else if (a == "--prune") {
      pso.prune = true;
    } else if (a == "--no-seeds") {
      pso.seed_table5 = false;
    } else if (a == "--threads") {
      pso.threads = parse_count(next(), a);
    } else if (a == "--in-features") {
      chain.in_features = parse_count(next(), a);
    } else if (a == "--pes") {
      pes = parse_count(next(), a);
    } else if (a == "--bw") {
      bw = parse_count(next(), a);
    } else if (a == "--scale") {
      scale = parse_number(next(), a);
    } else if (a == "--json") {
      json_path = next();
    } else if (a == "--trace") {
      trace_path = next();
    } else {
      throw InvalidArgumentError("unknown flag: " + a);
    }
  }
  if (chain.phases.empty()) {
    throw InvalidArgumentError("search-pipeline needs at least one --phase");
  }

  SynthesisOptions so;
  so.scale = scale;
  const GnnWorkload w = synthesize_workload(dataset_by_name(argv[2]), so);
  AcceleratorConfig hw;
  hw.num_pes = pes;
  if (bw > 0) {
    hw.distribution_bandwidth = bw;
    hw.reduction_bandwidth = bw;
  }
  const Omega omega(hw);

  std::cout << "pipeline mapping search on " << w.name << " (V="
            << with_commas(w.num_vertices()) << ", E="
            << with_commas(w.num_edges()) << ", F=" << w.in_features << ")\n"
            << "chain:     " << chain.to_string() << "\n"
            << "objective: " << to_string(pso.objective)
            << (pso.prune ? ", pruned" : "")
            << (pso.seed_table5 ? ", Table V seeded" : "") << "\n\n";

  obs::TraceCollector tc;
  if (!trace_path.empty()) pso.trace = &tc;

  const PipelineSearchResult r = search_pipeline_mappings(omega, w, chain, pso);
  if (!trace_path.empty()) {
    tc.name_process(0, "omega.search");
    tc.write_file(trace_path);
    std::cout << "(trace: " << trace_path << ", " << tc.size()
              << " events)\n";
  }
  if (r.ranked.empty()) {
    std::cout << "no feasible candidate (" << r.generated << " generated)\n";
    return 1;
  }

  TextTable t({"#", "pipeline", "cycles", "energy (uJ)", "score"});
  for (std::size_t i = 0; i < r.ranked.size(); ++i) {
    const RankedPipelineCandidate& c = r.ranked[i];
    t.add_row({std::to_string(i), c.key, with_commas(c.cycles),
               fixed(c.on_chip_pj / 1e6, 3), fixed(c.score, 6)});
  }
  std::cout << t;
  std::cout << "\nbest: " << r.best().key << " at "
            << with_commas(r.best().cycles) << " cycles, "
            << fixed(r.best().on_chip_pj / 1e6, 3) << " uJ on-chip ("
            << r.evaluated << " evaluated, " << r.pruned << " pruned of "
            << r.generated << " generated; Pareto "
            << r.pareto.size() << ")\n";
  print_eval_stats(r.eval);

  if (!json_path.empty()) {
    JsonWriter jw(2);
    jw.begin_object();
    jw.member("workload", w.name);
    jw.member("chain", chain.to_string());
    jw.member("objective", to_string(pso.objective));
    jw.member("generated", static_cast<std::uint64_t>(r.generated));
    jw.member("evaluated", static_cast<std::uint64_t>(r.evaluated));
    jw.member("pruned", static_cast<std::uint64_t>(r.pruned));
    jw.key("ranked").begin_array();
    for (const RankedPipelineCandidate& c : r.ranked) {
      jw.begin_object();
      jw.member("pipeline", c.key);
      jw.member("cycles", c.cycles);
      jw.member("on_chip_pj", c.on_chip_pj);
      jw.member("score", c.score);
      jw.end_object();
    }
    jw.end_array();
    jw.key("pareto").begin_array();
    for (const RankedPipelineCandidate& c : r.pareto) {
      jw.begin_object();
      jw.member("pipeline", c.key);
      jw.member("cycles", c.cycles);
      jw.member("on_chip_pj", c.on_chip_pj);
      jw.end_object();
    }
    jw.end_array();
    jw.key("eval").begin_object();
    jw.member("term_requests", r.eval.term_requests);
    jw.member("term_builds", r.eval.term_builds);
    jw.member("delta_hits", r.eval.delta_hits);
    jw.member("batches", r.eval.batches);
    jw.member("max_batch", r.eval.max_batch);
    jw.end_object();
    jw.end_object();
    std::ofstream json(json_path);
    json << jw.str() << "\n";
    std::cout << "(json: " << json_path << ")\n";
  }
  return 0;
}

int cmd_search_model(int argc, char** argv) {
  if (argc < 3) throw InvalidArgumentError("search-model needs <dataset>");
  std::vector<std::size_t> widths{16, 8};
  GnnModel model = GnnModel::kGCN;
  ModelSearchOptions mso;
  mso.layer.max_candidates = 2000;
  std::size_t pes = 512;
  double scale = 1.0;
  std::string json_path;
  for (int i = 3; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw InvalidArgumentError("missing value for " + a);
      return argv[++i];
    };
    if (a == "--widths") {
      widths.clear();
      for (const auto& part : split(next(), ',')) {
        widths.push_back(parse_count(part, a));
      }
      if (widths.empty()) {
        throw InvalidArgumentError("--widths wants e.g. 16,8");
      }
    } else if (a == "--model") {
      model = gnn_model_from_string(next());
    } else if (a == "--objective") {
      mso.layer.objective = objective_from_string(next());
    } else if (a == "--pes") {
      pes = parse_count(next(), a);
    } else if (a == "--scale") {
      scale = parse_number(next(), a);
    } else if (a == "--budget") {
      mso.layer.max_candidates = parse_count(next(), a);
    } else if (a == "--total-budget") {
      mso.max_total_candidates = parse_count(next(), a);
    } else if (a == "--allocation") {
      const std::string al = to_lower(next());
      if (al == "mac") mso.budget_allocation = BudgetAllocation::kMacWeighted;
      else if (al == "even") mso.budget_allocation = BudgetAllocation::kEven;
      else throw InvalidArgumentError("unknown allocation: " + al);
    } else if (a == "--no-prune") {
      mso.layer.prune = false;
    } else if (a == "--compose") {
      mso.compose = compose_from_string(to_lower(next()));
    } else if (a == "--json") {
      json_path = next();
    } else {
      throw InvalidArgumentError("unknown flag: " + a);
    }
  }

  SynthesisOptions so;
  so.scale = scale;
  const GnnWorkload w = synthesize_workload(dataset_by_name(argv[2]), so);
  GnnModelSpec spec;
  spec.model = model;
  spec.feature_widths.push_back(w.in_features);
  spec.feature_widths.insert(spec.feature_widths.end(), widths.begin(),
                             widths.end());
  AcceleratorConfig hw;
  hw.num_pes = pes;
  const Omega omega(hw);

  std::cout << "model-level mapping search: " << to_string(model) << " on "
            << w.name << " (V=" << with_commas(w.num_vertices())
            << ", E=" << with_commas(w.num_edges()) << "), layers:";
  for (std::size_t i = 0; i + 1 < spec.feature_widths.size(); ++i) {
    std::cout << " " << spec.feature_widths[i] << "->"
              << spec.feature_widths[i + 1];
  }
  std::cout << ", objective " << to_string(mso.layer.objective)
            << ", compose " << to_string(mso.compose)
            << (mso.layer.prune ? ", pruned" : "") << "\n\n";

  const ModelSearchResult r = search_model_mappings(omega, w, spec, mso);

  TextTable t({"layer", "dims", "best dataflow", "cycles", "energy (uJ)",
               "evaluated", "pruned"});
  for (std::size_t l = 0; l < r.layers.size(); ++l) {
    const auto& lr = r.layers[l];
    const Candidate& best = lr.search.best();
    t.add_row({std::to_string(l),
               std::to_string(lr.spec.in_features) + "->" +
                   std::to_string(lr.spec.out_features),
               best.dataflow.to_string(), with_commas(best.cycles),
               fixed(best.on_chip_pj / 1e6, 3),
               std::to_string(lr.search.evaluated),
               std::to_string(lr.search.pruned)});
  }
  std::cout << t;

  const ModelCandidate& best = r.best();
  std::cout << "\nmodel total: " << with_commas(best.total_cycles)
            << " cycles, " << fixed(best.total_on_chip_pj / 1e6, 3)
            << " uJ on-chip (" << r.evaluated << " evaluated, " << r.pruned
            << " pruned of " << r.generated << " generated"
            << (r.budget_exhausted ? "; budget exhausted" : "") << ")\n";
  print_eval_stats(r.eval);
  if (mso.compose == ModelCompose::kPipelined) {
    const double pipe_speedup =
        best.composed_cycles > 0
            ? static_cast<double>(best.total_cycles) /
                  static_cast<double>(best.composed_cycles)
            : 0.0;
    std::cout << "pipelined composition: " << with_commas(best.composed_cycles)
              << " cycles (" << best.overlapped_boundaries
              << " overlapped boundaries, " << fixed(pipe_speedup, 3)
              << "x vs sequential sum)\n";
  }

  const auto fixed_run = best_fixed_pattern(omega, w, spec, mso.compose);
  double speedup = 0.0;
  if (fixed_run) {
    speedup = best.composed_cycles > 0
                  ? static_cast<double>(fixed_run->result.total_cycles) /
                        static_cast<double>(best.composed_cycles)
                  : 0.0;
    std::cout << "best fixed pattern: " << fixed_run->name << " at "
              << with_commas(fixed_run->result.total_cycles)
              << " cycles -> heterogeneous speedup " << fixed(speedup, 3)
              << "x\n";
  }

  if (!json_path.empty()) {
    // Shared writer (util/json.hpp): names and dataflow notations are
    // escaped, unlike the hand-rolled emitter this replaced.
    JsonWriter jw(2);
    jw.begin_object();
    jw.member("workload", w.name);
    jw.member("model", to_string(model));
    jw.key("widths").begin_array();
    for (const std::size_t width : spec.feature_widths) {
      jw.value(static_cast<std::uint64_t>(width));
    }
    jw.end_array();
    jw.key("layers").begin_array();
    for (std::size_t l = 0; l < r.layers.size(); ++l) {
      const Candidate& c = r.layers[l].search.best();
      jw.begin_object();
      jw.member("layer", static_cast<std::uint64_t>(l));
      jw.member("dataflow", c.dataflow.to_string());
      jw.member("cycles", c.cycles);
      jw.member("on_chip_pj", c.on_chip_pj);
      jw.member("evaluated",
                static_cast<std::uint64_t>(r.layers[l].search.evaluated));
      jw.member("pruned",
                static_cast<std::uint64_t>(r.layers[l].search.pruned));
      jw.end_object();
    }
    jw.end_array();
    jw.member("total_cycles", best.total_cycles);
    jw.member("compose", to_string(mso.compose));
    jw.member("composed_cycles", best.composed_cycles);
    jw.member("overlapped_boundaries",
              static_cast<std::uint64_t>(best.overlapped_boundaries));
    jw.member("total_on_chip_pj", best.total_on_chip_pj);
    jw.member("evaluated", static_cast<std::uint64_t>(r.evaluated));
    jw.member("pruned", static_cast<std::uint64_t>(r.pruned));
    jw.member("generated", static_cast<std::uint64_t>(r.generated));
    jw.key("eval").begin_object();
    jw.member("term_requests", r.eval.term_requests);
    jw.member("term_builds", r.eval.term_builds);
    jw.member("delta_hits", r.eval.delta_hits);
    jw.member("batches", r.eval.batches);
    jw.member("max_batch", r.eval.max_batch);
    jw.end_object();
    if (fixed_run) {
      jw.key("best_fixed").begin_object();
      jw.member("name", fixed_run->name);
      jw.member("cycles", fixed_run->result.total_cycles);
      jw.end_object();
      jw.member("speedup_vs_fixed", speedup);
    }
    jw.end_object();
    std::ofstream json(json_path);
    json << jw.str() << "\n";
    std::cout << "(json: " << json_path << ")\n";
  }
  return 0;
}

int cmd_run_model(int argc, char** argv) {
  if (argc < 4) {
    throw InvalidArgumentError("run-model needs <dataset> <pattern>");
  }
  std::vector<std::size_t> widths{16, 8};
  GnnModel model = GnnModel::kGCN;
  ModelCompose compose = ModelCompose::kSequential;
  std::size_t pes = 512;
  double scale = 1.0;
  for (int i = 4; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw InvalidArgumentError("missing value for " + a);
      return argv[++i];
    };
    if (a == "--widths") {
      widths.clear();
      for (const auto& part : split(next(), ',')) {
        widths.push_back(parse_count(part, a));
      }
      if (widths.empty()) {
        throw InvalidArgumentError("--widths wants e.g. 16,8");
      }
    } else if (a == "--model") {
      model = gnn_model_from_string(next());
    } else if (a == "--compose") {
      compose = compose_from_string(to_lower(next()));
    } else if (a == "--pes") {
      pes = parse_count(next(), a);
    } else if (a == "--scale") {
      scale = parse_number(next(), a);
    } else {
      throw InvalidArgumentError("unknown flag: " + a);
    }
  }

  SynthesisOptions so;
  so.scale = scale;
  const GnnWorkload w = synthesize_workload(dataset_by_name(argv[2]), so);
  GnnModelSpec spec;
  spec.model = model;
  spec.feature_widths.push_back(w.in_features);
  spec.feature_widths.insert(spec.feature_widths.end(), widths.begin(),
                             widths.end());
  AcceleratorConfig hw;
  hw.num_pes = pes;
  const Omega omega(hw);
  const DataflowPattern pattern = pattern_by_name(argv[3]);
  const ModelRunResult r = run_model(omega, w, spec, pattern, compose);

  std::cout << "model run: " << to_string(model) << " on " << w.name
            << " (V=" << with_commas(w.num_vertices()) << ", E="
            << with_commas(w.num_edges()) << "), pattern " << pattern.name
            << ", compose " << to_string(compose) << "\n\n";
  TextTable t({"layer", "dims", "start", "finish", "cycles", "boundary"});
  for (std::size_t l = 0; l < r.layers.size(); ++l) {
    std::string note = "-";
    if (l > 0) {
      const BoundaryComposition& b = r.composition.boundaries[l - 1];
      note = b.overlapped
                 ? "overlap (saved " + with_commas(b.saved_cycles) + ")"
                 : b.reason;
    }
    t.add_row({std::to_string(l),
               std::to_string(r.layers[l].in_features) + "->" +
                   std::to_string(r.layers[l].out_features),
               with_commas(r.composition.layer_start[l]),
               with_commas(r.composition.layer_finish[l]),
               with_commas(r.layers[l].cycles), note});
  }
  std::cout << t;
  std::cout << "\nsequential sum: " << with_commas(r.sequential_cycles)
            << " cycles; composed: " << with_commas(r.total_cycles)
            << " cycles";
  if (r.sequential_cycles > r.total_cycles) {
    std::cout << " ("
              << fixed(static_cast<double>(r.sequential_cycles) /
                           static_cast<double>(std::max<std::uint64_t>(
                               r.total_cycles, 1)),
                       3)
              << "x)";
  }
  std::cout << "\nenergy: " << fixed(r.total_on_chip_pj / 1e6, 3)
            << " uJ on-chip, " << with_commas(r.total_macs) << " MACs\n";
  return 0;
}

// ---- Mapping service subcommands -------------------------------------------

/// Everything the service/transport subcommands accept; which fields each
/// command honors is controlled by the enable flags below.
struct ServiceCliFlags {
  service::ServiceOptions service;
  service::ServeOptions serve;
  std::string socket_path;
  std::string connect;  // client side: HOST:PORT
  bool tcp = false;
  std::uint16_t tcp_port = 0;
  std::string bind_addr = "127.0.0.1";
  std::string input_path;
  std::string trace_path;
  std::uint64_t priority = 0;
  std::uint64_t deadline_ms = 0;
  bool inject_scheduling = false;
};

ServiceCliFlags parse_service_flags(int argc, char** argv, int first,
                                    bool server_flags, bool client_flags,
                                    bool with_input) {
  ServiceCliFlags f;
  for (int i = first; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw InvalidArgumentError("missing value for " + a);
      return argv[++i];
    };
    if (a == "--registry" && server_flags) {
      f.service.registry_capacity =
          parse_count(next(), a);
    } else if (a == "--trace" && server_flags) {
      f.trace_path = next();
    } else if (a == "--socket") {
      f.socket_path = next();
    } else if (a == "--tcp" && server_flags) {
      f.tcp = true;
      f.tcp_port = static_cast<std::uint16_t>(parse_count(next(), a, 65535));
    } else if (a == "--bind" && server_flags) {
      f.bind_addr = next();
    } else if (a == "--backlog" && server_flags) {
      f.serve.backlog = static_cast<int>(
          parse_count(next(), a, std::numeric_limits<int>::max()));
    } else if (a == "--queue" && server_flags) {
      f.serve.queue_depth = parse_count(next(), a);
    } else if (a == "--sched-threads" && server_flags) {
      f.serve.scheduler_threads =
          parse_count(next(), a);
    } else if (a == "--min-deadline" && server_flags) {
      f.serve.min_feasible_deadline_ms = parse_count(next(), a);
    } else if (a == "--max-connections" && server_flags) {
      f.serve.max_connections = parse_count(next(), a);
    } else if (a == "--connect" && client_flags) {
      f.connect = next();
    } else if (a == "--priority" && client_flags) {
      f.priority = parse_count(next(), a);
      f.inject_scheduling = true;
    } else if (a == "--deadline-ms" && client_flags) {
      f.deadline_ms = parse_count(next(), a);
      f.inject_scheduling = true;
    } else if (with_input && !starts_with(a, "--")) {
      f.input_path = a;
    } else {
      throw InvalidArgumentError("unknown flag: " + a);
    }
  }
  return f;
}

/// Splits "HOST:PORT" (the port is the last ':' so IPv6-ish hosts keep
/// working once resolution handles them).
std::pair<std::string, std::uint16_t> parse_host_port(const std::string& s) {
  const std::size_t colon = s.rfind(':');
  if (colon == std::string::npos || colon + 1 >= s.size()) {
    throw InvalidArgumentError("--connect wants HOST:PORT, got: " + s);
  }
  const auto port = static_cast<std::uint16_t>(
      parse_count(s.substr(colon + 1), "--connect", 65535));
  return {s.substr(0, colon), port};
}

/// Injects the client's --priority/--deadline-ms as leading members of a
/// request object. The fields are v2 protocol additions, so the server
/// rejects injected v1 lines with a structured error rather than silently
/// ignoring the flags.
std::string with_scheduling(const std::string& line, std::uint64_t priority,
                            std::uint64_t deadline_ms) {
  const std::string body = trim(line);
  if (body.empty() || body.front() != '{') return line;
  std::string inject = "\"priority\":" + std::to_string(priority);
  if (deadline_ms > 0) {
    inject += ",\"deadline_ms\":" + std::to_string(deadline_ms);
  }
  const bool empty_object = body.size() == 2;  // "{}"
  return "{" + inject + (empty_object ? "" : ",") + body.substr(1);
}

std::string read_input_or_stdin(const std::string& input_path) {
  if (input_path == "-" || input_path.empty()) {
    std::ostringstream buf;
    buf << std::cin.rdbuf();
    return buf.str();
  }
  std::ifstream in(input_path);
  if (!in) throw InvalidArgumentError("cannot open " + input_path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

int cmd_serve(int argc, char** argv) {
  ServiceCliFlags f = parse_service_flags(argc, argv, 2, /*server_flags=*/true,
                                          /*client_flags=*/false,
                                          /*with_input=*/false);
  if (f.tcp && !f.socket_path.empty()) {
    throw InvalidArgumentError("--tcp and --socket are exclusive");
  }
  obs::TraceCollector tc;
  if (!f.trace_path.empty()) f.service.trace = &tc;
  service::MappingService svc(f.service);
  int rc = 0;
  if (f.tcp) {
    service::Listener listener =
        service::Listener::tcp(f.bind_addr, f.tcp_port, f.serve.backlog);
    // The resolved port matters when --tcp 0 asked for an ephemeral one.
    std::cerr << "mapping service listening on " << f.bind_addr << ":"
              << listener.port() << "\n";
    rc = service::serve_on(svc, listener, f.serve);
  } else if (!f.socket_path.empty()) {
    std::cerr << "mapping service listening on " << f.socket_path << "\n";
    rc = service::serve_unix_socket(svc, f.socket_path, f.serve);
  } else {
    svc.serve(std::cin, std::cout, f.serve);
  }
  if (!f.trace_path.empty()) {
    tc.name_process(0, "omega.service");
    tc.write_file(f.trace_path);
    std::cerr << "(trace: " << f.trace_path << ", " << tc.size()
              << " events)\n";
  }
  return rc;
}

int cmd_batch(int argc, char** argv) {
  ServiceCliFlags f = parse_service_flags(argc, argv, 2, /*server_flags=*/true,
                                          /*client_flags=*/false,
                                          /*with_input=*/true);
  if (f.input_path.empty()) {
    throw InvalidArgumentError("batch needs a request file (or '-')");
  }
  obs::TraceCollector tc;
  if (!f.trace_path.empty()) f.service.trace = &tc;
  service::MappingService svc(f.service);
  if (f.input_path == "-") {
    svc.serve(std::cin, std::cout, f.serve);
  } else {
    std::ifstream in(f.input_path);
    if (!in) throw InvalidArgumentError("cannot open " + f.input_path);
    svc.serve(in, std::cout, f.serve);
  }
  if (!f.trace_path.empty()) {
    tc.name_process(0, "omega.service");
    tc.write_file(f.trace_path);
    std::cerr << "(trace: " << f.trace_path << ", " << tc.size()
              << " events)\n";
  }
  return 0;
}

/// Connects to the daemon named by --socket PATH or --connect HOST:PORT.
service::StreamClient connect_client(const ServiceCliFlags& f,
                                     const char* command) {
  if (f.connect.empty() == f.socket_path.empty()) {
    throw InvalidArgumentError(std::string(command) +
                               " needs exactly one of --socket PATH or "
                               "--connect HOST:PORT");
  }
  if (!f.connect.empty()) {
    const auto [host, port] = parse_host_port(f.connect);
    return service::StreamClient::connect_tcp(host, port);
  }
  return service::StreamClient::connect_unix(f.socket_path);
}

/// Half-closes `client` and prints every response line until the daemon
/// closes the connection.
void print_responses(service::StreamClient& client) {
  client.shutdown_writes();
  std::optional<std::string> response;
  while ((response = client.read_line()).has_value()) {
    std::cout << *response << '\n';
  }
}

int cmd_metrics(int argc, char** argv) {
  const ServiceCliFlags f =
      parse_service_flags(argc, argv, 2, /*server_flags=*/false,
                          /*client_flags=*/true, /*with_input=*/false);
  service::StreamClient client = connect_client(f, "metrics");
  client.send_line(R"({"id":1,"version":2,"kind":"metrics"})");
  print_responses(client);
  return 0;
}

int cmd_client(int argc, char** argv) {
  const ServiceCliFlags f =
      parse_service_flags(argc, argv, 2, /*server_flags=*/false,
                          /*client_flags=*/true, /*with_input=*/true);
  std::istringstream in(read_input_or_stdin(f.input_path));
  service::StreamClient client = connect_client(f, "client");
  // Stream: send everything, half-close, then print responses as the
  // daemon emits them (per-connection per-band request order).
  std::string line;
  while (std::getline(in, line)) {
    client.send_line(f.inject_scheduling
                         ? with_scheduling(line, f.priority, f.deadline_ms)
                         : line);
  }
  print_responses(client);
  return 0;
}

int cmd_pattern(int argc, char** argv) {
  if (argc < 4) throw InvalidArgumentError("pattern needs <dataset> <name>");
  const CliOptions o = parse_flags(argc, argv, 4);
  const GnnWorkload w = load_workload(argv[2], o);
  DataflowPattern p = pattern_by_name(argv[3]);
  p.pp_agg_pe_fraction = o.frac;
  const Omega omega(hw_of(o));
  print_result(omega.run_pattern(w, LayerSpec{o.g}, p), w);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string cmd = argc >= 2 ? argv[1] : "";
  try {
    if (cmd.empty() || cmd == "--help" || cmd == "-h") {
      print_global_usage(cmd.empty() ? std::cerr : std::cout);
      return cmd.empty() ? 2 : 0;
    }
    if (cmd == "help") {
      if (argc >= 3) {
        if (const CommandHelp* h = find_command(argv[2])) {
          std::cout << h->usage;
          return 0;
        }
        std::cerr << "unknown command: " << argv[2] << "\n\n";
        print_global_usage(std::cerr);
        return 2;
      }
      print_global_usage(std::cout);
      return 0;
    }
    const CommandHelp* help = find_command(cmd);
    if (help == nullptr) {
      std::cerr << "unknown command: " << cmd << "\n\n";
      print_global_usage(std::cerr);
      return 2;
    }
    if (wants_help(argc, argv, 2)) {
      std::cout << help->usage;
      return 0;
    }
    if (cmd == "list") return cmd_list();
    if (cmd == "run") return cmd_run(argc, argv);
    if (cmd == "run-pipeline") return cmd_run_pipeline(argc, argv);
    if (cmd == "pattern") return cmd_pattern(argc, argv);
    if (cmd == "search-pipeline") return cmd_search_pipeline(argc, argv);
    if (cmd == "search-model") return cmd_search_model(argc, argv);
    if (cmd == "run-model") return cmd_run_model(argc, argv);
    if (cmd == "serve") return cmd_serve(argc, argv);
    if (cmd == "batch") return cmd_batch(argc, argv);
    if (cmd == "client") return cmd_client(argc, argv);
    if (cmd == "metrics") return cmd_metrics(argc, argv);
    // A kCommands entry without a dispatch line above is a programming
    // error — fail loudly instead of falling through to some command.
    std::cerr << "error: command \"" << cmd << "\" is listed but not wired\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    if (find_command(cmd) != nullptr) {
      std::cerr << "(see `omega_cli help " << cmd << "` for the flags)\n";
    }
    return 1;
  }
}
