// Wire protocol of the mapping service (see DESIGN.md "Mapping service").
//
// Requests and responses are single-line JSON objects (NDJSON). A request
// names a workload (a Table IV dataset to synthesize, or a MatrixMarket
// file to load), the hardware substrate, and one of four operations:
//
//   {"id":1,"kind":"evaluate","workload":{"dataset":"Cora","scale":0.25},
//    "out_features":16,"dataflow":"Seq_AC(VtNtFt, VtFtGt)"}
//   {"id":2,"kind":"search_mappings","workload":{...},"out_features":16,
//    "options":{"max_candidates":512,"objective":"runtime","top_k":4}}
//   {"id":3,"kind":"search_model","workload":{...},
//    "model":{"arch":"gcn","widths":[16,8]},"options":{"budget":400}}
//   {"id":4,"kind":"stats"}
//
// Responses echo the id: {"id":1,"ok":true,"kind":"evaluate","result":{...}}
// or {"id":1,"ok":false,"error":{"type":"ResourceError","message":"..."}}.
// Parsing is strict — unknown top-level keys are rejected so client typos
// surface as structured errors rather than silently-defaulted fields.
//
// Versioning: requests may carry "version" (1 or 2), echoed back in the
// response; an absent version means v1 and keeps responses byte-identical
// to pre-versioned clients. Version 2 additionally accepts an N-phase
// pipeline on evaluate requests (omega/pipeline.hpp):
//
//   {"id":5,"version":2,"kind":"evaluate","workload":{...},
//    "pipeline":{"phases":[{"name":"score","engine":"gemm",
//      "dataflow":"VsFtGs","tiles":[8,1,8],"out_features":16},
//      {"engine":"spmm","dataflow":"NtFsVt","tiles":[1,4,16]},
//      {"engine":"spgemm","dataflow":"GsVtFt","out_features":8,
//       "density":0.5}],"boundaries":["SPg","Seq"]}}
//
// and an N-phase mapping search over a chain (dse/pipeline_search.hpp) —
// the chain fixes engines/widths/densities, the searcher supplies loop
// orders, tilings, boundary strategies, and PE fractions:
//
//   {"id":6,"version":2,"kind":"search_pipeline","workload":{...},
//    "chain":{"phases":[{"name":"score","engine":"gemm","out_features":16},
//      {"engine":"spmm"},{"engine":"spgemm","out_features":8,
//       "density":0.5}]},
//    "options":{"max_candidates":256,"objective":"edp","prune":true}}
//
// and a full metrics snapshot (src/obs/metrics.hpp namespace — counters,
// gauges, latency histograms, registry + eval-core counters):
//
//   {"id":7,"version":2,"kind":"metrics"}
//
// and per-request scheduling fields on every kind (every transport, stdio
// included, feeds these to the request scheduler):
//
//   {"id":8,"version":2,"kind":"evaluate","priority":7,"deadline_ms":250,...}
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dse/model_search.hpp"
#include "dse/pipeline_search.hpp"
#include "graph/datasets.hpp"
#include "omega/pipeline.hpp"
#include "util/json.hpp"

namespace omega::service {

/// Which workload a request runs against. `signature()` is the registry
/// cache key: two requests with equal signatures share one synthesized
/// graph and one warmed WorkloadContext.
struct WorkloadRef {
  std::string dataset;   // Table IV name (exclusive with mtx_path)
  std::string mtx_path;  // MatrixMarket adjacency file
  double scale = 1.0;
  std::uint64_t seed = 7;
  std::size_t in_features = 0;  // 0 = dataset default; required for mtx
  bool add_self_loops = true;
  bool gcn_normalize = true;

  [[nodiscard]] std::string signature() const;
};

enum class RequestKind : std::uint8_t {
  kEvaluate = 0,
  kSearchMappings = 1,
  kSearchModel = 2,
  kStats = 3,
  kSearchPipeline = 4,
  /// v2 only: full metrics snapshot (counters / gauges / latency
  /// histograms from the service's obs registry, plus registry and
  /// eval-core counters). Latency values are wall-clock and never part of
  /// goldened output; the counter namespace is deterministic.
  kMetrics = 5,
};

[[nodiscard]] const char* to_string(RequestKind k);

/// Highest priority band the protocol accepts ("priority" in [0, 7];
/// 0 = lowest = default). Matches the scheduler's default band count.
inline constexpr std::uint64_t kMaxRequestPriority = 7;

/// A parsed protocol request. Defaults mirror the CLI's.
struct Request {
  std::uint64_t id = 0;
  /// Protocol version. 0 = the request carried no "version" member, which
  /// means v1 (the classic two-phase shape) and keeps responses
  /// byte-identical to pre-versioned clients. An explicit "version" is
  /// echoed back in the response; v2 additionally accepts an N-phase
  /// "pipeline" object on evaluate requests.
  std::uint64_t version = 0;
  RequestKind kind = RequestKind::kStats;
  WorkloadRef workload;

  // Scheduling (version >= 2, any kind). Absent means band 0 with no
  // deadline. Sessions read them off the raw line
  // (peek_request_scheduling) and hand them to the request scheduler.
  std::uint64_t priority = 0;     // [0, kMaxRequestPriority], 7 = highest
  std::uint64_t deadline_ms = 0;  // relative deadline; 0 = none

  // Substrate.
  std::size_t pes = 512;
  std::size_t bandwidth = 0;  // 0 = unbounded distribution/reduction

  // evaluate / search_mappings: the layer's output width G.
  std::size_t out_features = 16;

  // evaluate: either a fully bound descriptor (with optional explicit
  // tiles) or a Table V pattern name to auto-bind.
  std::string dataflow;             // descriptor notation
  std::string pattern;              // Table V config name
  std::vector<std::size_t> tiles;   // optional: 6 values, CLI --tiles order
  double pp_fraction = 0.5;

  // evaluate, version >= 2: an N-phase pipeline instead of the two-phase
  // dataflow/pattern shape. Exclusive with dataflow/pattern/tiles.
  bool has_pipeline = false;
  PipelineSpec pipeline;

  // search_pipeline (version >= 2): the N-phase chain to search and its
  // options. The chain carries the engines/widths/densities; the searcher
  // supplies loop orders, tilings, boundary strategies, and PE fractions.
  PipelineChainSpec chain;
  PipelineSearchOptions pipeline_search;

  // search_mappings / search_model.
  SearchOptions search;

  // search_model.
  GnnModel model = GnnModel::kGCN;
  std::vector<std::size_t> widths;  // hidden widths appended to F
  ModelSearchOptions model_options;
};

/// Parses one NDJSON request line. Throws InvalidArgumentError on malformed
/// JSON, unknown keys, or invalid field values.
[[nodiscard]] Request parse_request(const std::string& line);

/// The request head, recovered from a line without full parsing: the
/// transports probe every line once for scheduling, and MappingService
/// probes again only to shape an error response. Lines that will fail
/// parse_request are admitted too, so this probe never throws: each member
/// is read on its own, and a missing or malformed one stays at its default
/// (id 0, version 0 unless 1 or 2, band 0, no deadline, not a barrier).
/// Scheduling fields are a v2 addition: on v1 lines they are a protocol
/// error that parse_request reports, so the probe leaves them unset.
struct RequestScheduling {
  std::uint64_t id = 0;
  std::uint64_t version = 0;
  std::uint64_t priority = 0;
  std::uint64_t deadline_ms = 0;
  /// Stats and metrics dispatch as session barriers: both read cumulative
  /// counters whose values must deterministically reflect every preceding
  /// request of the session.
  bool barrier = false;
};
[[nodiscard]] RequestScheduling peek_request_scheduling(
    const std::string& line);

/// Structured error response: {"id":..,"ok":false,"error":{...}}. A
/// non-zero `version` (the request carried one and parsed far enough to
/// recover it) is echoed after the id.
[[nodiscard]] std::string error_response(std::uint64_t id,
                                         const std::string& type,
                                         const std::string& message,
                                         std::uint64_t version = 0);

/// Response body builders (single-line JSON, deterministic field order).
/// `version` 0 omits the member — pre-versioned clients keep receiving
/// byte-identical responses.
[[nodiscard]] std::string evaluate_response(std::uint64_t id,
                                            const GnnWorkload& workload,
                                            const RunResult& result,
                                            std::uint64_t version = 0);
[[nodiscard]] std::string evaluate_pipeline_response(
    std::uint64_t id, const GnnWorkload& workload, const PipelineSpec& spec,
    const PipelineResult& result, std::uint64_t version);
[[nodiscard]] std::string search_mappings_response(std::uint64_t id,
                                                   const GnnWorkload& workload,
                                                   const SearchResult& result,
                                                   std::uint64_t version = 0);
[[nodiscard]] std::string search_model_response(std::uint64_t id,
                                                const GnnWorkload& workload,
                                                const GnnModelSpec& spec,
                                                const ModelSearchResult& result,
                                                std::uint64_t version = 0);
/// v2 N-phase search response. Only the deterministic eval-core counters
/// (term requests/builds) are emitted; delta hits and batch shapes depend
/// on the serving machine's thread layout and stay out of goldens.
[[nodiscard]] std::string search_pipeline_response(
    std::uint64_t id, const GnnWorkload& workload,
    const PipelineChainSpec& chain, const PipelineSearchResult& result,
    std::uint64_t version);

}  // namespace omega::service
