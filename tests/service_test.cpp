// Mapping-service tests: protocol round-trips for all three request kinds,
// structured errors for malformed requests and engine failures, registry
// LRU eviction + hit/miss accounting, entry rows and epochs, one build per
// signature under concurrent misses, and byte-identical responses across
// thread counts and across warm/cold registry states.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <latch>
#include <sstream>
#include <thread>

#include "obs/trace.hpp"
#include "service/server.hpp"
#include "util/json.hpp"

namespace omega::service {
namespace {

const char* kCoraQuarter =
    R"({"dataset":"Cora","scale":0.25})";

std::string line_evaluate(std::uint64_t id) {
  return R"({"id":)" + std::to_string(id) +
         R"(,"kind":"evaluate","workload":)" + kCoraQuarter +
         R"(,"out_features":16,"pattern":"SP2"})";
}

std::string line_search(std::uint64_t id) {
  return R"({"id":)" + std::to_string(id) +
         R"(,"kind":"search_mappings","workload":)" + kCoraQuarter +
         R"(,"out_features":16,"options":{"max_candidates":48,"top_k":2}})";
}

std::string line_model(std::uint64_t id) {
  return R"({"id":)" + std::to_string(id) +
         R"(,"kind":"search_model","workload":)" + kCoraQuarter +
         R"(,"model":{"arch":"gcn","widths":[16,7]},)"
         R"("options":{"budget":48}})";
}

std::string line_model_pipelined(std::uint64_t id) {
  return R"({"id":)" + std::to_string(id) +
         R"(,"kind":"search_model","workload":)" + kCoraQuarter +
         R"(,"model":{"arch":"gcn","widths":[16,7]},)"
         R"("options":{"budget":48,"compose":"pipelined"}})";
}

/// Splits NDJSON output into its lines.
std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string l; std::getline(in, l);) lines.push_back(l);
  return lines;
}

/// Replays `lines` through serve() as one stdio session and returns the
/// response lines in emission order.
std::vector<std::string> serve_lines(MappingService& svc,
                                     const std::vector<std::string>& lines,
                                     const ServeOptions& options = {}) {
  std::string input;
  for (const std::string& line : lines) input += line + "\n";
  std::istringstream in(input);
  std::ostringstream out;
  EXPECT_EQ(svc.serve(in, out, options), lines.size());
  return split_lines(out.str());
}

// ---- Request parsing --------------------------------------------------------

TEST(ProtocolTest, ParsesEvaluateRequest) {
  const Request r = parse_request(
      R"({"id":9,"kind":"evaluate","workload":{"dataset":"Citeseer",)"
      R"("scale":0.5,"seed":11},"out_features":32,"pes":256,)"
      R"x("dataflow":"Seq_AC(VtNtFt, VtFtGt)","tiles":[1,1,256,16,16,1]})x");
  EXPECT_EQ(r.id, 9u);
  EXPECT_EQ(r.kind, RequestKind::kEvaluate);
  EXPECT_EQ(r.workload.dataset, "Citeseer");
  EXPECT_DOUBLE_EQ(r.workload.scale, 0.5);
  EXPECT_EQ(r.workload.seed, 11u);
  EXPECT_EQ(r.out_features, 32u);
  EXPECT_EQ(r.pes, 256u);
  EXPECT_EQ(r.dataflow, "Seq_AC(VtNtFt, VtFtGt)");
  ASSERT_EQ(r.tiles.size(), 6u);
  EXPECT_EQ(r.tiles[2], 256u);
}

TEST(ProtocolTest, ParsesSearchMappingsRequest) {
  const Request r = parse_request(
      R"({"id":2,"kind":"search_mappings","workload":{"dataset":"Cora"},)"
      R"("options":{"objective":"edp","max_candidates":100,"prune":true,)"
      R"("top_k":5,"include_ca":true}})");
  EXPECT_EQ(r.kind, RequestKind::kSearchMappings);
  EXPECT_EQ(r.search.objective, Objective::kEnergyDelayProduct);
  EXPECT_EQ(r.search.max_candidates, 100u);
  EXPECT_TRUE(r.search.prune);
  EXPECT_TRUE(r.search.include_ca);
  EXPECT_EQ(r.search.top_k, 5u);
}

TEST(ProtocolTest, ParsesSearchModelRequest) {
  const Request r = parse_request(
      R"({"id":3,"kind":"search_model","workload":{"dataset":"Cora"},)"
      R"("model":{"arch":"sage","widths":[32,16]},)"
      R"("options":{"budget":64,"total_budget":500,"allocation":"even",)"
      R"("prune":false}})");
  EXPECT_EQ(r.kind, RequestKind::kSearchModel);
  EXPECT_EQ(r.model, GnnModel::kGraphSAGE);
  ASSERT_EQ(r.widths.size(), 2u);
  EXPECT_EQ(r.widths[0], 32u);
  EXPECT_EQ(r.model_options.layer.max_candidates, 64u);
  EXPECT_EQ(r.model_options.max_total_candidates, 500u);
  EXPECT_EQ(r.model_options.budget_allocation, BudgetAllocation::kEven);
  EXPECT_FALSE(r.model_options.layer.prune);
  // Without the key, model search prunes every layer sweep by default.
  EXPECT_TRUE(parse_request(line_model_pipelined(4)).model_options.layer.prune);
}

TEST(ProtocolTest, ParsesComposeOptionAndDefaultsToSequential) {
  const Request pipelined = parse_request(line_model_pipelined(4));
  EXPECT_EQ(pipelined.model_options.compose, ModelCompose::kPipelined);
  const Request explicit_seq = parse_request(
      R"({"id":4,"kind":"search_model","workload":{"dataset":"Cora"},)"
      R"("model":{"arch":"gcn","widths":[16]},)"
      R"("options":{"compose":"sequential"}})");
  EXPECT_EQ(explicit_seq.model_options.compose, ModelCompose::kSequential);
  // Request lines written before cross-layer composition existed carry no
  // "compose" key and must keep their sequential semantics.
  const Request legacy = parse_request(line_model(4));
  EXPECT_EQ(legacy.model_options.compose, ModelCompose::kSequential);
  EXPECT_THROW(parse_request(
                   R"({"kind":"search_model","workload":{"dataset":"Cora"},)"
                   R"("model":{"arch":"gcn","widths":[16]},)"
                   R"("options":{"compose":"diagonal"}})"),
               InvalidArgumentError);
}

TEST(ProtocolTest, RejectsUnknownKeysAndBadShapes) {
  // Typos become structured errors instead of silently-defaulted fields.
  EXPECT_THROW(parse_request(R"({"kind":"stats","oops":1})"),
               InvalidArgumentError);
  EXPECT_THROW(parse_request(
                   R"({"kind":"evaluate","workload":{"dataset":"Cora",)"
                   R"("oops":1},"pattern":"SP2"})"),
               InvalidArgumentError);
  // Exactly one of dataset/mtx.
  EXPECT_THROW(
      parse_request(R"({"kind":"evaluate","workload":{},"pattern":"SP2"})"),
      InvalidArgumentError);
  // Exactly one of dataflow/pattern.
  EXPECT_THROW(parse_request(R"({"kind":"evaluate","workload":)" +
                             std::string(kCoraQuarter) + "}"),
               InvalidArgumentError);
  // mtx needs in_features.
  EXPECT_THROW(parse_request(
                   R"({"kind":"evaluate","workload":{"mtx":"x.mtx"},)"
                   R"("pattern":"SP2"})"),
               InvalidArgumentError);
  EXPECT_THROW(parse_request(R"({"kind":"warp"})"), InvalidArgumentError);
  EXPECT_THROW(parse_request("nonsense"), InvalidArgumentError);
}

TEST(ProtocolTest, RejectsKeysIrrelevantToTheKind) {
  // Fields that cannot affect the response are client mistakes, not noise.
  EXPECT_THROW(parse_request(R"({"kind":"search_mappings","workload":)" +
                             std::string(kCoraQuarter) +
                             R"(,"pattern":"SP2"})"),
               InvalidArgumentError);
  EXPECT_THROW(parse_request(R"({"kind":"search_model","workload":)" +
                             std::string(kCoraQuarter) +
                             R"(,"model":{"arch":"gcn","widths":[8]},)" +
                             R"("out_features":16})"),
               InvalidArgumentError);
  EXPECT_THROW(parse_request(R"({"kind":"stats","workload":)" +
                             std::string(kCoraQuarter) + "}"),
               InvalidArgumentError);
  EXPECT_THROW(parse_request(R"({"kind":"evaluate","workload":)" +
                             std::string(kCoraQuarter) +
                             R"(,"model":{"arch":"gcn","widths":[8]},)" +
                             R"("pattern":"SP2"})"),
               InvalidArgumentError);
  // tiles bind onto an explicit descriptor, never onto a pattern.
  EXPECT_THROW(parse_request(R"({"kind":"evaluate","workload":)" +
                             std::string(kCoraQuarter) +
                             R"(,"pattern":"SP2","tiles":[1,1,1,1,1,1]})"),
               InvalidArgumentError);
  // Synthesis-only knobs on mtx workloads would fragment the registry.
  EXPECT_THROW(parse_request(
                   R"({"kind":"evaluate","workload":{"mtx":"g.mtx",)"
                   R"("in_features":8,"scale":0.5},"pattern":"SP2"})"),
               InvalidArgumentError);
}

TEST(ProtocolTest, SignatureDistinguishesWorkloads) {
  WorkloadRef a;
  a.dataset = "Cora";
  WorkloadRef b = a;
  EXPECT_EQ(a.signature(), b.signature());
  b.scale = 0.5;
  EXPECT_NE(a.signature(), b.signature());
  b = a;
  b.seed = 8;
  EXPECT_NE(a.signature(), b.signature());
  b = a;
  b.gcn_normalize = false;
  EXPECT_NE(a.signature(), b.signature());
  // Case-insensitive dataset naming collapses to one entry.
  b = a;
  b.dataset = "cora";
  EXPECT_EQ(a.signature(), b.signature());
}

// ---- Round trips through the service ---------------------------------------

TEST(ServiceTest, EvaluateRoundTrip) {
  MappingService svc;
  const JsonValue v = JsonValue::parse(svc.handle_line(line_evaluate(7)));
  EXPECT_EQ(v.find("id")->as_u64(), 7u);
  EXPECT_TRUE(v.find("ok")->as_bool());
  EXPECT_EQ(v.find("kind")->as_string(), "evaluate");
  EXPECT_EQ(v.find("workload")->find("name")->as_string(), "Cora");
  const JsonValue* result = v.find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_GT(result->find("cycles")->as_u64(), 0u);
  EXPECT_GT(result->find("on_chip_pj")->as_double(), 0.0);
  EXPECT_EQ(result->find("pattern")->as_string(), "SP2");
}

TEST(ServiceTest, SearchMappingsRoundTrip) {
  MappingService svc;
  const JsonValue v = JsonValue::parse(svc.handle_line(line_search(8)));
  EXPECT_TRUE(v.find("ok")->as_bool());
  EXPECT_EQ(v.find("kind")->as_string(), "search_mappings");
  EXPECT_EQ(v.find("evaluated")->as_u64(), 48u);
  EXPECT_GT(v.find("best")->find("cycles")->as_u64(), 0u);
  EXPECT_EQ(v.find("ranked")->items().size(), 2u);
}

TEST(ServiceTest, SearchModelRoundTrip) {
  MappingService svc;
  const JsonValue v = JsonValue::parse(svc.handle_line(line_model(9)));
  EXPECT_TRUE(v.find("ok")->as_bool());
  EXPECT_EQ(v.find("kind")->as_string(), "search_model");
  ASSERT_EQ(v.find("layers")->items().size(), 2u);
  const JsonValue& l0 = v.find("layers")->items()[0];
  EXPECT_GT(l0.find("cycles")->as_u64(), 0u);
  EXPECT_GT(v.find("total_cycles")->as_u64(),
            l0.find("cycles")->as_u64());
  // Sequential composition reports composed == summed.
  EXPECT_EQ(v.find("compose")->as_string(), "sequential");
  EXPECT_EQ(v.find("composed_cycles")->as_u64(),
            v.find("total_cycles")->as_u64());
}

TEST(ServiceTest, SearchModelPipelinedRoundTrip) {
  MappingService svc;
  const JsonValue v =
      JsonValue::parse(svc.handle_line(line_model_pipelined(10)));
  EXPECT_TRUE(v.find("ok")->as_bool());
  EXPECT_EQ(v.find("compose")->as_string(), "pipelined");
  // The composed makespan can never exceed the layer sum.
  EXPECT_LE(v.find("composed_cycles")->as_u64(),
            v.find("total_cycles")->as_u64());
}

// ---- Protocol version + v2 pipeline requests --------------------------------

const char* kPipelineBody =
    R"({"phases":[)"
    R"({"name":"score","engine":"gemm","dataflow":"VsFtGs",)"
    R"("tiles":[8,1,8],"out_features":16},)"
    R"({"name":"agg","engine":"spmm","dataflow":"NtFsVt","tiles":[1,4,16]},)"
    R"({"name":"xform","engine":"spgemm","dataflow":"GsVtFt",)"
    R"("tiles":[1,1,8],"out_features":8,"density":0.5}],)"
    R"("boundaries":["SPg","Seq"]})";

std::string line_pipeline(std::uint64_t id) {
  return R"({"id":)" + std::to_string(id) +
         R"(,"version":2,"kind":"evaluate","workload":)" + kCoraQuarter +
         R"(,"pipeline":)" + kPipelineBody + "}";
}

TEST(ProtocolTest, ParsesVersionedPipelineRequest) {
  const Request r = parse_request(line_pipeline(12));
  EXPECT_EQ(r.version, 2u);
  EXPECT_TRUE(r.has_pipeline);
  ASSERT_EQ(r.pipeline.phases.size(), 3u);
  EXPECT_EQ(r.pipeline.phases[0].engine, PhaseEngine::kDenseDense);
  EXPECT_EQ(r.pipeline.phases[0].out_features, 16u);
  EXPECT_EQ(r.pipeline.phases[0].dataflow.tiles.v, 8u);
  EXPECT_EQ(r.pipeline.phases[1].engine, PhaseEngine::kSparseDense);
  EXPECT_EQ(r.pipeline.phases[1].dataflow.tiles.n, 4u);
  EXPECT_EQ(r.pipeline.phases[2].engine, PhaseEngine::kSparseSparse);
  EXPECT_DOUBLE_EQ(r.pipeline.phases[2].weight_density, 0.5);
  ASSERT_EQ(r.pipeline.boundaries.size(), 2u);
  EXPECT_EQ(r.pipeline.boundaries[0], InterPhase::kSPGeneric);
  EXPECT_FALSE(r.pipeline.validation_error().has_value());
}

TEST(ProtocolTest, VersionAndPipelineShapeAreValidated) {
  // A pipeline without version 2 is a client mistake, not an upgrade.
  EXPECT_THROW(parse_request(R"({"id":1,"kind":"evaluate","workload":)" +
                             std::string(kCoraQuarter) + R"(,"pipeline":)" +
                             kPipelineBody + "}"),
               InvalidArgumentError);
  // Unsupported version numbers are rejected up front.
  EXPECT_THROW(parse_request(R"({"id":1,"version":3,"kind":"stats"})"),
               InvalidArgumentError);
  // v2 pipeline excludes the two-phase fields — including the ones that
  // would otherwise be silently defaulted over (out_features, pp_fraction).
  EXPECT_THROW(
      parse_request(R"({"id":1,"version":2,"kind":"evaluate","workload":)" +
                    std::string(kCoraQuarter) + R"(,"pattern":"SP2",)" +
                    R"("pipeline":)" + kPipelineBody + "}"),
      InvalidArgumentError);
  EXPECT_THROW(
      parse_request(R"({"id":1,"version":2,"kind":"evaluate","workload":)" +
                    std::string(kCoraQuarter) + R"(,"out_features":32,)" +
                    R"("pipeline":)" + kPipelineBody + "}"),
      InvalidArgumentError);
  EXPECT_THROW(
      parse_request(R"({"id":1,"version":2,"kind":"evaluate","workload":)" +
                    std::string(kCoraQuarter) + R"(,"pp_fraction":0.25,)" +
                    R"("pipeline":)" + kPipelineBody + "}"),
      InvalidArgumentError);
  // Unknown phase keys stay strict.
  EXPECT_THROW(
      parse_request(R"({"id":1,"version":2,"kind":"evaluate","workload":)" +
                    std::string(kCoraQuarter) +
                    R"(,"pipeline":{"phases":[{"engine":"gemm",)"
                    R"("dataflow":"VtFtGt","out_features":8,"hue":3}]}})"),
      InvalidArgumentError);
  // version 1 + explicit version echo stays the two-phase shape.
  const Request v1 = parse_request(
      R"({"id":2,"version":1,"kind":"evaluate","workload":)" +
      std::string(kCoraQuarter) + R"(,"pattern":"SP2"})");
  EXPECT_EQ(v1.version, 1u);
  EXPECT_FALSE(v1.has_pipeline);
}

TEST(ProtocolTest, ParsesSchedulingFieldsOnVersionTwo) {
  const Request r = parse_request(
      R"({"id":3,"version":2,"priority":5,"deadline_ms":250,)"
      R"("kind":"evaluate","workload":)" +
      std::string(kCoraQuarter) + R"(,"pattern":"SP2"})");
  EXPECT_EQ(r.priority, 5u);
  EXPECT_EQ(r.deadline_ms, 250u);
  // Absent fields keep today's unscheduled defaults.
  const Request plain = parse_request(
      R"({"id":4,"version":2,"kind":"evaluate","workload":)" +
      std::string(kCoraQuarter) + R"(,"pattern":"SP2"})");
  EXPECT_EQ(plain.priority, 0u);
  EXPECT_EQ(plain.deadline_ms, 0u);
}

TEST(ProtocolTest, SchedulingFieldsRequireVersionTwoAndValidRange) {
  // priority/deadline_ms on a v1 (or unversioned) request is a mistake,
  // not a silent no-op.
  EXPECT_THROW(parse_request(R"({"id":1,"priority":3,"kind":"evaluate",)"
                             R"("workload":)" +
                             std::string(kCoraQuarter) +
                             R"(,"pattern":"SP2"})"),
               InvalidArgumentError);
  EXPECT_THROW(parse_request(
                   R"({"id":1,"version":1,"deadline_ms":10,"kind":"stats"})"),
               InvalidArgumentError);
  // Bands are [0, kMaxRequestPriority].
  EXPECT_THROW(parse_request(R"({"id":1,"version":2,"priority":8,)"
                             R"("kind":"evaluate","workload":)" +
                             std::string(kCoraQuarter) +
                             R"(,"pattern":"SP2"})"),
               InvalidArgumentError);
}

TEST(ProtocolTest, PeekRequestSchedulingNeverThrows) {
  const RequestScheduling sched = peek_request_scheduling(
      R"({"id":9,"version":2,"priority":6,"deadline_ms":40,)"
      R"("kind":"stats"})");
  EXPECT_EQ(sched.id, 9u);
  EXPECT_EQ(sched.version, 2u);
  EXPECT_EQ(sched.priority, 6u);
  EXPECT_EQ(sched.deadline_ms, 40u);
  // v1 lines (even with bogus scheduling keys) peek as band 0 — the shed
  // path and the parse error path must agree on the band.
  const RequestScheduling v1 =
      peek_request_scheduling(R"({"id":2,"priority":6,"kind":"stats"})");
  EXPECT_EQ(v1.id, 2u);
  EXPECT_EQ(v1.priority, 0u);
  EXPECT_EQ(v1.deadline_ms, 0u);
  // Malformed input degrades to the defaults instead of throwing.
  const RequestScheduling junk = peek_request_scheduling("{nonsense");
  EXPECT_EQ(junk.id, 0u);
  EXPECT_EQ(junk.priority, 0u);
  EXPECT_FALSE(junk.barrier);
  // Each member is probed on its own: a malformed id hides neither the
  // version (error responses echo it) nor the scheduling fields.
  const RequestScheduling bad_id = peek_request_scheduling(
      R"({"id":-1,"version":2,"priority":3,"kind":"stats"})");
  EXPECT_EQ(bad_id.id, 0u);
  EXPECT_EQ(bad_id.version, 2u);
  EXPECT_EQ(bad_id.priority, 3u);
  EXPECT_TRUE(bad_id.barrier);
}

TEST(ServiceTest, PipelineEvaluateRoundTrip) {
  MappingService svc;
  const JsonValue v = JsonValue::parse(svc.handle_line(line_pipeline(21)));
  EXPECT_EQ(v.find("id")->as_u64(), 21u);
  ASSERT_NE(v.find("version"), nullptr);
  EXPECT_EQ(v.find("version")->as_u64(), 2u);
  EXPECT_TRUE(v.find("ok")->as_bool());
  const JsonValue* result = v.find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_GT(result->find("cycles")->as_u64(), 0u);
  ASSERT_EQ(result->find("phases")->items().size(), 3u);
  ASSERT_EQ(result->find("boundaries")->items().size(), 2u);
  const JsonValue& b0 = result->find("boundaries")->items()[0];
  EXPECT_EQ(b0.find("inter")->as_string(), "SPg");
  EXPECT_GT(b0.find("pipeline_chunks")->as_u64(), 1u);
  // Width chain F -> 16 -> 16 -> 8.
  EXPECT_EQ(result->find("out_features")->as_u64(), 8u);
  // The total is the phase sum here (no PP boundary).
  std::uint64_t sum = 0;
  for (const auto& p : result->find("phases")->items()) {
    sum += p.find("cycles")->as_u64();
  }
  EXPECT_EQ(result->find("cycles")->as_u64(), sum);
}

TEST(ServiceTest, VersionIsEchoedAndAbsentStaysAbsent) {
  MappingService svc;
  // Unversioned requests keep the historical byte shape: no version member.
  const std::string unversioned = svc.handle_line(line_evaluate(7));
  EXPECT_EQ(unversioned.find("\"version\""), std::string::npos);
  // version 1 echoes without changing anything else.
  const JsonValue v1 = JsonValue::parse(svc.handle_line(
      R"({"id":7,"version":1,"kind":"evaluate","workload":)" +
      std::string(kCoraQuarter) + R"(,"out_features":16,"pattern":"SP2"})"));
  EXPECT_EQ(v1.find("version")->as_u64(), 1u);
  EXPECT_TRUE(v1.find("ok")->as_bool());
  // Errors echo the version too when the request parsed far enough.
  const JsonValue err = JsonValue::parse(svc.handle_line(
      R"({"id":8,"version":2,"kind":"evaluate","workload":)" +
      std::string(kCoraQuarter) +
      R"x(,"pes":1,"dataflow":"PP_AC(VtFsNt, VsGsFt)"})x"));
  EXPECT_EQ(err.find("version")->as_u64(), 2u);
  EXPECT_FALSE(err.find("ok")->as_bool());
  // Parse-time errors echo the version too (peeked off the line, since
  // parse_request is all-or-nothing).
  const JsonValue parse_err = JsonValue::parse(svc.handle_line(
      R"({"id":3,"version":2,"kind":"evaluate","workload":)" +
      std::string(kCoraQuarter) + R"(,"typoed_key":1})"));
  EXPECT_FALSE(parse_err.find("ok")->as_bool());
  ASSERT_NE(parse_err.find("version"), nullptr);
  EXPECT_EQ(parse_err.find("version")->as_u64(), 2u);
  // An invalid pipeline spec surfaces as a structured InvalidDataflowError.
  const JsonValue bad = JsonValue::parse(svc.handle_line(
      R"({"id":9,"version":2,"kind":"evaluate","workload":)" +
      std::string(kCoraQuarter) +
      R"(,"pipeline":{"phases":[{"engine":"gemm","dataflow":"VtFtGt"}]}})"));
  EXPECT_FALSE(bad.find("ok")->as_bool());
  EXPECT_EQ(bad.find("error")->find("type")->as_string(),
            "InvalidDataflowError");
}

TEST(ServiceTest, MalformedRequestsBecomeStructuredErrors) {
  MappingService svc;
  // Bad JSON: id irrecoverable, error typed.
  JsonValue v = JsonValue::parse(svc.handle_line("{{{"));
  EXPECT_FALSE(v.find("ok")->as_bool());
  EXPECT_EQ(v.find("error")->find("type")->as_string(),
            "InvalidArgumentError");
  // Valid JSON, invalid request: id echoed.
  v = JsonValue::parse(svc.handle_line(R"({"id":42,"kind":"warp"})"));
  EXPECT_EQ(v.find("id")->as_u64(), 42u);
  EXPECT_FALSE(v.find("ok")->as_bool());
  // Unknown dataset surfaces the engine's message.
  v = JsonValue::parse(svc.handle_line(
      R"({"id":5,"kind":"evaluate","workload":{"dataset":"Nope"},)"
      R"("pattern":"SP2"})"));
  EXPECT_EQ(v.find("id")->as_u64(), 5u);
  EXPECT_EQ(v.find("error")->find("type")->as_string(),
            "InvalidArgumentError");
}

TEST(ServiceTest, EngineResourceErrorsPropagateStructured) {
  MappingService svc;
  // PP on a single-PE substrate: the engine throws ResourceError; the
  // service must answer, not crash.
  const JsonValue v = JsonValue::parse(svc.handle_line(
      R"({"id":6,"kind":"evaluate","workload":)" +
      std::string(kCoraQuarter) +
      R"x(,"pes":1,"dataflow":"PP_AC(VtFsNt, VsGsFt)"})x"));
  EXPECT_EQ(v.find("id")->as_u64(), 6u);
  EXPECT_FALSE(v.find("ok")->as_bool());
  EXPECT_EQ(v.find("error")->find("type")->as_string(), "ResourceError");
}

TEST(ServiceTest, DataflowWithTrailingTextIsRejected) {
  MappingService svc;
  for (const char* dataflow :
       {"Seq_AC(VtNtFt, VtFtGt) and then some", "Seq_AC(VtNtFt, VtFtGt))"}) {
    SCOPED_TRACE(dataflow);
    const JsonValue v = JsonValue::parse(svc.handle_line(
        R"({"id":4,"kind":"evaluate","workload":)" +
        std::string(kCoraQuarter) + R"(,"dataflow":")" + dataflow + R"("})"));
    EXPECT_EQ(v.find("id")->as_u64(), 4u);
    EXPECT_FALSE(v.find("ok")->as_bool());
    EXPECT_EQ(v.find("error")->find("type")->as_string(),
              "InvalidDataflowError");
    EXPECT_NE(v.find("error")->find("message")->as_string().find(
                  "unexpected text after the dataflow's ')'"),
              std::string::npos);
  }
}

// ---- Registry ---------------------------------------------------------------

TEST(RegistryTest, HitMissAccountingAndLruEviction) {
  WorkloadRegistry reg(2);
  WorkloadRef a, b, c;
  a.dataset = "Mutag";
  a.scale = 0.1;
  b = a;
  b.seed = 8;
  c = a;
  c.seed = 9;

  (void)reg.acquire(a);  // miss
  (void)reg.acquire(b);  // miss
  (void)reg.acquire(a);  // hit, makes A most-recent
  EXPECT_EQ(reg.stats().hits, 1u);
  EXPECT_EQ(reg.stats().misses, 2u);
  EXPECT_EQ(reg.stats().resident, 2u);

  (void)reg.acquire(c);  // miss, evicts B (LRU)
  EXPECT_EQ(reg.stats().evictions, 1u);
  EXPECT_EQ(reg.stats().resident, 2u);
  (void)reg.acquire(a);  // still resident -> hit
  EXPECT_EQ(reg.stats().hits, 2u);
  (void)reg.acquire(b);  // evicted -> miss again
  EXPECT_EQ(reg.stats().misses, 4u);
}

TEST(RegistryTest, EntriesSurviveEvictionWhileHeld) {
  WorkloadRegistry reg(1);
  WorkloadRef a, b;
  a.dataset = "Mutag";
  a.scale = 0.1;
  b = a;
  b.seed = 99;
  const auto held = reg.acquire(a);
  (void)reg.acquire(b);  // evicts a's cache slot
  // The held entry is untouched by eviction.
  EXPECT_GT(held->workload.num_vertices(), 0u);
  EXPECT_EQ(held->workload.name, "Mutag");
}

TEST(RegistryTest, BuildFailuresDoNotPoisonTheCache) {
  WorkloadRegistry reg(4);
  WorkloadRef bad;
  bad.mtx_path = "/nonexistent/graph.mtx";
  bad.in_features = 8;
  EXPECT_THROW((void)reg.acquire(bad), InvalidArgumentError);
  // The failed signature holds no resident entry and retries on the next
  // acquire (it throws again rather than returning a cached husk).
  EXPECT_EQ(reg.stats().resident, 0u);
  EXPECT_THROW((void)reg.acquire(bad), InvalidArgumentError);
}

TEST(RegistryTest, CapacityZeroDisablesCaching) {
  WorkloadRegistry reg(0);
  WorkloadRef a;
  a.dataset = "Mutag";
  a.scale = 0.1;
  (void)reg.acquire(a);
  (void)reg.acquire(a);
  EXPECT_EQ(reg.stats().hits, 0u);
  EXPECT_EQ(reg.stats().misses, 2u);
  EXPECT_EQ(reg.stats().resident, 0u);
}

TEST(RegistryTest, EntryStatsAreSignatureSorted) {
  WorkloadRegistry reg(8);
  std::vector<WorkloadRef> refs(4);
  for (std::size_t i = 0; i < refs.size(); ++i) {
    refs[i].dataset = i == 0 ? "Cora" : "Mutag";
    refs[i].scale = 0.1;
    refs[i].seed = 9 - i;  // acquisition order differs from signature order
  }
  std::vector<std::string> expected;
  for (const WorkloadRef& r : refs) {
    (void)reg.acquire(r);
    expected.push_back(r.signature());
  }
  std::sort(expected.begin(), expected.end());
  std::vector<std::string> got;
  for (const RegistryEntryStats& row : reg.entry_stats()) {
    got.push_back(row.signature);
  }
  EXPECT_EQ(got, expected);
}

TEST(RegistryTest, EpochStartsAtOneAndAdvancesByOne) {
  WorkloadRegistry reg(2);
  EXPECT_EQ(reg.epoch(), 1u);
  reg.advance_epoch();
  EXPECT_EQ(reg.epoch(), 2u);
  reg.advance_epoch();
  EXPECT_EQ(reg.epoch(), 3u);
}

TEST(RegistryTest, AcquireStampsTheCurrentEpoch) {
  WorkloadRegistry reg(4);
  WorkloadRef a, b;
  a.dataset = "Mutag";
  a.scale = 0.1;
  b = a;
  b.seed = 8;
  (void)reg.acquire(a);  // miss at epoch 1
  (void)reg.acquire(b);  // miss at epoch 1
  reg.advance_epoch();
  reg.advance_epoch();
  (void)reg.acquire(a);  // hit at epoch 3
  const std::vector<RegistryEntryStats> rows = reg.entry_stats();
  ASSERT_EQ(rows.size(), 2u);
  for (const RegistryEntryStats& row : rows) {
    const bool is_a = row.signature == a.signature();
    EXPECT_EQ(row.last_hit_epoch, is_a ? 3u : 1u) << row.signature;
    EXPECT_EQ(row.hits, is_a ? 1u : 0u) << row.signature;
  }
}

TEST(RegistryTest, ConcurrentMissesOnOneSignatureBuildOnce) {
  constexpr std::size_t kThreads = 8;
  WorkloadRegistry reg(4);
  WorkloadRef cold;
  cold.dataset = "Mutag";
  cold.scale = 0.1;
  std::latch start(kThreads);
  std::vector<std::shared_ptr<const WorkloadEntry>> got(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      got[t] = reg.acquire(cold);
    });
  }
  for (std::thread& th : threads) th.join();
  ASSERT_NE(got[0], nullptr);
  for (const auto& entry : got) EXPECT_EQ(entry.get(), got[0].get());
  EXPECT_EQ(reg.stats().misses, 1u);
  EXPECT_EQ(reg.stats().hits, kThreads - 1);
}

// ---- Determinism ------------------------------------------------------------

std::vector<std::string> mixed_batch() {
  return {line_evaluate(1), line_search(2),         line_model(3),
          line_evaluate(4), line_model_pipelined(5), line_search(6)};
}

TEST(ServiceDeterminismTest, WarmAndColdResponsesAreByteIdentical) {
  ServiceOptions cold_opts;
  cold_opts.registry_capacity = 0;
  MappingService cold(cold_opts);
  MappingService warm;  // default capacity
  const auto batch = mixed_batch();
  const auto cold_responses = serve_lines(cold, batch);
  const auto warm_responses = serve_lines(warm, batch);
  // Replay on the now-warm registry: still identical.
  const auto warm_again = serve_lines(warm, batch);
  EXPECT_EQ(cold_responses, warm_responses);
  EXPECT_EQ(warm_responses, warm_again);
  EXPECT_GT(warm.registry().stats().hits, 0u);
}

TEST(ServiceDeterminismTest, ResponsesAreByteIdenticalAcrossThreadCounts) {
  const auto batch = mixed_batch();
  std::vector<std::vector<std::string>> per_threads;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    MappingService svc;
    ServeOptions so;
    so.scheduler_threads = threads;
    per_threads.push_back(serve_lines(svc, batch, so));
  }
  ASSERT_EQ(per_threads[0].size(), batch.size());
  EXPECT_EQ(per_threads[0], per_threads[1]);
}

// ---- Stream serving ---------------------------------------------------------

TEST(ServeStreamTest, BatchBoundariesAndOrderedResponses) {
  MappingService svc;
  std::istringstream in(line_evaluate(11) + "\n" + line_search(12) + "\n" +
                        "\n" +  // blank line: a no-op, not a flush
                        line_evaluate(13) + "\n" +
                        R"({"id":14,"kind":"stats"})" + "\n");
  std::ostringstream out;
  const std::size_t served = svc.serve(in, out);
  EXPECT_EQ(served, 4u);

  const std::vector<std::string> lines = split_lines(out.str());
  ASSERT_EQ(lines.size(), 4u);
  // Responses arrive in request order regardless of completion order.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(JsonValue::parse(lines[i]).find("id")->as_u64(), 11u + i);
  }
  // The stats response (last) observed the earlier requests' registry use:
  // 3 workload acquires of the same signature = 1 miss + 2 hits.
  const JsonValue stats = JsonValue::parse(lines[3]);
  EXPECT_EQ(stats.find("registry")->find("misses")->as_u64(), 1u);
  EXPECT_EQ(stats.find("registry")->find("hits")->as_u64(), 2u);
}

TEST(ServeStreamTest, SessionCapKeepsLongStdioBatchFromShedding) {
  // 20 requests against a 4-deep admission queue and one dispatch thread:
  // the session's reader waits at 4 unanswered requests instead of
  // overrunning the queue, so nothing sheds.
  std::vector<std::string> batch;
  for (std::uint64_t id = 1; id <= 20; ++id) batch.push_back(line_evaluate(id));
  MappingService svc;
  ServeOptions so;
  so.queue_depth = 4;
  so.scheduler_threads = 1;
  const std::vector<std::string> responses = serve_lines(svc, batch, so);
  ASSERT_EQ(responses.size(), batch.size());
  for (std::uint64_t id = 1; id <= responses.size(); ++id) {
    const JsonValue v = JsonValue::parse(responses[id - 1]);
    EXPECT_EQ(v.find("id")->as_u64(), id);
    EXPECT_TRUE(v.find("ok")->as_bool()) << responses[id - 1];
  }
  const obs::MetricsSnapshot snap = svc.metrics().snapshot();
  const auto shed = snap.counters.find("service.sched.shed");
  EXPECT_EQ(shed == snap.counters.end() ? 0u : shed->second, 0u);
  EXPECT_EQ(snap.counters.at("service.sched.dispatched"), batch.size());
}

TEST(ServeStreamTest, UnixSocketRoundTrip) {
  const std::string path = ::testing::TempDir() + "omega_service_test.sock";
  MappingService svc;
  ServeOptions so;
  so.max_connections = 1;
  std::thread server([&] {
    try {
      serve_unix_socket(svc, path, so);
    } catch (const Error&) {
      // Surfaced through the client-side assertions below.
    }
  });
  std::optional<StreamClient> client;
  // The daemon needs a moment to bind; retry the connect briefly.
  for (int attempt = 0; attempt < 100 && !client; ++attempt) {
    try {
      client.emplace(StreamClient::connect_unix(path));
    } catch (const Error&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  std::vector<std::string> lines;
  if (client) {
    client->send_line(line_evaluate(21));
    client->send_line(line_search(22));
    client->shutdown_writes();
    while (std::optional<std::string> r = client->read_line()) {
      lines.push_back(std::move(*r));
    }
    client.reset();
  }
  server.join();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(JsonValue::parse(lines[0]).find("id")->as_u64(), 21u);
  EXPECT_TRUE(JsonValue::parse(lines[0]).find("ok")->as_bool());
  EXPECT_EQ(JsonValue::parse(lines[1]).find("id")->as_u64(), 22u);
}

// ---- Observability: v2 metrics request + stats entries ----------------------

TEST(MetricsRequestTest, MetricsRequiresVersionTwo) {
  EXPECT_THROW(parse_request(R"({"id":1,"kind":"metrics"})"),
               InvalidArgumentError);
  EXPECT_THROW(parse_request(R"({"id":1,"version":1,"kind":"metrics"})"),
               InvalidArgumentError);
  const Request r =
      parse_request(R"({"id":1,"version":2,"kind":"metrics"})");
  EXPECT_EQ(r.kind, RequestKind::kMetrics);
  EXPECT_TRUE(
      peek_request_scheduling(R"({"id":1,"version":2,"kind":"metrics"})")
          .barrier);
  EXPECT_TRUE(peek_request_scheduling(R"({"id":1,"kind":"stats"})").barrier);
  EXPECT_FALSE(peek_request_scheduling(line_evaluate(1)).barrier);
}

TEST(MetricsRequestTest, SnapshotReflectsPrecedingRequestsDeterministically) {
  MappingService svc;
  const auto responses = serve_lines(
      svc, {line_evaluate(1), line_evaluate(2),
            R"({"id":3,"version":2,"kind":"metrics"})"});
  ASSERT_EQ(responses.size(), 3u);
  const JsonValue m = JsonValue::parse(responses[2]);
  EXPECT_EQ(m.find("id")->as_u64(), 3u);
  EXPECT_TRUE(m.find("ok")->as_bool());
  EXPECT_EQ(m.find("kind")->as_string(), "metrics");
  const JsonValue* metrics = m.find("metrics");
  ASSERT_NE(metrics, nullptr);
  const JsonValue* counters = metrics->find("counters");
  ASSERT_NE(counters, nullptr);
  // The metrics barrier sees exactly the two preceding evaluates
  // (the metrics request itself is counted only after its response).
  EXPECT_EQ(counters->find("service.requests")->as_u64(), 2u);
  EXPECT_EQ(counters->find("service.requests.evaluate")->as_u64(), 2u);
  EXPECT_EQ(counters->find("service.responses.ok")->as_u64(), 2u);
  EXPECT_EQ(counters->find("registry.misses")->as_u64(), 1u);
  EXPECT_EQ(counters->find("registry.hits")->as_u64(), 1u);
  const JsonValue* gauges = metrics->find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_DOUBLE_EQ(gauges->find("registry.resident")->as_double(), 1.0);
  // Latency histograms exist but their values are wall-clock; only their
  // sample counts are request-sequence-deterministic.
  const JsonValue* hist = metrics->find("histograms");
  ASSERT_NE(hist, nullptr);
  const JsonValue* lat = hist->find("service.latency_us");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->find("count")->as_u64(), 2u);
}

TEST(MetricsRequestTest, ErrorResponsesCountAsErrors) {
  MappingService svc;
  (void)svc.handle_line(
      R"({"id":1,"kind":"evaluate","workload":{"dataset":"NoSuch"},)"
      R"("out_features":16,"pattern":"SP2"})");
  const std::string resp =
      svc.handle_line(R"({"id":2,"version":2,"kind":"metrics"})");
  const JsonValue doc = JsonValue::parse(resp);
  const JsonValue* counters = doc.find("metrics")->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->find("service.responses.error")->as_u64(), 1u);
}

TEST(StatsV2Test, EntriesAndEpochAppearOnlyInVersionTwo) {
  MappingService svc;
  const auto first = serve_lines(
      svc, {line_evaluate(1), line_evaluate(2),
            R"({"id":3,"version":2,"kind":"stats"})"});
  const JsonValue v2 = JsonValue::parse(first[2]);
  EXPECT_EQ(v2.find("epoch")->as_u64(), 1u);
  const JsonValue* entries = v2.find("entries");
  ASSERT_NE(entries, nullptr);
  ASSERT_EQ(entries->items().size(), 1u);
  const JsonValue& entry = entries->items()[0];
  // Two acquires of the same signature: one miss (hits 0) + one hit.
  EXPECT_EQ(entry.find("hits")->as_u64(), 1u);
  EXPECT_EQ(entry.find("last_hit_epoch")->as_u64(), 1u);
  EXPECT_TRUE(entry.find("warm")->as_bool());
  EXPECT_FALSE(entry.find("signature")->as_string().empty());

  // The stats barrier advanced the epoch; a later hit stamps epoch 2.
  const auto second = serve_lines(
      svc, {line_evaluate(4), R"({"id":5,"version":2,"kind":"stats"})"});
  const JsonValue again = JsonValue::parse(second[1]);
  EXPECT_EQ(again.find("epoch")->as_u64(), 2u);
  const JsonValue& e2 = again.find("entries")->items()[0];
  EXPECT_EQ(e2.find("hits")->as_u64(), 2u);
  EXPECT_EQ(e2.find("last_hit_epoch")->as_u64(), 2u);

  // v1 stats keeps the historical shape: no epoch, no entries.
  const std::string v1 = svc.handle_line(R"({"id":6,"kind":"stats"})");
  EXPECT_EQ(v1.find("\"epoch\""), std::string::npos);
  EXPECT_EQ(v1.find("\"entries\""), std::string::npos);
}

TEST(ServiceTraceTest, RequestSpansLandInTheCollector) {
  obs::TraceCollector tc;
  ServiceOptions opts;
  opts.trace = &tc;
  MappingService svc(opts);
  (void)svc.handle_line(line_evaluate(1));
  // parse + registry_lookup + evaluate + serialize for one request.
  std::vector<std::string> names;
  for (const obs::TraceEvent& e : tc.events()) {
    if (e.ph == 'X' && e.cat == "service") names.push_back(e.name);
  }
  EXPECT_NE(std::find(names.begin(), names.end(), "parse"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "registry_lookup"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "evaluate"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "serialize"), names.end());
}

}  // namespace
}  // namespace omega::service
