// Seeded inputs of the layer benchmark. Everything a workload feeds the
// library — graphs, chains, request lists — is a pure function of the
// --seed argument, so one seed reproduces the same inputs byte for byte.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dse/pipeline_search.hpp"
#include "graph/datasets.hpp"

namespace perfbench {

// dse-sweep-rmat16: a two-phase GCN layer on an R-MAT graph.
inline constexpr std::size_t kSweepScale = 16;
inline constexpr std::size_t kSweepEdgeBudget = 524288;
inline constexpr std::size_t kSweepInFeatures = 64;
inline constexpr std::size_t kSweepCap = 8192;

// dse-budget-cora and the service: budgeted searches on Table IV datasets.
inline constexpr std::size_t kSearchBudget = 96;
inline constexpr double kDatasetScale = 0.5;

/// R-MAT scale-16 adjacency with self-loops and GCN normalization, F = 64.
[[nodiscard]] omega::GnnWorkload rmat_workload(std::uint64_t seed);

/// A Table IV dataset synthesized at `scale` with `seed`.
[[nodiscard]] omega::GnnWorkload dataset_workload(const std::string& name,
                                                  double scale,
                                                  std::uint64_t seed);

/// spmm -> gemm(G=16): the classic AC layer (legacy enumerator).
[[nodiscard]] omega::PipelineChainSpec classic_ac_chain();
/// gemm(G=16) -> spmm: the classic CA layer (legacy enumerator).
[[nodiscard]] omega::PipelineChainSpec classic_ca_chain();
/// gemm(16) -> spmm -> spgemm(G=8, d=0.5): a GAT layer (ChainWalker).
[[nodiscard]] omega::PipelineChainSpec gat_chain();

/// One search call: the chains it spans and its options.
struct SearchSpec {
  std::string label;
  std::vector<omega::PipelineChainSpec> chains;
  omega::PipelineSearchOptions options;
};
/// The dse-sweep-rmat16 search: AC + CA chains, runtime, cap 8192, Table V
/// seeds on.
[[nodiscard]] SearchSpec sweep_search();
/// The dse-budget-cora rotation: classic (runtime) then GAT (EDP, prune),
/// budget 96 each.
[[nodiscard]] std::vector<SearchSpec> budget_rotation();

/// Feasible bindings of a search over `chains` with `options`, as the
/// search evaluated them: the stride sample of the concatenated chain
/// populations at `options.max_candidates` (plus the Table V seeds when
/// enabled), ranked best first. Goes through search_pipeline_mappings so a
/// chain's population is never materialized whole (the GAT chain on Cora
/// has 5.47M candidates).
[[nodiscard]] std::vector<omega::PipelineCandidate> evaluated_bindings(
    const omega::Omega& omega, const omega::GnnWorkload& w,
    const std::vector<omega::PipelineChainSpec>& chains,
    omega::PipelineSearchOptions options);

/// Request kinds of the service mix.
enum class RequestKind : std::uint8_t {
  kEvaluate = 0,      // v1 evaluate of a distinct bound descriptor + tiles
  kPipelineEval = 1,  // v2 evaluate of a bound GAT pipeline
  kSearch = 2,        // v2 search_pipeline, budget 96
  kCold = 3,          // v1 evaluate on a cold (never-resident) workload
};
inline constexpr std::size_t kRequestKinds = 4;
[[nodiscard]] const char* to_string(RequestKind k);

struct ServiceRequest {
  RequestKind kind = RequestKind::kEvaluate;
  std::string line;  // one NDJSON request line
};

/// The service workload's inputs. Ids are unique across every list.
struct ServicePlan {
  std::vector<std::string> hot_datasets;  // resident workloads
  std::vector<std::string> warmup;        // one evaluate per hot workload
  std::vector<std::string> cold_search;   // first searches of a fresh daemon
  std::vector<std::vector<ServiceRequest>> clients;
};

/// Hot workloads: Cora, Citeseer and Proteins at scale 0.5 with the run
/// seed. Each client list repeats blocks of 20 requests in a seeded order:
/// 15 evaluate, 2 pipeline evaluate, 2 search, 1 cold.
[[nodiscard]] ServicePlan service_plan(std::uint64_t seed,
                                       std::size_t clients,
                                       std::size_t per_client);

/// FNV-1a fingerprints, for the determinism tests.
[[nodiscard]] std::uint64_t fingerprint(const omega::CSRGraph& g);
[[nodiscard]] std::uint64_t fingerprint(const ServicePlan& plan);

}  // namespace perfbench
