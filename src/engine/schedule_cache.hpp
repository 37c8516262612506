// Evaluation-reuse layer for design-space sweeps.
//
// Every `search_mappings` candidate used to pay O(V) or O(E) work that is
// identical across thousands of candidates: scatter-order candidates
// re-transposed the CSR adjacency, and every candidate rebuilt the lane
// schedule from the degree profile. A WorkloadContext memoizes both per
// workload so a sweep pays them once:
//
//  * the reverse adjacency comes from CSRGraph::shared_transposed(), cached
//    inside the graph itself and shared by every scatter candidate;
//  * lane schedules are keyed by (walk direction, lanes, lane_width) only —
//    the feature-tile multiplier c_f scales every schedule quantity
//    linearly, so all F-tilings of one (V, N) tiling hit one cache entry
//    (see LaneSchedule);
//  * each schedule stores the prefix max of per-row finish steps, so the
//    row-major pipeline chunk timeline reads one value per row block
//    instead of rescanning all V rows per candidate;
//  * complete PhaseResults are memoized by the config's EvalTermKey
//    (engine/phase_result.hpp, built by the engines' term_key) — the
//    search's agg x cmb tiling cross product re-simulates the same phase
//    config once per partner tiling, so a sweep of C candidates runs far
//    fewer than 2C phase simulations. simulate_phase (omega/pipeline.hpp)
//    is the memo's one caller.
//
// All methods are const and thread-safe; one context is shared by every
// thread of a sweep. See DESIGN.md "WorkloadContext caching contract".
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/phase_result.hpp"
#include "graph/csr.hpp"

namespace omega {

/// Phase results with chunk grids beyond this size are evaluated without
/// the memo (see big_grid in omega/pipeline.hpp).
inline constexpr std::size_t kPhaseMemoMaxChunks = 2048;

/// Ceiling on distinct phase-result memo entries per context. A sweep's
/// working set stays far below this; the ceiling exists for long-lived
/// contexts (the mapping service pins one per resident workload) that see
/// requests across many substrates — past it, new configs evaluate
/// uncached instead of growing the memo without bound.
inline constexpr std::size_t kPhaseMemoMaxEntries = 65536;

/// Round-robin lane schedule over the walked rows. Spatially mapped rows do
/// NOT advance in lockstep: each lane walks its own rows asynchronously and
/// the phase finishes when the slowest lane drains. A row whose length
/// exceeds its lane's fair share serializes that lane — the paper's "evil
/// row" effect, which is what punishes extremely high T_V on skewed graphs
/// while leaving moderate T_V efficient (Section V-B1).
///
/// Stored for a feature-tile multiplier of 1: a row's work is
/// trips * c_f, and lane cumulative sums are linear in it, so the engine
/// scales critical_path / total_steps / row finishes by c_f at use sites.
/// This is exact (not an approximation): multiplying every summand of a
/// cumulative sum by c_f multiplies every partial sum by c_f.
struct LaneSchedule {
  std::uint64_t critical_path = 0;  // max lane work, in steps
  std::uint64_t total_steps = 0;    // sum of all row steps
  /// Prefix max of the per-row completion steps: entry r is the step by
  /// which rows 0..r have all finished.
  std::vector<std::uint64_t> row_finish_prefix;
};

/// Builds the schedule for `lanes` round-robin lanes of width `lane_width`
/// over the rows of `walk` (forward adjacency for gather orders, reverse
/// adjacency for scatter orders).
[[nodiscard]] LaneSchedule build_lane_schedule(const CSRGraph& walk,
                                               std::size_t lanes,
                                               std::size_t lane_width);

/// Interface the context uses to hold evaluation plans without depending on
/// the eval core (engine/eval_core.hpp: the concrete PipelineEvalPlan
/// factors a candidate evaluation into one phase term per chain position
/// and memoizes the terms in its TermStore). The counters feed the service
/// `stats` response and the search observability — every one of them is
/// deterministic for a given request sequence (term builds happen once per
/// distinct key, and the set of evaluated candidates is
/// thread-count-invariant).
class EvalPlanBase {
 public:
  virtual ~EvalPlanBase() = default;
  /// Distinct phase terms resident in the plan's TermStore.
  [[nodiscard]] virtual std::size_t term_count() const = 0;
  /// Term lookups served (one per phase of a feasible candidate, up to the
  /// first infeasible phase).
  [[nodiscard]] virtual std::uint64_t term_requests() const = 0;
  /// Term lookups that had to run a phase simulation (memo misses).
  [[nodiscard]] virtual std::uint64_t term_builds() const = 0;
  /// Bytes of big-grid term timelines resident in the plan's term store
  /// (only the timelines composition reads, in run bytes). NOT
  /// deterministic near the admission budget (which candidate's timeline
  /// wins admission at saturation depends on thread schedule), so this
  /// feeds metrics/CLI output only — never goldened responses.
  [[nodiscard]] virtual std::size_t term_timeline_bytes() const = 0;
};

/// Aggregated per-context plan counters; see WorkloadContext::eval_stats.
struct ContextEvalStats {
  std::uint64_t plans = 0;          // distinct (substrate, layer) plans
  std::uint64_t terms = 0;          // resident terms across all plans
  std::uint64_t term_requests = 0;
  std::uint64_t term_builds = 0;
  /// Sum of term_timeline_bytes (resident big-grid timeline bytes);
  /// deterministic only below the timeline admission budget — excluded from
  /// goldened stats responses.
  std::uint64_t term_bytes = 0;
};

/// Per-workload memo shared by all candidates of a sweep. Construct once per
/// (graph, sweep) and pass to Omega::run; candidates that share a walk
/// direction and (lanes, lane_width) reuse one schedule, and all scatter
/// candidates share one transpose.
class WorkloadContext {
 public:
  explicit WorkloadContext(const CSRGraph& adjacency);

  [[nodiscard]] const CSRGraph& graph() const noexcept { return *adjacency_; }

  /// Reverse adjacency (lazily computed, cached in the graph itself).
  [[nodiscard]] const CSRGraph& reverse_graph() const;

  /// Memoized schedule for the given walk. `gather` selects the forward
  /// (true) or reverse (false) adjacency.
  [[nodiscard]] std::shared_ptr<const LaneSchedule> lane_schedule(
      bool gather, std::size_t lanes, std::size_t lane_width) const;

  /// Number of distinct schedules built so far (observability / tests).
  [[nodiscard]] std::size_t schedule_cache_size() const;

  /// Memoized full phase simulation. `key` is the config's term_key
  /// (everything that determines the PhaseResult except the graph, which is
  /// this context's); `build` runs at most once per key. Concurrent misses
  /// on different keys build in parallel; a throwing build memoizes the
  /// exception and rethrows it on every call — same observable Error as the
  /// uncached path (builds are deterministic per key), built only once.
  /// simulate_phase (omega/pipeline.hpp) is the only caller: it keeps
  /// big-grid configs (past kPhaseMemoMaxChunks) and sparse-weight phases
  /// out — giant grids are near-unique across candidates, and caching their
  /// multi-megabyte timelines trades memory (gigabytes over a long sweep)
  /// for hits that never come. Small-grid terms an eval plan builds land
  /// here too, besides the plan's TermStore (folding the two memos into one
  /// is a deferred step).
  [[nodiscard]] std::shared_ptr<const PhaseResult> phase_result(
      const EvalTermKey& key, const std::function<PhaseResult()>& build) const;

  /// Number of distinct phase simulations memoized so far.
  [[nodiscard]] std::size_t phase_cache_size() const;

  /// Builds that bypassed the memo because kPhaseMemoMaxEntries was
  /// reached (observability for long-lived service contexts).
  [[nodiscard]] std::size_t phase_memo_overflow() const;

  /// Memoized evaluation plan. `signature` captures everything the plan
  /// depends on besides the graph (substrate + energy model + chain — see
  /// PipelineEvalPlan::obtain); `build` runs at most once per
  /// signature. Same once-entry discipline as phase_result: concurrent
  /// misses on different signatures build in parallel.
  [[nodiscard]] std::shared_ptr<EvalPlanBase> eval_plan(
      const std::string& signature,
      const std::function<std::shared_ptr<EvalPlanBase>()>& build) const;

  /// Number of distinct plans resident (observability / tests).
  [[nodiscard]] std::size_t eval_plan_count() const;

  /// Counter aggregate over the resident plans (service `stats` response).
  [[nodiscard]] ContextEvalStats eval_stats() const;

 private:
  struct Key {
    bool gather;
    std::size_t lanes;
    std::size_t lane_width;
    [[nodiscard]] bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    [[nodiscard]] std::size_t operator()(const Key& k) const noexcept {
      std::size_t h = k.gather ? 0x9e3779b97f4a7c15ull : 0x2545f4914f6cdd1dull;
      h ^= k.lanes + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
      h ^= k.lane_width + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
      return h;
    }
  };
  /// Map values are once-entries so a cache miss builds outside the map
  /// lock: concurrent misses on different keys proceed in parallel, and
  /// concurrent misses on the same key build exactly once.
  struct Entry {
    std::once_flag once;
    std::exception_ptr error;
    std::shared_ptr<const LaneSchedule> schedule;
  };
  struct PhaseEntry {
    std::once_flag once;
    std::exception_ptr error;
    std::shared_ptr<const PhaseResult> result;
  };
  struct PlanEntry {
    std::once_flag once;
    std::exception_ptr error;
    std::shared_ptr<EvalPlanBase> plan;
  };

  const CSRGraph* adjacency_;
  mutable std::shared_ptr<const CSRGraph> reverse_;  // pinned on first use
  mutable std::once_flag reverse_once_;
  mutable std::exception_ptr reverse_error_;
  mutable std::mutex mutex_;
  mutable std::unordered_map<Key, std::shared_ptr<Entry>, KeyHash> schedules_;
  mutable std::unordered_map<EvalTermKey, std::shared_ptr<PhaseEntry>,
                             EvalTermKeyHash>
      phase_results_;
  mutable std::unordered_map<std::string, std::shared_ptr<PlanEntry>>
      eval_plans_;
  mutable std::size_t phase_memo_overflow_ = 0;  // guarded by mutex_
};

}  // namespace omega
