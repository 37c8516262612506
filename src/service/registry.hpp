// Warmed workload registry of the mapping service.
//
// Graph synthesis (or .mtx parsing) plus WorkloadContext warm-up dominate
// the cost of a one-shot evaluation — the engine math is microseconds while
// synthesis is milliseconds. The registry amortizes that across requests:
// workloads are keyed by WorkloadRef::signature() and held in an LRU-bounded
// cache together with their warmed context, so every request after the first
// pays only the engine math. Entries are handed out as shared_ptr: an
// eviction never invalidates a request that is still computing against the
// entry, it only drops the cache's own reference.
#pragma once

#include <cstdint>
#include <exception>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/schedule_cache.hpp"
#include "service/protocol.hpp"

namespace omega::service {

/// One resident workload: the synthesized/loaded graph plus its warmed
/// evaluation-reuse context. The context points into `workload.adjacency`,
/// so the pair lives and dies together (heap-pinned, never moved).
struct WorkloadEntry {
  explicit WorkloadEntry(GnnWorkload w)
      : workload(std::move(w)), context(workload.adjacency) {
    // Pre-warm the reverse adjacency: scatter-order candidates are part of
    // every search sweep, and warming here keeps the first request's
    // threads from racing to build it.
    (void)context.reverse_graph();
  }
  WorkloadEntry(const WorkloadEntry&) = delete;
  WorkloadEntry& operator=(const WorkloadEntry&) = delete;

  GnnWorkload workload;
  WorkloadContext context;
};

struct RegistryStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t resident = 0;
  std::size_t capacity = 0;
};

/// Per-resident-entry observability row (v2 stats response / CLI). Hit
/// counts are deterministic for a given request sequence; last_hit_epoch is
/// quantized to the registry's stats-barrier epoch (see advance_epoch), so
/// it too is thread-schedule-invariant.
struct RegistryEntryStats {
  std::string signature;
  std::uint64_t hits = 0;            // acquires served by this entry
  std::uint64_t last_hit_epoch = 0;  // epoch of the most recent acquire
  bool warm = false;                 // build completed (vs. mid-build)
};

/// Thread-safe LRU cache of WorkloadEntry keyed by workload signature.
/// Capacity 0 disables caching entirely (every acquire builds fresh) — the
/// service benchmark uses that as its cold baseline.
class WorkloadRegistry {
 public:
  explicit WorkloadRegistry(std::size_t capacity = 8);

  /// Returns the resident entry for `ref`, building (and caching) it on a
  /// miss. Concurrent misses on the same signature build once; concurrent
  /// misses on different signatures build in parallel. A build failure
  /// (unknown dataset, unreadable .mtx) propagates to every waiter of that
  /// acquire and caches nothing, so transient failures retry.
  [[nodiscard]] std::shared_ptr<const WorkloadEntry> acquire(
      const WorkloadRef& ref);

  [[nodiscard]] RegistryStats stats() const;

  /// Evaluation-core counters summed over the resident entries' contexts
  /// (plans / terms / term requests / term builds — all deterministic for a
  /// given request sequence; see EvalPlanBase). Entries still mid-build
  /// contribute nothing yet.
  [[nodiscard]] ContextEvalStats eval_stats() const;

  /// Per-entry rows, signature-sorted (deterministic emission order).
  [[nodiscard]] std::vector<RegistryEntryStats> entry_stats() const;

  /// Acquire-recency epoch. Starts at 1 and advances only at barrier
  /// requests (the service calls advance_epoch after serving a stats or
  /// metrics request, which each session dispatches alone, after its
  /// earlier requests emit) — every acquire between two barriers stamps
  /// the same epoch regardless of thread schedule.
  [[nodiscard]] std::uint64_t epoch() const;
  void advance_epoch();

 private:
  struct Slot {
    std::once_flag once;
    std::exception_ptr error;
    std::shared_ptr<const WorkloadEntry> entry;
  };

  /// Builds the workload named by `ref` (synthesis or .mtx load).
  [[nodiscard]] static GnnWorkload build_workload(const WorkloadRef& ref);

  std::size_t capacity_;
  mutable std::mutex mutex_;
  /// MRU-first recency list; map values point into it.
  std::list<std::string> recency_;
  struct MapEntry {
    std::shared_ptr<Slot> slot;
    std::list<std::string>::iterator lru;
    std::uint64_t hits = 0;            // acquires served by this entry
    std::uint64_t last_hit_epoch = 0;  // epoch_ at the most recent acquire
  };
  std::unordered_map<std::string, MapEntry> entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t epoch_ = 1;  // advanced only at stats barriers
};

}  // namespace omega::service
