// Shared-memory parallelism for design-space sweeps (the cost model itself
// is deterministic and single-threaded per evaluation, so evaluations across
// mappings are embarrassingly parallel).
//
// The primitive is a persistent ThreadPool with fork-join block dispatch:
// workers are spawned once per process and jobs hand each participant
// (begin, end) ranges through a raw function pointer + context, so the hot
// sweep loop pays no thread spawn and no std::function call per iteration.
// This is plain std::thread rather than OpenMP so the library builds with no
// extra toolchain flags.
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>

namespace omega {

/// Number of worker threads a default-constructed pool dispatch will use:
/// hardware_concurrency, clamped to at least 1.
[[nodiscard]] std::size_t default_thread_count() noexcept;

/// Persistent fork-join pool. Workers sleep on a condition variable between
/// jobs; a job partitions [0, n) into blocks claimed dynamically through an
/// atomic cursor, which keeps unevenly priced iterations (e.g. scatter vs
/// gather dataflow candidates) load-balanced. The calling thread always
/// participates, so a pool with W workers serves up to W+1 participants.
class ThreadPool {
 public:
  /// Raw block callback: fn(ctx, begin, end). No allocation per dispatch.
  using BlockFn = void (*)(void* ctx, std::size_t begin, std::size_t end);

  /// Spawns `workers` threads (0 = default_thread_count() - 1, so that pool
  /// workers plus the caller saturate the machine).
  explicit ThreadPool(std::size_t workers = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Process-wide pool, started lazily on first use.
  [[nodiscard]] static ThreadPool& global();

  [[nodiscard]] std::size_t worker_count() const noexcept;

  /// Runs fn(ctx, begin, end) over disjoint blocks covering [0, n) on up to
  /// `max_threads` participants (0 = all; the caller counts as one and always
  /// participates). `grain` is the block length (0 = auto). Blocks are
  /// claimed dynamically; the first exception is rethrown on the caller once
  /// every participant has drained.
  void run_blocks(std::size_t n, BlockFn fn, void* ctx,
                  std::size_t max_threads = 0, std::size_t grain = 0);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Dispatches body(begin, end) blocks of [0, n) on the global pool without
/// allocating: the callable is passed by reference through a function
/// pointer. Blocks together cover every index exactly once; n = 0 calls
/// nothing. The first exception thrown by `body` is rethrown on the caller.
template <typename Body>
void parallel_blocks(std::size_t n, Body&& body, std::size_t threads = 0,
                     std::size_t grain = 0) {
  using Fn = std::remove_reference_t<Body>;
  ThreadPool::global().run_blocks(
      n,
      [](void* ctx, std::size_t begin, std::size_t end) {
        (*static_cast<Fn*>(ctx))(begin, end);
      },
      const_cast<std::remove_const_t<Fn>*>(std::addressof(body)), threads,
      grain);
}

}  // namespace omega
