#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace omega {

std::size_t default_thread_count() noexcept {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<std::size_t>(hc);
}

namespace {

/// One fork-join dispatch. Lives on the caller's stack; workers may only
/// touch it between registering (under the pool mutex, while the job is
/// published) and signalling completion.
struct Job {
  ThreadPool::BlockFn fn = nullptr;
  void* ctx = nullptr;
  std::size_t n = 0;
  std::size_t grain = 1;
  std::size_t max_extra = 0;          // helpers beyond the caller
  std::size_t joined = 0;             // helpers admitted (pool mutex)
  std::atomic<std::size_t> cursor{0}; // next unclaimed index
  std::size_t active = 0;             // helpers still running (pool mutex)
  std::exception_ptr error;           // first failure (pool mutex)
};

void drain_job(Job& job, std::exception_ptr* error_slot, std::mutex& mutex) {
  // Claim blocks until the cursor passes n. Any participant's exception is
  // recorded once; remaining blocks still get claimed (cheaply skipped) so
  // the join cannot deadlock.
  for (;;) {
    const std::size_t begin =
        job.cursor.fetch_add(job.grain, std::memory_order_relaxed);
    if (begin >= job.n) break;
    const std::size_t end = std::min(job.n, begin + job.grain);
    try {
      job.fn(job.ctx, begin, end);
    } catch (...) {
      const std::scoped_lock lock(mutex);
      if (!*error_slot) *error_slot = std::current_exception();
    }
  }
}

}  // namespace

struct ThreadPool::Impl {
  std::mutex mutex;
  std::condition_variable work_cv;  // workers wait for a published job
  std::condition_variable done_cv;  // caller waits for helpers to drain
  Job* job = nullptr;               // currently published job (or null)
  std::uint64_t job_version = 0;
  bool stopping = false;
  std::vector<std::thread> workers;

  void worker_loop() {
    std::uint64_t seen = 0;
    std::unique_lock lock(mutex);
    for (;;) {
      work_cv.wait(lock, [&] {
        return stopping || (job != nullptr && job_version != seen &&
                            job->joined < job->max_extra);
      });
      if (stopping) return;
      Job& j = *job;
      seen = job_version;
      j.joined++;
      j.active++;
      lock.unlock();
      drain_job(j, &j.error, mutex);
      lock.lock();
      if (--j.active == 0) done_cv.notify_all();
    }
  }
};

ThreadPool::ThreadPool(std::size_t workers) : impl_(std::make_unique<Impl>()) {
  if (workers == 0) {
    workers = default_thread_count() > 1 ? default_thread_count() - 1 : 0;
  }
  impl_->workers.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::scoped_lock lock(impl_->mutex);
    impl_->stopping = true;
  }
  impl_->work_cv.notify_all();
  for (auto& w : impl_->workers) w.join();
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

std::size_t ThreadPool::worker_count() const noexcept {
  return impl_->workers.size();
}

void ThreadPool::run_blocks(std::size_t n, BlockFn fn, void* ctx,
                            std::size_t max_threads, std::size_t grain) {
  if (n == 0) return;
  std::size_t participants =
      std::min(n, max_threads == 0 ? impl_->workers.size() + 1
                                   : std::max<std::size_t>(max_threads, 1));
  if (grain == 0) {
    // Aim for several blocks per participant so dynamic claiming can absorb
    // unevenly priced iterations without per-index dispatch overhead.
    grain = std::max<std::size_t>(1, n / (participants * 8));
  }
  // A caller-provided grain can leave fewer blocks than participants
  // (e.g. n=40, grain=32 -> 2 blocks). Waking more workers than blocks
  // wastes slots: the surplus workers claim nothing but still contend on
  // the job counter and must be drained before the barrier releases.
  participants = std::min(participants, (n + grain - 1) / grain);
  if (participants <= 1 || impl_->workers.empty()) {
    fn(ctx, 0, n);
    return;
  }

  Job job;
  job.fn = fn;
  job.ctx = ctx;
  job.n = n;
  job.grain = grain;
  job.max_extra = participants - 1;

  {
    const std::scoped_lock lock(impl_->mutex);
    impl_->job = &job;
    impl_->job_version++;
  }
  impl_->work_cv.notify_all();

  drain_job(job, &job.error, impl_->mutex);

  {
    std::unique_lock lock(impl_->mutex);
    // Late wakers must not register anymore — but another caller may have
    // published its own job meanwhile (the global pool is shared), so only
    // clear our own publication.
    if (impl_->job == &job) impl_->job = nullptr;
    impl_->done_cv.wait(lock, [&] { return job.active == 0; });
    if (job.error) std::rethrow_exception(job.error);
  }
}

}  // namespace omega
