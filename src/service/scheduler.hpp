// Priority/deadline request scheduler of the serving core (see DESIGN.md
// "Serving core").
//
// Every transport (stdio, TCP and Unix sockets) submits each request line
// here; this is the service's one dispatch path. The scheduler is a bounded
// admission queue in front of the request handler:
//
//  * requests carry a priority band (0 = lowest .. bands-1 = highest) and an
//    optional relative deadline; dispatch picks the highest non-empty band
//    and, within a band, the earliest absolute deadline
//    (earliest-deadline-first; requests without a deadline sort last, FIFO
//    by admission order);
//  * admission is bounded: once `max_queue_depth` requests are waiting, a
//    newly submitted request is shed — unless it outranks a queued
//    lower-band request, in which case that victim is shed instead (a
//    low-priority flood can never push high-priority work out, and a full
//    queue never blocks the submitting thread);
//  * sheds are structured responses, not closed connections: the completion
//    callback fires with {"ok":false,"error":{"type":"overloaded",...}} so
//    the client can tell load shedding from a crash;
//  * a request whose deadline has already expired when a worker picks it up
//    is shed without executing (the response could only arrive late, so the
//    cycles are better spent on feasible work). `min_feasible_deadline_ms`
//    optionally sheds at admission instead.
//
// Execution happens on the scheduler's dispatch threads; each request's
// internal sweep still parallelizes on the process-wide ThreadPool, so the
// dispatch threads are cheap waiters, not a second compute pool.
//
// Determinism: dispatch order between concurrent workers is scheduling-
// dependent, but sessions re-order responses per (session, band) — see
// tcp.hpp — so client-visible bytes stay deterministic. The
// policy itself is exact and testable single-threaded through run_one(),
// and the clock is injectable so deadline sheds are reproducible in tests.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace omega::obs {
class MetricsRegistry;
}  // namespace omega::obs

namespace omega::service {

/// Scheduling metadata of one submitted request. `id`/`version` are only
/// used to shape a structured shed response; `priority` is clamped into the
/// configured band range.
struct SubmitMeta {
  std::uint64_t id = 0;
  std::uint64_t version = 0;
  std::uint64_t priority = 0;
  std::uint64_t deadline_ms = 0;  // relative to admission; 0 = none
};

enum class SubmitOutcome : std::uint8_t {
  kAdmitted = 0,
  /// Queue full and no lower-band victim to evict; the completion already
  /// fired with the overloaded response.
  kShedQueueFull = 1,
  /// Deadline below min_feasible_deadline_ms; completion already fired.
  kShedInfeasible = 2,
  /// Scheduler is draining/stopped; completion already fired.
  kShedShutdown = 3,
};

struct SchedulerOptions {
  /// Dispatch threads (0 = one per hardware thread). Each executes one
  /// request at a time; request-internal sweeps use the global ThreadPool.
  std::size_t workers = 0;
  /// Bounded admission: maximum requests waiting (excluding executing).
  std::size_t max_queue_depth = 256;
  /// Priority bands; submissions clamp into [0, bands).
  std::size_t bands = 8;
  /// Deadlines shorter than this are shed at admission (0 = disabled; the
  /// dispatch-time expiry check always applies).
  std::uint64_t min_feasible_deadline_ms = 0;
  /// Counter/gauge/histogram sink (service.sched.* namespace); may be null.
  obs::MetricsRegistry* metrics = nullptr;
  /// Monotonic microsecond clock; null = steady_clock. Injectable so tests
  /// pin deadline sheds deterministically.
  std::function<std::uint64_t()> now_us;
};

/// Bounded priority/deadline admission queue in front of a request handler.
/// Thread-safe; completions fire exactly once per submission, on a worker
/// thread (or on the submitting thread when shed at admission).
class RequestScheduler {
 public:
  /// handler(line) -> response; must not throw (MappingService::handle_line
  /// already maps failures to structured errors; a throwing handler is
  /// caught and mapped to an internal error response as a backstop).
  using Handler = std::function<std::string(const std::string&)>;
  /// completion(response, shed): `shed` is true when `response` is a
  /// scheduler-generated overloaded error (the handler never ran).
  using Completion = std::function<void(std::string, bool)>;

  RequestScheduler(Handler handler, SchedulerOptions options);
  ~RequestScheduler();
  RequestScheduler(const RequestScheduler&) = delete;
  RequestScheduler& operator=(const RequestScheduler&) = delete;

  /// Spawns the dispatch threads (no-op when options.workers resolves to a
  /// manual-drive configuration of 0 via explicit `workers = 0` + start()
  /// never called; tests drive run_one() instead).
  void start();

  /// Drains the queue (every admitted request completes or sheds), then
  /// stops and joins the dispatch threads. Submissions arriving after stop
  /// began are shed with kShedShutdown. Idempotent.
  void stop();

  /// Submits one request. Always results in exactly one completion call —
  /// either the handler's response or a structured overloaded shed.
  SubmitOutcome submit(std::string line, const SubmitMeta& meta,
                       Completion done);

  /// Pops and processes the single best queued request on the calling
  /// thread (same policy as a worker: highest band, then earliest
  /// deadline). Returns false when the queue is empty. Test hook — gives
  /// single-threaded deterministic dispatch order.
  bool run_one();

  /// Requests currently waiting (excludes executing).
  [[nodiscard]] std::size_t queue_depth() const;

  [[nodiscard]] const SchedulerOptions& options() const { return options_; }

 private:
  struct Entry {
    std::string line;
    SubmitMeta meta;
    Completion done;
    std::uint64_t admit_us = 0;
    std::uint64_t deadline_us = 0;  // absolute; UINT64_MAX = none
  };
  /// EDF order within a band: (absolute deadline, admission sequence).
  using BandQueue = std::map<std::pair<std::uint64_t, std::uint64_t>, Entry>;

  [[nodiscard]] std::uint64_t now_us() const;
  void worker_loop();
  /// Executes or deadline-sheds `e` (outside the queue lock).
  void process(Entry e);
  void shed(Entry e, const char* reason, const char* counter);
  /// Pops the policy-best entry; queue lock must be held.
  [[nodiscard]] Entry pop_best_locked();
  void update_depth_gauge_locked();

  Handler handler_;
  SchedulerOptions options_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   // workers wait for queue items
  std::condition_variable drain_cv_;  // stop() waits for depth==0 && active==0
  std::vector<BandQueue> bands_;
  std::size_t depth_ = 0;
  std::size_t active_ = 0;
  std::uint64_t next_seq_ = 0;
  bool draining_ = false;
  bool stopped_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace omega::service
