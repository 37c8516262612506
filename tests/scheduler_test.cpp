// Request-scheduler tests: EDF-within-band dispatch order, priority bands
// (a low-priority flood never starves the high band), deterministic
// deadline shedding through the injectable clock, bounded admission with
// victim eviction, structured overloaded responses, exactly-once
// completions, and drain-on-stop. The policy is driven single-threaded via
// run_one() where order matters; the threaded paths are exercised for
// liveness and completion accounting (and run under TSan in CI).
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "service/protocol.hpp"
#include "service/scheduler.hpp"
#include "util/json.hpp"

namespace omega::service {
namespace {

/// Handler that records dispatch order and echoes the line back.
struct RecordingHandler {
  std::mutex mu;
  std::vector<std::string> dispatched;

  RequestScheduler::Handler fn() {
    return [this](const std::string& line) {
      const std::scoped_lock lock(mu);
      dispatched.push_back(line);
      return "handled:" + line;
    };
  }
};

// Completion callbacks capture the collection vector by reference, so in
// every test it is declared BEFORE the scheduler: the scheduler's
// destructor sheds whatever is still queued, and those completions must
// land in live storage.
struct CollectedResponse {
  std::string response;
  bool shed = false;
};

RequestScheduler::Completion collect(std::vector<CollectedResponse>& out,
                                     std::mutex& mu) {
  return [&out, &mu](std::string response, bool shed) {
    const std::scoped_lock lock(mu);
    out.push_back({std::move(response), shed});
  };
}

SubmitMeta meta_of(std::uint64_t id, std::uint64_t priority,
                   std::uint64_t deadline_ms = 0) {
  SubmitMeta m;
  m.id = id;
  m.version = 2;
  m.priority = priority;
  m.deadline_ms = deadline_ms;
  return m;
}

/// Shed responses are structured protocol errors, not dropped requests.
void expect_overloaded(const CollectedResponse& r, std::uint64_t id) {
  EXPECT_TRUE(r.shed);
  const JsonValue root = JsonValue::parse(r.response);
  EXPECT_EQ(root.find("id")->as_u64(), id);
  EXPECT_FALSE(root.find("ok")->as_bool());
  EXPECT_EQ(root.find("error")->find("type")->as_string(), "overloaded");
}

TEST(SchedulerTest, DispatchesHighestBandFirst) {
  RecordingHandler handler;
  SchedulerOptions opts;
  opts.now_us = [] { return std::uint64_t{0}; };
  std::mutex mu;
  std::vector<CollectedResponse> responses;
  RequestScheduler sched(handler.fn(), opts);
  (void)sched.submit("low-a", meta_of(1, 0), collect(responses, mu));
  (void)sched.submit("high", meta_of(2, 7), collect(responses, mu));
  (void)sched.submit("mid", meta_of(3, 3), collect(responses, mu));
  (void)sched.submit("low-b", meta_of(4, 0), collect(responses, mu));

  while (sched.run_one()) {
  }
  const std::vector<std::string> want = {"high", "mid", "low-a", "low-b"};
  EXPECT_EQ(handler.dispatched, want);
  EXPECT_EQ(responses.size(), 4u);
}

TEST(SchedulerTest, EarliestDeadlineFirstWithinBand) {
  RecordingHandler handler;
  SchedulerOptions opts;
  opts.now_us = [] { return std::uint64_t{0}; };
  std::mutex mu;
  std::vector<CollectedResponse> responses;
  RequestScheduler sched(handler.fn(), opts);
  // Same band: the later-submitted tighter deadline dispatches first;
  // no-deadline requests sort last, FIFO between themselves.
  (void)sched.submit("no-deadline-a", meta_of(1, 2), collect(responses, mu));
  (void)sched.submit("loose", meta_of(2, 2, 500), collect(responses, mu));
  (void)sched.submit("tight", meta_of(3, 2, 50), collect(responses, mu));
  (void)sched.submit("no-deadline-b", meta_of(4, 2), collect(responses, mu));

  while (sched.run_one()) {
  }
  const std::vector<std::string> want = {"tight", "loose", "no-deadline-a",
                                         "no-deadline-b"};
  EXPECT_EQ(handler.dispatched, want);
}

TEST(SchedulerTest, LowPriorityFloodNeverStarvesHighBand) {
  RecordingHandler handler;
  SchedulerOptions opts;
  opts.now_us = [] { return std::uint64_t{0}; };
  std::mutex mu;
  std::vector<CollectedResponse> responses;
  RequestScheduler sched(handler.fn(), opts);
  for (int i = 0; i < 64; ++i) {
    (void)sched.submit("flood-" + std::to_string(i), meta_of(100 + i, 0),
                       collect(responses, mu));
  }
  for (int i = 0; i < 4; ++i) {
    (void)sched.submit("urgent-" + std::to_string(i), meta_of(200 + i, 7),
                       collect(responses, mu));
  }
  // Every high-band request dispatches before any of the queued flood.
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(sched.run_one());
  const std::vector<std::string> want = {"urgent-0", "urgent-1", "urgent-2",
                                         "urgent-3"};
  EXPECT_EQ(handler.dispatched, want);
  while (sched.run_one()) {
  }
  EXPECT_EQ(handler.dispatched.size(), 68u);
}

TEST(SchedulerTest, DeadlineExpiredBeforeDispatchIsShedDeterministically) {
  RecordingHandler handler;
  std::uint64_t fake_now_us = 0;
  SchedulerOptions opts;
  opts.now_us = [&fake_now_us] { return fake_now_us; };
  std::mutex mu;
  std::vector<CollectedResponse> responses;
  RequestScheduler sched(handler.fn(), opts);
  (void)sched.submit("expiring", meta_of(11, 0, 10), collect(responses, mu));
  (void)sched.submit("surviving", meta_of(12, 0, 1000),
                     collect(responses, mu));
  fake_now_us = 10 * 1000;  // exactly at the first deadline: expired
  while (sched.run_one()) {
  }
  // The expired request never reached the handler; the survivor did.
  const std::vector<std::string> want = {"surviving"};
  EXPECT_EQ(handler.dispatched, want);
  ASSERT_EQ(responses.size(), 2u);
  expect_overloaded(responses[0], 11);
  EXPECT_FALSE(responses[1].shed);
}

TEST(SchedulerTest, InfeasibleDeadlineShedsAtAdmission) {
  RecordingHandler handler;
  SchedulerOptions opts;
  opts.now_us = [] { return std::uint64_t{0}; };
  opts.min_feasible_deadline_ms = 20;
  std::mutex mu;
  std::vector<CollectedResponse> responses;
  RequestScheduler sched(handler.fn(), opts);
  EXPECT_EQ(sched.submit("hopeless", meta_of(21, 0, 5),
                         collect(responses, mu)),
            SubmitOutcome::kShedInfeasible);
  EXPECT_EQ(sched.submit("feasible", meta_of(22, 0, 20),
                         collect(responses, mu)),
            SubmitOutcome::kAdmitted);
  EXPECT_EQ(sched.submit("no-deadline", meta_of(23, 0),
                         collect(responses, mu)),
            SubmitOutcome::kAdmitted);
  ASSERT_GE(responses.size(), 1u);
  expect_overloaded(responses[0], 21);
  while (sched.run_one()) {
  }
  EXPECT_EQ(responses.size(), 3u);
}

TEST(SchedulerTest, FullQueueShedsIncomingAtSameOrLowerPriority) {
  RecordingHandler handler;
  SchedulerOptions opts;
  opts.now_us = [] { return std::uint64_t{0}; };
  opts.max_queue_depth = 2;
  std::mutex mu;
  std::vector<CollectedResponse> responses;
  RequestScheduler sched(handler.fn(), opts);
  EXPECT_EQ(sched.submit("a", meta_of(1, 3), collect(responses, mu)),
            SubmitOutcome::kAdmitted);
  EXPECT_EQ(sched.submit("b", meta_of(2, 3), collect(responses, mu)),
            SubmitOutcome::kAdmitted);
  // Same band: no victim below it, the incoming request sheds.
  EXPECT_EQ(sched.submit("c", meta_of(3, 3), collect(responses, mu)),
            SubmitOutcome::kShedQueueFull);
  ASSERT_EQ(responses.size(), 1u);
  expect_overloaded(responses[0], 3);
  EXPECT_EQ(sched.queue_depth(), 2u);
}

TEST(SchedulerTest, FullQueueEvictsLowerBandVictimForHigherPriority) {
  RecordingHandler handler;
  SchedulerOptions opts;
  opts.now_us = [] { return std::uint64_t{0}; };
  opts.max_queue_depth = 2;
  std::mutex mu;
  std::vector<CollectedResponse> responses;
  RequestScheduler sched(handler.fn(), opts);
  (void)sched.submit("low-old", meta_of(1, 0), collect(responses, mu));
  (void)sched.submit("low-new", meta_of(2, 0), collect(responses, mu));
  // Higher band outranks the queued flood: the newest lowest-band entry is
  // shed, the urgent request is admitted.
  EXPECT_EQ(sched.submit("urgent", meta_of(3, 7), collect(responses, mu)),
            SubmitOutcome::kAdmitted);
  ASSERT_EQ(responses.size(), 1u);
  expect_overloaded(responses[0], 2);
  EXPECT_EQ(sched.queue_depth(), 2u);
  while (sched.run_one()) {
  }
  const std::vector<std::string> want = {"urgent", "low-old"};
  EXPECT_EQ(handler.dispatched, want);
}

TEST(SchedulerTest, ShedResponseEchoesVersion) {
  RecordingHandler handler;
  SchedulerOptions opts;
  opts.now_us = [] { return std::uint64_t{0}; };
  opts.max_queue_depth = 1;
  std::mutex mu;
  std::vector<CollectedResponse> responses;
  RequestScheduler sched(handler.fn(), opts);
  (void)sched.submit("a", meta_of(1, 0), collect(responses, mu));
  (void)sched.submit("b", meta_of(9, 0), collect(responses, mu));
  ASSERT_EQ(responses.size(), 1u);
  const JsonValue root = JsonValue::parse(responses[0].response);
  EXPECT_EQ(root.find("version")->as_u64(), 2u);
}

TEST(SchedulerTest, ThreadedFloodCompletesEveryRequestExactlyOnce) {
  std::atomic<int> handled{0};
  SchedulerOptions opts;
  opts.workers = 4;
  opts.max_queue_depth = 16;  // small: forces sheds under the flood
  RequestScheduler sched(
      [&handled](const std::string&) {
        handled.fetch_add(1);
        return std::string("{\"ok\":true}");
      },
      opts);
  sched.start();

  std::mutex mu;
  std::vector<CollectedResponse> responses;
  constexpr int kFlood = 200;
  for (int i = 0; i < kFlood; ++i) {
    std::string id = "r";  // not "r" + to_string(i): GCC 12 -Wrestrict
    id += std::to_string(i);
    (void)sched.submit(std::move(id),
                       meta_of(static_cast<std::uint64_t>(i), i % 2 == 0 ? 0 : 5),
                       collect(responses, mu));
  }
  sched.stop();  // drains: every admitted request completes
  EXPECT_EQ(responses.size(), static_cast<std::size_t>(kFlood));
  int sheds = 0;
  for (const CollectedResponse& r : responses) {
    if (r.shed) ++sheds;
  }
  EXPECT_EQ(handled.load(), kFlood - sheds);
}

TEST(SchedulerTest, StopShedsQueuedWorkInManualMode) {
  RecordingHandler handler;
  SchedulerOptions opts;
  opts.now_us = [] { return std::uint64_t{0}; };
  std::mutex mu;
  std::vector<CollectedResponse> responses;
  RequestScheduler sched(handler.fn(), opts);
  (void)sched.submit("queued", meta_of(5, 0), collect(responses, mu));
  sched.stop();  // no workers were started: queued work sheds, not hangs
  ASSERT_EQ(responses.size(), 1u);
  expect_overloaded(responses[0], 5);
  // Submissions after stop shed too.
  EXPECT_EQ(sched.submit("late", meta_of(6, 0), collect(responses, mu)),
            SubmitOutcome::kShedShutdown);
  ASSERT_EQ(responses.size(), 2u);
  expect_overloaded(responses[1], 6);
}

TEST(SchedulerTest, EmitsQueueAndShedMetrics) {
  obs::MetricsRegistry metrics;
  RecordingHandler handler;
  SchedulerOptions opts;
  opts.now_us = [] { return std::uint64_t{0}; };
  opts.max_queue_depth = 1;
  opts.metrics = &metrics;
  std::mutex mu;
  std::vector<CollectedResponse> responses;
  RequestScheduler sched(handler.fn(), opts);
  (void)sched.submit("a", meta_of(1, 4), collect(responses, mu));
  (void)sched.submit("b", meta_of(2, 4), collect(responses, mu));  // shed
  while (sched.run_one()) {
  }
  const obs::MetricsSnapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.counters.at("service.sched.submitted"), 2u);
  EXPECT_EQ(snap.counters.at("service.sched.dispatched"), 1u);
  EXPECT_EQ(snap.counters.at("service.sched.shed"), 1u);
  EXPECT_EQ(snap.counters.at("service.sched.shed.queue_full"), 1u);
  // Per-band latency histogram of the dispatched request's band.
  EXPECT_EQ(snap.histograms.count("service.sched.latency_us.band4"), 1u);
}

}  // namespace
}  // namespace omega::service
