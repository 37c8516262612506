// The benchmark's own pins: seeded inputs are byte-identical per seed, and
// the percentile rule picks the highest percentile with at least ten
// samples beyond it.
#include <gtest/gtest.h>

#include "inputs.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

TEST(Inputs, OneSeedYieldsByteIdenticalGraphs) {
  const omega::GnnWorkload a = rmat_workload(11);
  const omega::GnnWorkload b = rmat_workload(11);
  EXPECT_EQ(fingerprint(a.adjacency), fingerprint(b.adjacency));
  EXPECT_EQ(a.adjacency.edge_array(), b.adjacency.edge_array());
  EXPECT_NE(fingerprint(a.adjacency), fingerprint(rmat_workload(12).adjacency));

  const omega::GnnWorkload c = dataset_workload("Cora", kDatasetScale, 5);
  const omega::GnnWorkload d = dataset_workload("Cora", kDatasetScale, 5);
  EXPECT_EQ(fingerprint(c.adjacency), fingerprint(d.adjacency));
}

TEST(Inputs, OneSeedYieldsByteIdenticalRequestLists) {
  const ServicePlan a = service_plan(3, 3, 200);
  const ServicePlan b = service_plan(3, 3, 200);
  ASSERT_EQ(a.clients.size(), 3u);
  for (std::size_t c = 0; c < a.clients.size(); ++c) {
    ASSERT_EQ(a.clients[c].size(), 200u);
    for (std::size_t i = 0; i < a.clients[c].size(); ++i) {
      EXPECT_EQ(a.clients[c][i].line, b.clients[c][i].line);
    }
  }
  EXPECT_EQ(fingerprint(a), fingerprint(b));
  EXPECT_NE(fingerprint(a), fingerprint(service_plan(4, 3, 200)));
}

TEST(Inputs, RequestMixHoldsItsShares) {
  const ServicePlan plan = service_plan(9, 3, 400);
  std::array<std::size_t, kRequestKinds> count{};
  for (const auto& client : plan.clients) {
    for (const ServiceRequest& r : client) {
      ++count[static_cast<std::size_t>(r.kind)];
    }
  }
  EXPECT_EQ(count[0], 900u);  // 15 of 20 evaluate
  EXPECT_EQ(count[1], 120u);  // 2 of 20 pipeline evaluate
  EXPECT_EQ(count[2], 120u);  // 2 of 20 search
  EXPECT_EQ(count[3], 60u);   // 1 of 20 cold
}

TEST(PercentileRule, SamplesBeyond) {
  EXPECT_EQ(samples_beyond(20, 50.0), 10u);
  EXPECT_EQ(samples_beyond(19, 50.0), 9u);
  EXPECT_EQ(samples_beyond(100, 90.0), 10u);
  EXPECT_EQ(samples_beyond(1000, 99.0), 10u);
  EXPECT_EQ(samples_beyond(999, 99.0), 9u);
  EXPECT_EQ(samples_beyond(5, 99.0), 0u);
}

TEST(PercentileRule, PicksHighestPercentileWithTenBeyond) {
  const std::vector<double> ladder = {50.0, 90.0, 99.0, 99.9};
  EXPECT_FALSE(highest_supported_percentile(19, ladder));
  EXPECT_EQ(highest_supported_percentile(20, ladder), 50.0);
  EXPECT_EQ(highest_supported_percentile(99, ladder), 50.0);
  EXPECT_EQ(highest_supported_percentile(100, ladder), 90.0);
  EXPECT_EQ(highest_supported_percentile(999, ladder), 90.0);
  EXPECT_EQ(highest_supported_percentile(1000, ladder), 99.0);
  EXPECT_EQ(highest_supported_percentile(10000, ladder), 99.9);
}

TEST(PercentileRule, RenamesToTheHighestSupportedPercentile) {
  std::vector<double> ms(999);
  for (std::size_t i = 0; i < ms.size(); ++i) ms[i] = static_cast<double>(i);
  const auto p90 = latency_percentile("evaluate", ms, 99.0);
  ASSERT_TRUE(p90);
  EXPECT_EQ(p90->name, "evaluate_p90_ms");
  EXPECT_EQ(p90->samples, 999u);
  ms.push_back(999.0);
  EXPECT_EQ(latency_percentile("evaluate", ms, 99.0)->name, "evaluate_p99_ms");
  EXPECT_EQ(latency_percentile("evaluate", ms, 50.0)->name, "evaluate_p50_ms");
  EXPECT_FALSE(latency_percentile("search", std::vector<double>(19, 1.0), 90.0));
}

TEST(PercentileRule, SamplesNeeded) {
  EXPECT_EQ(samples_needed(50.0), 20u);
  EXPECT_EQ(samples_needed(90.0), 100u);
  EXPECT_EQ(samples_needed(99.0), 1000u);
}

}  // namespace
}  // namespace perfbench
