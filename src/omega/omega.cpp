#include "omega/omega.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "omega/pipeline.hpp"
#include "util/error.hpp"
#include "util/saturate.hpp"

namespace omega {

Omega::Omega(AcceleratorConfig hw, EnergyModel energy)
    : hw_(hw), energy_(energy) {
  hw_.validate();
}

std::uint64_t compose_parallel_pipeline(
    const ChunkTimeline& producer_completion,
    const ChunkTimeline& consumer_chunk_cycles, std::uint64_t consumer_start) {
  // Run-wise twin of compose_parallel_pipeline_timeline: this runs once per
  // PP candidate in sweep hot loops, on the compact timelines, never
  // expanding them. Keep the two recurrences in lockstep.
  const std::size_t n = producer_completion.size();
  if (n != consumer_chunk_cycles.size()) {
    throw InvalidArgumentError(
        "producer and consumer must agree on the chunk grid");
  }
  if (n == 0) throw InvalidArgumentError("pipeline needs >= 1 chunk");
  // Walk the segments on which both the producer's completion increment d
  // and the consumer's chunk duration c are constant. Over such a segment
  // of L chunks whose producer completions are p, p + d, ..., last, the
  // recurrence unrolls to
  //   done' = max(done + L*c, max_k (p + k*d + (L - k)*c))
  // and the inner max is linear in k, so it sits at k = 0 or k = L - 1.
  // Every term is monotone, so saturating each one equals saturating the
  // exact result, which is what the per-chunk recurrence computes.
  std::uint64_t done = consumer_start;
  std::uint64_t last = 0;  // producer completion of the last chunk walked
  std::size_t pi = 0;
  std::size_t ci = 0;
  for (std::size_t at = 0; at < n;) {
    const std::size_t p_end = producer_completion.run_end(pi);
    const std::size_t c_end = consumer_chunk_cycles.run_end(ci);
    const std::size_t end = std::min(p_end, c_end);
    const std::uint64_t len = end - at;
    const std::uint64_t d = producer_completion.run_value(pi);
    const std::uint64_t c = consumer_chunk_cycles.run_value(ci);
    const std::uint64_t p = sat_add_u64(last, d);
    last = sat_add_u64(p, sat_mul_u64(len - 1, d));
    const std::uint64_t span = sat_mul_u64(len, c);
    done = std::max({sat_add_u64(done, span), sat_add_u64(p, span),
                     sat_add_u64(last, c)});
    at = end;
    pi += end == p_end ? 1 : 0;
    ci += end == c_end ? 1 : 0;
  }
  return done;
}

std::vector<std::uint64_t> compose_parallel_pipeline_timeline(
    const std::vector<std::uint64_t>& producer_completion,
    const std::vector<std::uint64_t>& consumer_chunk_cycles,
    std::uint64_t consumer_start) {
  OMEGA_CHECK(producer_completion.size() == consumer_chunk_cycles.size(),
              "producer and consumer must agree on the chunk grid");
  OMEGA_CHECK(!producer_completion.empty(), "pipeline needs >= 1 chunk");
  std::vector<std::uint64_t> done(producer_completion.size());
  std::uint64_t cons_done = consumer_start;
  for (std::size_t i = 0; i < producer_completion.size(); ++i) {
    const std::uint64_t start = std::max(producer_completion[i], cons_done);
    cons_done = sat_add_u64(start, consumer_chunk_cycles[i]);
    done[i] = cons_done;
  }
  return done;
}

std::size_t pp_first_pes(std::size_t pes, double share) {
  return std::clamp<std::size_t>(
      static_cast<std::size_t>(std::llround(static_cast<double>(pes) * share)),
      1, pes - 1);
}

std::size_t scaled_bandwidth(std::size_t bw, std::size_t part,
                             std::size_t total) {
  if (bw == AcceleratorConfig::kUnbounded) return bw;
  const unsigned __int128 share = static_cast<unsigned __int128>(bw) * part /
                                  std::max<std::size_t>(total, 1);
  const std::size_t capped =
      share > std::numeric_limits<std::size_t>::max()
          ? std::numeric_limits<std::size_t>::max()
          : static_cast<std::size_t>(share);
  return std::max<std::size_t>(1, capped);
}

RunResult Omega::run(const GnnWorkload& workload, const LayerSpec& layer,
                     const DataflowDescriptor& df) const {
  return run_impl(workload, layer, df, nullptr);
}

RunResult Omega::run(const GnnWorkload& workload, const LayerSpec& layer,
                     const DataflowDescriptor& df,
                     const WorkloadContext& context) const {
  return run_impl(workload, layer, df, &context);
}

RunResult Omega::run_pattern(const GnnWorkload& workload,
                             const LayerSpec& layer,
                             const DataflowPattern& pattern) const {
  const DataflowDescriptor df =
      bind_tiles(pattern, dims_of(workload, layer), hw_);
  RunResult r = run(workload, layer, df);
  r.config_name = pattern.name;
  return r;
}

}  // namespace omega
