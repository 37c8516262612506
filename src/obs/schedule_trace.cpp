#include "obs/schedule_trace.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "omega/omega.hpp"
#include "util/saturate.hpp"

namespace omega::obs {

namespace {

struct Slice {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

/// Emits a phase's chunk slices, coalescing consecutive chunks into runs
/// when the grid exceeds the cap (so million-chunk grids stay loadable).
void emit_chunks(const std::vector<Slice>& slices, std::uint32_t pid,
                 std::uint32_t tid, std::size_t cap, TraceCollector& out) {
  const std::size_t m = slices.size();
  if (m == 0 || cap == 0) return;
  const std::size_t group = (m + cap - 1) / cap;
  for (std::size_t a = 0; a < m; a += group) {
    const std::size_t b = std::min(a + group, m);
    std::uint64_t begin = slices[a].begin;
    std::uint64_t end = slices[a].end;
    for (std::size_t j = a + 1; j < b; ++j) {
      begin = std::min(begin, slices[j].begin);
      end = std::max(end, slices[j].end);
    }
    TraceEvent e;
    e.name = b - a == 1 ? "chunk " + std::to_string(a)
                        : "chunks " + std::to_string(a) + "-" +
                              std::to_string(b - 1);
    e.cat = "chunk";
    e.ts_us = begin;
    e.dur_us = end - begin;
    e.pid = pid;
    e.tid = tid;
    e.args_u64.emplace_back("chunks", static_cast<std::uint64_t>(b - a));
    out.add(std::move(e));
  }
}

}  // namespace

void export_pipeline_trace(const PipelineResult& result, TraceCollector& out,
                           const ScheduleTraceOptions& options) {
  const std::size_t n = result.phases.size();
  const std::uint32_t pid = options.pid;
  out.name_process(pid, "omega.pipeline");
  out.name_thread(pid, 0, "pipeline");
  for (std::size_t i = 0; i < n; ++i) {
    out.name_thread(pid, static_cast<std::uint32_t>(1 + i),
                    result.phases[i].name);
  }
  if (!result.boundaries.empty()) {
    out.name_thread(pid, static_cast<std::uint32_t>(1 + n), "boundaries");
  }

  {
    TraceEvent total;
    total.name = "pipeline";
    total.cat = "pipeline";
    total.ts_us = 0;
    total.dur_us = result.cycles;
    total.pid = pid;
    total.tid = 0;
    total.args_u64.emplace_back("cycles", result.cycles);
    total.args_u64.emplace_back("phases", static_cast<std::uint64_t>(n));
    out.add(std::move(total));
  }

  // The exporter renders one slice per chunk, so it expands every phase's
  // compact timelines once up front.
  std::vector<std::vector<std::uint64_t>> chunk_cycles(n);
  std::vector<std::vector<std::uint64_t>> chunk_completion(n);
  for (std::size_t i = 0; i < n; ++i) {
    chunk_cycles[i] = result.phases[i].result.chunk_cycles.expand();
    chunk_completion[i] = result.phases[i].result.chunk_completion.expand();
  }

  // Replay the engine's composition walk to place each phase on the global
  // clock: serialized segments advance the cursor; an overlapped PP pair
  // runs the consumer recurrence against the producer's chunk completions
  // (Omega::run_pipeline composes cycles with exactly this rule).
  std::vector<std::uint64_t> start(n, 0);
  std::vector<std::uint64_t> finish(n, 0);
  // For overlapped consumers: completion timeline relative to the pair
  // segment start, and that segment start itself.
  std::vector<std::vector<std::uint64_t>> overlap_done(n);
  std::vector<std::uint64_t> overlap_base(n, 0);
  std::uint64_t cursor = 0;
  for (std::size_t i = 0; i < n;) {
    const PhaseResult& pr = result.phases[i].result;
    const bool overlapped = i + 1 < n && result.boundaries[i].overlapped &&
                            !chunk_completion[i].empty() &&
                            !chunk_cycles[i + 1].empty();
    if (overlapped) {
      start[i] = cursor;
      finish[i] = sat_add_u64(cursor, pr.cycles);
      const std::vector<std::uint64_t> done =
          compose_parallel_pipeline_timeline(chunk_completion[i],
                                             chunk_cycles[i + 1]);
      overlap_done[i + 1] = done;
      overlap_base[i + 1] = cursor;
      start[i + 1] =
          sat_add_u64(cursor, done.front() - chunk_cycles[i + 1].front());
      finish[i + 1] = sat_add_u64(cursor, done.back());
      cursor = finish[i + 1];
      i += 2;
    } else {
      start[i] = cursor;
      finish[i] = sat_add_u64(cursor, pr.cycles);
      cursor = finish[i];
      i += 1;
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    const PhaseOutcome& po = result.phases[i];
    TraceEvent pe;
    pe.name = po.name;
    pe.cat = "phase";
    pe.ts_us = start[i];
    pe.dur_us = finish[i] - start[i];
    pe.pid = pid;
    pe.tid = static_cast<std::uint32_t>(1 + i);
    pe.args_u64.emplace_back("pes", static_cast<std::uint64_t>(po.pes));
    pe.args_u64.emplace_back("cycles", po.result.cycles);
    pe.args_u64.emplace_back("macs", po.result.macs);
    pe.args_str.emplace_back("engine", to_string(po.engine));
    out.add(std::move(pe));

    // Chunk slices: an overlapped consumer renders its composed timeline
    // (dependency stalls included); everything else renders the phase's own
    // chunk completion profile relative to its start.
    const std::vector<std::uint64_t>& cycles = chunk_cycles[i];
    const std::vector<std::uint64_t>& completion = chunk_completion[i];
    std::vector<Slice> slices;
    if (!overlap_done[i].empty()) {
      const std::vector<std::uint64_t>& done = overlap_done[i];
      slices.reserve(done.size());
      for (std::size_t j = 0; j < done.size(); ++j) {
        const std::uint64_t end = sat_add_u64(overlap_base[i], done[j]);
        slices.push_back({end - cycles[j], end});
      }
    } else if (completion.size() == cycles.size()) {
      slices.reserve(completion.size());
      for (std::size_t j = 0; j < completion.size(); ++j) {
        const std::uint64_t end = sat_add_u64(start[i], completion[j]);
        slices.push_back({end - cycles[j], end});
      }
    }
    emit_chunks(slices, pid, static_cast<std::uint32_t>(1 + i),
                options.max_chunk_events, out);
  }

  for (std::size_t b = 0; b < result.boundaries.size(); ++b) {
    const BoundaryOutcome& bo = result.boundaries[b];
    TraceEvent be;
    be.name = result.phases[b].name + "->" + result.phases[b + 1].name +
              " (" + to_string(bo.inter) + ")";
    be.cat = "boundary";
    be.pid = pid;
    be.tid = static_cast<std::uint32_t>(1 + n);
    if (bo.overlapped && finish[b] > start[b + 1]) {
      // The overlap window: producer still filling while the consumer runs.
      be.ts_us = start[b + 1];
      be.dur_us = finish[b] - start[b + 1];
    } else {
      be.ts_us = finish[b];  // serialized handoff point
      be.dur_us = 0;
    }
    be.args_u64.emplace_back("chunks",
                             static_cast<std::uint64_t>(bo.pipeline_chunks));
    be.args_u64.emplace_back(
        "pipeline_elements", static_cast<std::uint64_t>(bo.pipeline_elements));
    be.args_u64.emplace_back("buffer_elements",
                             static_cast<std::uint64_t>(bo.buffer_elements));
    be.args_str.emplace_back("granularity", to_string(bo.granularity));
    if (bo.spilled) be.args_str.emplace_back("spilled", "true");
    out.add(std::move(be));
  }
}

}  // namespace omega::obs
