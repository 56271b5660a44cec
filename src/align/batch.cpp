#include "align/batch.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <stdexcept>
#include <string>

#include "align/sw_lanes.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace pastis::align {

AlignResult BatchAligner::run_full_sw(std::string_view q, std::string_view r,
                                      const AlignTask&) const {
  return smith_waterman(q, r, scoring_);
}

AlignResult BatchAligner::run_banded(std::string_view q, std::string_view r,
                                     const AlignTask& task) const {
  const int diag =
      static_cast<int>(task.seed_r) - static_cast<int>(task.seed_q);
  return banded_smith_waterman(q, r, scoring_, diag, config_.band_half_width);
}

AlignResult BatchAligner::run_xdrop(std::string_view q, std::string_view r,
                                    const AlignTask& task) const {
  return xdrop_extend(q, r, task.seed_q, task.seed_r, config_.seed_len,
                      scoring_, config_.xdrop);
}

const BatchAligner::KernelFn BatchAligner::kKernelTable[3] = {
    &BatchAligner::run_full_sw,  // AlignKind::kFullSW
    &BatchAligner::run_banded,   // AlignKind::kBanded
    &BatchAligner::run_xdrop,    // AlignKind::kXDrop
};

AlignResult BatchAligner::align_pair(std::string_view q, std::string_view r,
                                     const AlignTask& task,
                                     AlignKind kind) const {
  return (this->*kKernelTable[static_cast<int>(kind)])(q, r, task);
}

void BatchAligner::assign_lanes(const SeqAccessor& seq_of,
                                std::span<const AlignTask> tasks,
                                LaneScratch& scratch) const {
  const int devices = std::max(1, config_.devices);
  scratch.lanes.assign(tasks.size(), 0);
  scratch.load.assign(static_cast<std::size_t>(devices), 0);
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    int best = 0;
    for (int d = 1; d < devices; ++d) {
      if (scratch.load[static_cast<std::size_t>(d)] <
          scratch.load[static_cast<std::size_t>(best)]) {
        best = d;
      }
    }
    scratch.lanes[t] = best;
    scratch.load[static_cast<std::size_t>(best)] +=
        static_cast<std::uint64_t>(seq_of(tasks[t].q_id).size()) *
        static_cast<std::uint64_t>(seq_of(tasks[t].r_id).size());
  }
}

BatchStats BatchAligner::stats_for(const SeqAccessor& seq_of,
                                   std::span<const AlignTask> tasks,
                                   std::span<const AlignResult> results,
                                   LaneScratch& scratch) const {
  assign_lanes(seq_of, tasks, scratch);
  const auto& lanes = scratch.lanes;
  auto& device_cells = scratch.device_cells;
  auto& device_pairs = scratch.device_pairs;
  const int devices = std::max(1, config_.devices);
  device_cells.assign(static_cast<std::size_t>(devices), 0);
  device_pairs.assign(static_cast<std::size_t>(devices), 0);
  BatchStats stats;
  for (std::size_t t = 0; t < results.size(); ++t) {
    const int lane = lanes[t];
    device_cells[lane] += results[t].cells;
    ++device_pairs[lane];
    stats.cells += results[t].cells;
    stats.h2d_bytes += seq_of(tasks[t].q_id).size() +
                       seq_of(tasks[t].r_id).size();
  }
  std::uint64_t max_cells = 0, max_pairs = 0;
  for (int d = 0; d < devices; ++d) {
    max_cells = std::max(max_cells, device_cells[d]);
    max_pairs = std::max(max_pairs, device_pairs[d]);
  }
  stats.pairs = results.size();
  stats.kernel_seconds =
      static_cast<double>(max_cells) / config_.cups_per_device;
  stats.packing_seconds =
      static_cast<double>(max_pairs) * config_.pack_seconds_per_pair;
  if (config_.telemetry.metrics != nullptr) {
    auto& m = *config_.telemetry.metrics;
    m.counter("align.pairs_total").add(static_cast<double>(stats.pairs));
    m.counter("align.cells_total").add(static_cast<double>(stats.cells));
    for (int d = 0; d < devices; ++d) {
      const std::string lane = "align.lane" + std::to_string(d);
      m.counter(lane + ".cells_total")
          .add(static_cast<double>(device_cells[static_cast<std::size_t>(d)]));
      m.counter(lane + ".pairs_total")
          .add(static_cast<double>(device_pairs[static_cast<std::size_t>(d)]));
      // The Fig. 7 presentation of per-device balance, one sample per lane
      // per batch.
      m.min_avg_max("align.lane_cells")
          .add(static_cast<double>(device_cells[static_cast<std::size_t>(d)]));
    }
  }
  return stats;
}

void BatchAligner::align_tasks(const SeqAccessor& seq_of,
                               std::span<const AlignTask> tasks,
                               std::span<AlignResult> results,
                               util::ThreadPool* pool) const {
  if (results.size() != tasks.size()) {
    throw std::invalid_argument("align_tasks: results and tasks differ in size");
  }
  // Lane groups: full-SW pairs that fit the lanes' packing, sorted so each
  // group's padded m x n box wastes few cells — by query length, then by
  // reference length within windows of kGroupWindow groups (about 84% of a
  // box is real cells on the benchmark's metagenome set, against 70% with
  // one lexicographic sort). Work items are the per-pair tasks (the rare
  // over-long pairs first, for balance) and then the groups, largest first.
  constexpr std::size_t kGroupWindow = 8;
  const std::size_t w =
      config_.kind == AlignKind::kFullSW ? sw_lane_width() : 0;
  struct Sized {
    std::uint32_t m, n, t;
  };
  std::vector<Sized> grouped;
  std::vector<std::uint32_t> single;
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    const auto ti = static_cast<std::uint32_t>(t);
    const std::size_t m = seq_of(tasks[t].q_id).size();
    const std::size_t n = seq_of(tasks[t].r_id).size();
    if (w > 0 && sw_lanes_fit(m, n)) {
      grouped.push_back({static_cast<std::uint32_t>(m),
                         static_cast<std::uint32_t>(n), ti});
    } else {
      single.push_back(ti);
    }
  }
  std::sort(grouped.begin(), grouped.end(), [](const Sized& a, const Sized& b) {
    return a.m != b.m ? a.m > b.m : a.t < b.t;
  });
  for (std::size_t k = 0; w > 0 && k < grouped.size(); k += kGroupWindow * w) {
    const auto end = grouped.begin() +
                     static_cast<std::ptrdiff_t>(
                         std::min(grouped.size(), k + kGroupWindow * w));
    std::sort(grouped.begin() + static_cast<std::ptrdiff_t>(k), end,
              [](const Sized& a, const Sized& b) {
                return a.n != b.n ? a.n > b.n : a.t < b.t;
              });
  }
  if (w > 0 && grouped.size() % w != 0 && (grouped.size() % w) * 4 < w) {
    for (std::size_t k = grouped.size() / w * w; k < grouped.size(); ++k) {
      single.push_back(grouped[k].t);
    }
    grouped.resize(grouped.size() / w * w);
  }
  const std::size_t n_groups = w > 0 ? (grouped.size() + w - 1) / w : 0;

  auto run = [&](std::size_t item) {
    if (item < single.size()) {
      const AlignTask& task = tasks[single[item]];
      results[single[item]] =
          align_pair(seq_of(task.q_id), seq_of(task.r_id), task, config_.kind);
      return;
    }
    const std::size_t g0 = (item - single.size()) * w;
    const std::size_t len = std::min(w, grouped.size() - g0);
    std::array<std::string_view, kMaxSwLanes> q, r;
    std::array<AlignResult, kMaxSwLanes> out;
    for (std::size_t k = 0; k < len; ++k) {
      q[k] = seq_of(tasks[grouped[g0 + k].t].q_id);
      r[k] = seq_of(tasks[grouped[g0 + k].t].r_id);
    }
    smith_waterman_lanes(std::span(q.data(), len), std::span(r.data(), len),
                         scoring_, std::span(out.data(), len));
    for (std::size_t k = 0; k < len; ++k) results[grouped[g0 + k].t] = out[k];
  };
  const std::size_t items = single.size() + n_groups;
  util::parallel_for(pool, items, run);
}

std::span<const AlignResult> BatchAligner::align_batch(
    const SeqAccessor& seq_of, std::span<const AlignTask> tasks,
    AlignWorkspace& ws, BatchStats* stats, util::ThreadPool* pool) const {
  ws.results.assign(tasks.size(), AlignResult{});
  const obs::Telemetry& telem = config_.telemetry;
  {
    obs::Span span(telem.tracer, "align.batch");
    span.arg("pairs", static_cast<double>(tasks.size()));
    const auto t0 = std::chrono::steady_clock::now();
    align_tasks(seq_of, tasks, ws.results, pool);
    if (telem.metrics != nullptr) {
      const double s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
      std::uint64_t cells = 0;
      for (const AlignResult& res : ws.results) cells += res.cells;
      if (s > 0.0 && cells > 0) {
        // Measured host DP throughput of the whole batch.
        telem.metrics
            ->histogram("align.batch_cells_per_second",
                        std::array{1e6, 1e7, 1e8, 1e9, 1e10, 1e11})
            .observe(static_cast<double>(cells) / s);
      }
    }
  }

  if (stats != nullptr) {
    stats->merge(stats_for(seq_of, tasks, ws.results, ws.lanes));
  }
  return ws.results;
}

std::vector<AlignResult> BatchAligner::align_batch(
    const SeqAccessor& seq_of, std::span<const AlignTask> tasks,
    BatchStats* stats, util::ThreadPool* pool) const {
  AlignWorkspace ws;
  align_batch(seq_of, tasks, ws, stats, pool);
  return std::move(ws.results);
}

}  // namespace pastis::align
