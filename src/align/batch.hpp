// Batch pairwise aligner modelled on ADEPT [Awan et al., BMC Bioinformatics
// 2020], the GPU library the paper dedicates Summit's V100s to.
//
// ADEPT's driver detects the node's GPUs and splits a batch of alignments
// across them. We keep that split as accounting: `devices` logical
// accelerators, each assigned a DP-size-balanced slice of the batch, whose
// modeled time (cells / GCUPS) is how every paper-facing number stays
// hardware-independent. Alignment *results* are computed exactly on the
// host, by one flattened entry point (align_tasks) that packs full
// Smith-Waterman pairs onto SIMD lanes and spreads the lane groups over the
// host pool; the device split does not shape host execution.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string_view>
#include <vector>

#include "align/banded.hpp"
#include "align/smith_waterman.hpp"
#include "align/xdrop.hpp"
#include "obs/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace pastis::align {

enum class AlignKind { kFullSW, kBanded, kXDrop };

/// One pairwise alignment request. Seeds come from the overlap matrix's
/// CommonKmers payload and are only consulted by the banded/x-drop kernels.
struct AlignTask {
  std::uint32_t q_id = 0;
  std::uint32_t r_id = 0;
  std::uint32_t seed_q = 0;
  std::uint32_t seed_r = 0;
};

/// Work/time accounting for one or more batches.
struct BatchStats {
  std::uint64_t pairs = 0;
  std::uint64_t cells = 0;          // DP cells updated
  double kernel_seconds = 0.0;      // modeled device kernel time (max device)
  double packing_seconds = 0.0;     // modeled host pack/transfer time
  std::uint64_t h2d_bytes = 0;      // sequence bytes shipped to devices

  void merge(const BatchStats& o) {
    pairs += o.pairs;
    cells += o.cells;
    kernel_seconds += o.kernel_seconds;
    packing_seconds += o.packing_seconds;
    h2d_bytes += o.h2d_bytes;
  }
};

/// Reusable lane-assignment buffers (one per rank, or per executor slot).
/// The aligner itself is immutable and re-entrant; all mutable per-batch
/// state lives in these scratch objects, so the streaming executor keeps
/// one per in-flight slot instead of allocating per call.
struct LaneScratch {
  std::vector<int> lanes;
  std::vector<std::uint64_t> load;          // per device: Σ |q|·|r| proxy
  std::vector<std::uint64_t> device_cells;  // stats_for accumulators
  std::vector<std::uint64_t> device_pairs;
};

/// Reusable whole-batch buffers for one executor slot: the flattened
/// result array plus lane scratch for batch-granular calls.
struct AlignWorkspace {
  std::vector<AlignResult> results;
  LaneScratch lanes;
};

class BatchAligner {
 public:
  struct Config {
    AlignKind kind = AlignKind::kFullSW;
    /// Logical accelerators per node (Summit: 6 V100s).
    int devices = 6;
    /// Sustained cell updates per second per device. Default calibrated so
    /// a 3364-node run peaks near the paper's 176.3 TCUPS
    /// (176.3e12 / 3364 nodes / 6 GPUs ≈ 8.7e9).
    double cups_per_device = 8.7e9;
    /// Host-side packing/transfer cost per pair (driver threads).
    double pack_seconds_per_pair = 2.0e-7;
    int band_half_width = 32;
    int xdrop = 25;
    std::uint32_t seed_len = 6;
    /// Telemetry sinks (null = off). With metrics, every accounted batch
    /// adds per-device cells/pairs counters ("align.lane<d>.cells_total"),
    /// batch totals, and one measured host cells/second sample per
    /// align_batch call ("align.batch_cells_per_second"); with a tracer,
    /// each batch run is a measured span. Results are unaffected.
    obs::Telemetry telemetry;
  };

  BatchAligner(Scoring scoring, Config config)
      : scoring_(std::move(scoring)), config_(config) {}

  /// Resolves sequence residues for a global sequence id.
  using SeqAccessor = std::function<std::string_view(std::uint32_t)>;

  /// Aligns every task through align_tasks (on `pool` when non-null,
  /// otherwise inline in the calling thread) and, with `stats`, adds the
  /// batch's device-model accounting. Results are positionally parallel to
  /// `tasks` and independent of the execution mode.
  std::vector<AlignResult> align_batch(const SeqAccessor& seq_of,
                                       std::span<const AlignTask> tasks,
                                       BatchStats* stats = nullptr,
                                       util::ThreadPool* pool = nullptr) const;

  /// Workspace variant of align_batch for re-entrant streaming use: results
  /// land in `ws.results` (capacity reused across calls) and the returned
  /// span views them. Element-wise identical to align_batch.
  std::span<const AlignResult> align_batch(const SeqAccessor& seq_of,
                                           std::span<const AlignTask> tasks,
                                           AlignWorkspace& ws,
                                           BatchStats* stats = nullptr,
                                           util::ThreadPool* pool = nullptr) const;

  /// The host execution of every batch path: aligns tasks[t] into
  /// results[t] (equal sizes), element-wise identical to align_one_task.
  /// With the full Smith-Waterman kind, tasks are sorted by size into
  /// groups of sw_lane_width() pairs that each run as one SIMD lane pass
  /// (smith_waterman_lanes); the groups run across `pool`, or inline when it
  /// is null. Other kinds, a last group under a quarter full, and hosts
  /// without a vector body take the per-pair kernels. The pipeline and
  /// the query engine flatten all ranks' tasks into one call and keep the
  /// per-rank accounting exact with stats_for.
  void align_tasks(const SeqAccessor& seq_of, std::span<const AlignTask> tasks,
                   std::span<AlignResult> results,
                   util::ThreadPool* pool) const;

  /// Aligns a single task on the scalar kernels (element-wise identical to
  /// align_tasks).
  [[nodiscard]] AlignResult align_one_task(const SeqAccessor& seq_of,
                                           const AlignTask& task) const {
    return align_pair(seq_of(task.q_id), seq_of(task.r_id), task,
                      config_.kind);
  }

  /// One pair through the table-driven kernel dispatch with an explicit
  /// kind. This is the cascade tiers' entry point: tier 1 probes with a
  /// cheap kind (banded / x-drop), tier 2 re-runs the configured kind —
  /// all sharing the same scoring, band and x-drop knobs as the batch
  /// paths.
  [[nodiscard]] AlignResult align_pair(std::string_view q, std::string_view r,
                                       const AlignTask& task,
                                       AlignKind kind) const;

  /// Device-model accounting for a batch whose results are already known:
  /// assigns the tasks to `config.devices` modeled devices (assign_lanes)
  /// and charges each device its cells, reusing `scratch`'s buffers so the
  /// re-entrant stage paths allocate nothing per batch.
  [[nodiscard]] BatchStats stats_for(const SeqAccessor& seq_of,
                                     std::span<const AlignTask> tasks,
                                     std::span<const AlignResult> results,
                                     LaneScratch& scratch) const;

  /// Deterministic device assignment into `scratch.lanes`: tasks go to the
  /// least-loaded device by the DP-size proxy |q|*|r| (the ADEPT driver
  /// balances its per-GPU batches; plain round-robin quantizes badly when
  /// batches are small).
  void assign_lanes(const SeqAccessor& seq_of, std::span<const AlignTask> tasks,
                    LaneScratch& scratch) const;

  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] const Scoring& scoring() const { return scoring_; }

 private:
  /// One kernel entry per AlignKind, indexed by the enum value — the single
  /// dispatch point shared by every batch path and every cascade tier.
  using KernelFn = AlignResult (BatchAligner::*)(std::string_view,
                                                 std::string_view,
                                                 const AlignTask&) const;
  static const KernelFn kKernelTable[3];
  [[nodiscard]] AlignResult run_full_sw(std::string_view q, std::string_view r,
                                        const AlignTask& task) const;
  [[nodiscard]] AlignResult run_banded(std::string_view q, std::string_view r,
                                       const AlignTask& task) const;
  [[nodiscard]] AlignResult run_xdrop(std::string_view q, std::string_view r,
                                      const AlignTask& task) const;

  Scoring scoring_;
  Config config_;
};

}  // namespace pastis::align
