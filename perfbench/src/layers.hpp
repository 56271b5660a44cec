// Per-layer metrics of the traced replay and the single-thread kernel
// baseline, shared by the search and annotate workloads. Every per-layer
// metric is reported for every workload; layers a workload does not
// exercise read 0.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "align/batch.hpp"
#include "align/cascade.hpp"
#include "common.hpp"
#include "core/config.hpp"
#include "sim/machine_model.hpp"
#include "sparse/spgemm.hpp"

namespace perfbench {

/// The replay's tier-2 aligner: the pipeline's aligner (make_batch_aligner)
/// with its lanes sized to the host pool, so align_batch's static
/// lane split does not leave pool threads idle. Lane count changes only
/// the modeled device accounting, never results.
[[nodiscard]] pastis::align::BatchAligner replay_aligner(
    const pastis::core::PastisConfig& cfg, const pastis::sim::MachineModel& model,
    const pastis::util::ThreadPool& pool);

/// Single-thread DP throughput (align_batch with no pool) on a fixed,
/// evenly strided sample of the tier-2 tasks, in MCUPS.
struct KernelBaseline {
  double tier2_mcups_1t = 0.0;  // the configured tier-2 kernel
  double tier1_mcups_1t = 0.0;  // the fast() preset's tier-1 probe kernel
};
[[nodiscard]] KernelBaseline single_thread_kernels(
    const pastis::align::BatchAligner::SeqAccessor& seq_of,
    const std::vector<pastis::align::AlignTask>& tasks,
    const pastis::core::PastisConfig& cfg, const pastis::sim::MachineModel& model);

struct LayerMetrics {
  double kmer_build_s = 0.0;
  std::uint64_t kmer_nnz = 0;
  double transpose_s = 0.0, stripes_s = 0.0, summa_s = 0.0;
  double spgemm_s = 0.0;  // the time the SpGEMM products below took
  pastis::sparse::SpGemmStats spgemm;
  double extract_s = 0.0;
  std::uint64_t candidates = 0, kept = 0;
  pastis::align::CascadeStats cascade;
  double tier0_s = 0.0, tier1_s = 0.0, tier2_s = 0.0;
  pastis::align::BatchStats tier2;
  double filter_s = 0.0;
  std::uint64_t edges = 0;
  double graph_s = 0.0, mcl_s = 0.0;
  int mcl_iters = 0;
  std::uint64_t n_clusters = 0;
  double index_build_s = 0.0, index_save_s = 0.0, index_load_s = 0.0;
  std::uint64_t index_bytes = 0;
  double cache_hit_frac = 0.0, discover_s = 0.0, serve_align_s = 0.0;
  double add_s = 0.0, compact_s = 0.0;
  std::uint64_t compactions = 0, segments_max = 0;
  double replay_wall_s = 0.0;  // the replay's root span(s)
  double e2e_wall_s = 0.0;     // median untraced wall_s
  double traced_wall_s = 0.0;  // wall time of the whole traced replay
  double modeled_total_s = 0.0, modeled_align_share = 0.0;
  std::map<std::string, double> self_times;
  KernelBaseline kernel;
};

/// Reports every per-layer metric and prints the measured layer mix.
void set_layer_metrics(const LayerMetrics& m, Report& report);

}  // namespace perfbench
