// Reusable stages of the discovery → alignment → filter flow.
//
// Three consumers drive the same machinery: the many-against-many pipeline
// (core/pipeline.cpp, paper Fig. 4), the query-serving engine
// (index/query_engine.cpp, the §III annotation use case) and the
// replicated-index baseline (baseline/replicated_index.cpp). The first two
// wire these leaf helpers — and the shared screen and align stage bodies,
// screen_candidates and FlatAlignPass — into executor nodes on the
// streaming blocked executor (exec/stream_pipeline.hpp), each node
// reading/writing an explicit per-slot state; the baseline calls the leaf
// helpers per replicated chunk.
// Factoring the stage logic here keeps all consumers bit-identical by
// construction — the canonical task orientation, the ANI/coverage filter
// and the modeled device-time formula are written exactly once.
#pragma once

#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "align/batch.hpp"
#include "align/cascade.hpp"
#include "core/common_kmers.hpp"
#include "core/config.hpp"
#include "dist/summa.hpp"
#include "io/graph_io.hpp"
#include "kmer/codec.hpp"
#include "kmer/nearest.hpp"
#include "sim/machine_model.hpp"
#include "sparse/spgemm.hpp"
#include "sparse/triple.hpp"

namespace pastis::core {

/// One sequence's k-mer-matrix nonzeros (Fig. 1 left): distinct k-mers at
/// their first occurrence, plus the m nearest substitute neighbours when
/// enabled (§V). Appends triples (row, k-mer code, position) to `out` and
/// returns the {exact, substitute} hit counts. Every producer of a
/// sequence-by-k-mer matrix — the pipeline's A, the index's Aᵀ_ref shards,
/// the engine's per-batch A_query — MUST go through this function: the
/// serving layer's bit-identity to the pipeline rests on the three sides
/// extracting identically.
std::pair<std::uint64_t, std::uint64_t> extract_sequence_kmers(
    std::string_view seq, sparse::Index row, const kmer::Alphabet& alphabet,
    const kmer::KmerCodec& codec, const kmer::NeighborGenerator& neighbors,
    int subs_kmers, std::vector<sparse::Triple<KmerPos>>& out);

/// The commutative combine for duplicate (sequence, k-mer) entries (an
/// exact k-mer colliding with a substitute, or two substitutes): keep the
/// smallest position. Order-independence preserves determinism.
inline void keep_min_pos(KmerPos& acc, const KmerPos& v) {
  if (v.pos < acc.pos) acc = v;
}

/// Canonical alignment task for the candidate at overlap-matrix element
/// (i, j): the alignment query is always the smaller sequence id, and the
/// seed pair follows the element's orientation. Keeping this in one place
/// is what makes alignment results identical across schemes, blockings and
/// serving paths (pipeline header comment; paper's reproducibility claim).
[[nodiscard]] inline align::AlignTask canonical_task(sparse::Index i,
                                                     sparse::Index j,
                                                     const CommonKmers& ck) {
  align::AlignTask t;
  if (i < j) {
    t.q_id = i;
    t.r_id = j;
    t.seed_q = ck.first.pos_a;
    t.seed_r = ck.first.pos_b;
  } else {
    t.q_id = j;
    t.r_id = i;
    t.seed_q = ck.first.pos_b;
    t.seed_r = ck.first.pos_a;
  }
  return t;
}

/// The up-to-two seed pairs the overlap semiring carries for element
/// (i, j) — CommonKmers::first/last, the lexicographic min and max —
/// rewritten into the canonical task orientation (query = smaller id, the
/// same rule as canonical_task). Returns the number of distinct seeds
/// written to `out` (1 when first == last). These are the seeds the
/// cascade's tier-0 diagonal-bucketed ungapped extension screens over.
[[nodiscard]] inline int canonical_seeds(sparse::Index i, sparse::Index j,
                                         const CommonKmers& ck,
                                         align::Seed out[2]) {
  const bool fwd = i < j;
  out[0] = fwd ? align::Seed{ck.first.pos_a, ck.first.pos_b}
               : align::Seed{ck.first.pos_b, ck.first.pos_a};
  if (ck.last.pos_a == ck.first.pos_a && ck.last.pos_b == ck.first.pos_b) {
    return 1;
  }
  out[1] = fwd ? align::Seed{ck.last.pos_a, ck.last.pos_b}
               : align::Seed{ck.last.pos_b, ck.last.pos_a};
  return 2;
}

/// One extracted candidate staged for the cascade screens. The {discover,
/// screen, align} stage graphs (pipeline blocks, serving batches) keep
/// per-slot vectors of these between the extraction pass and the tier
/// passes, so each tier runs as its own traced pass and tier-k of item b
/// can overlap tier-(k+1) of item b-1 on the streaming executor.
struct ScreenCandidate {
  align::AlignTask task;
  std::uint32_t count = 0;        // shared-k-mer count of the pair
  int n_seeds = 0;                // valid entries in `seeds`
  align::Seed seeds[2];           // canonical-orientation min/max seeds
  int sketch_overlap = -1;        // minhash slot agreement; -1 = no sketch
};

/// The cascade's screen stage, shared by the block loop and serving. Each
/// enabled tier is its own pass over every rank's candidate list, run on
/// `pool` (serially when it is null) under a cascade.tier<k> span whose
/// pairs_in/pairs_out args count the candidates across ranks; a pass
/// compacts `cands[r]` in place. Afterwards `stats[r]` holds rank r's
/// per-tier work and the survivors' tasks are appended to `tasks[r]` in
/// candidate order. With every tier off all candidates survive and the
/// stats stay zero.
void screen_candidates(std::vector<std::vector<ScreenCandidate>>& cands,
                       std::vector<std::vector<align::AlignTask>>& tasks,
                       std::vector<align::CascadeStats>& stats,
                       const align::BatchAligner::SeqAccessor& seq_of,
                       const align::BatchAligner& aligner,
                       const align::CascadeOptions& opt,
                       const obs::Telemetry& telemetry,
                       util::ThreadPool* pool);

/// The align stage's host execution, shared by the block loop and serving:
/// run() flattens every rank's tasks into ONE BatchAligner::align_tasks
/// call, so a skewed rank never idles host cores, and each rank's slice is
/// handed back for the caller's own filtering and device-model charging.
/// An executor slot keeps one pass, so its buffers keep their capacity
/// across the items the slot serves.
class FlatAlignPass {
 public:
  void run(const std::vector<std::vector<align::AlignTask>>& rank_tasks,
           const align::BatchAligner::SeqAccessor& seq_of,
           const align::BatchAligner& aligner, util::ThreadPool* pool);

  /// Tasks aligned by the last run(), over all ranks.
  [[nodiscard]] std::size_t size() const { return tasks_.size(); }
  /// Rank r's results, positionally parallel to its task list.
  [[nodiscard]] std::span<const align::AlignResult> results(int r) const;
  /// Device-model accounting of rank r's slice (BatchAligner::stats_for
  /// on the pass's rank-r lane scratch); callers may run distinct ranks
  /// concurrently.
  [[nodiscard]] align::BatchStats rank_stats(
      int r, const align::BatchAligner::SeqAccessor& seq_of,
      const align::BatchAligner& aligner);

 private:
  std::vector<align::AlignTask> tasks_;
  std::vector<std::size_t> offset_;  // rank r owns [offset_[r], offset_[r+1])
  std::vector<align::AlignResult> results_;
  std::vector<align::LaneScratch> scratch_;  // per rank
};

/// Adds one block/batch's cascade totals to the metrics registry:
/// cascade.tier{0,1}.{pairs_in,pairs_out,rejects}_total plus the measured
/// screen-cell totals. No-op without a metrics sink.
void add_cascade_counters(const obs::Telemetry& telemetry,
                          const align::CascadeStats& cs);

/// Modeled seconds of the cascade screens over one block/batch: tier 0 is a
/// host-side streaming scan over its diagonal cells (charged like the other
/// sparse extraction passes, 4 bytes per scanned cell: two residue loads
/// plus the score-table lookup), tier 1 is DP work on the node's balanced
/// accelerators. Returns {tier0_seconds, tier1_seconds}; callers charge
/// them to Comp::kSparseOther and Comp::kAlign respectively so the
/// simulated grid sees both the screen cost and the tier-2 work reduction.
[[nodiscard]] std::pair<double, double> modeled_screen_seconds(
    const sim::MachineModel& model, const align::CascadeStats& cs);

/// The ADEPT device aligner configured from the search parameters and the
/// machine's accelerator constants (one construction for both consumers).
[[nodiscard]] align::BatchAligner make_batch_aligner(
    const PastisConfig& cfg, const sim::MachineModel& model);

/// Local candidate-discovery SpGEMM configured from the search parameters
/// (kernel choice + two-phase threading knob in one place). Every local
/// discovery multiply — the engine's shard products, the baselines, ad-hoc
/// tools — should dispatch through here so a config change reaches all of
/// them.
template <sparse::SemiringLike SR>
[[nodiscard]] sparse::SpMat<typename SR::value_type> discovery_spgemm(
    const sparse::SpMat<typename SR::left_type>& a,
    const sparse::SpMat<typename SR::right_type>& b, const PastisConfig& cfg,
    sparse::SpGemmStats* stats = nullptr, util::ThreadPool* pool = nullptr) {
  return sparse::spgemm<SR>(a, b, cfg.spgemm_kernel, stats, pool,
                            cfg.spgemm_threads, cfg.telemetry);
}

/// SUMMA options for candidate discovery (the distributed analogue of
/// discovery_spgemm): kernel choice and threading knob configured once for
/// the pipeline's block loop and any other SUMMA consumer.
[[nodiscard]] dist::SummaOptions discovery_summa_options(
    const PastisConfig& cfg, util::ThreadPool* pool);

/// The similarity edge for an aligned pair, or nullopt if it fails the
/// ANI/coverage thresholds (Table IV: 0.30 / 0.70).
[[nodiscard]] std::optional<io::SimilarityEdge> edge_if_similar(
    const align::AlignTask& task, const align::AlignResult& result,
    std::size_t len_q, std::size_t len_r, const PastisConfig& cfg);

/// Pure device-kernel seconds for `cells` DP updates spread over the node's
/// balanced accelerators — the CUPS denominator (§VII).
[[nodiscard]] double balanced_kernel_seconds(const sim::MachineModel& model,
                                             std::uint64_t cells);

/// Modeled device seconds for a batch of `pairs` alignments whose DP work
/// is `bstats` — kernel time on balanced devices, per-launch latency and
/// host packing, dilated by `dilation` (the §VI-C pre-blocking contention).
[[nodiscard]] double modeled_align_seconds(const sim::MachineModel& model,
                                           const align::BatchStats& bstats,
                                           std::size_t pairs, double dilation);

}  // namespace pastis::core
