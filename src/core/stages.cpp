#include "core/stages.hpp"

#include <algorithm>
#include <string>

#include "kmer/extract.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace pastis::core {

std::pair<std::uint64_t, std::uint64_t> extract_sequence_kmers(
    std::string_view seq, sparse::Index row, const kmer::Alphabet& alphabet,
    const kmer::KmerCodec& codec, const kmer::NeighborGenerator& neighbors,
    int subs_kmers, std::vector<sparse::Triple<KmerPos>>& out) {
  const auto hits = kmer::extract_distinct_kmers(seq, alphabet, codec);
  out.reserve(out.size() +
              hits.size() * (1 + static_cast<std::size_t>(subs_kmers)));
  std::uint64_t n_subs = 0;
  for (const auto& h : hits) {
    out.push_back({row, static_cast<sparse::Index>(h.code), KmerPos{h.pos}});
    if (subs_kmers > 0) {
      for (const auto& nb :
           neighbors.nearest(h.code, static_cast<std::size_t>(subs_kmers))) {
        out.push_back(
            {row, static_cast<sparse::Index>(nb.code), KmerPos{h.pos}});
        ++n_subs;
      }
    }
  }
  return {hits.size(), n_subs};
}

dist::SummaOptions discovery_summa_options(const PastisConfig& cfg,
                                           util::ThreadPool* pool) {
  dist::SummaOptions opt;
  opt.kernel = cfg.spgemm_kernel;
  opt.pool = pool;
  opt.spgemm_threads = cfg.spgemm_threads;
  opt.charge = sim::Comp::kSpGemm;
  opt.merge_charge = sim::Comp::kSpGemm;  // stage-merge is part of the multiply
  return opt;
}

align::BatchAligner make_batch_aligner(const PastisConfig& cfg,
                                       const sim::MachineModel& model) {
  align::BatchAligner::Config bcfg;
  bcfg.kind = cfg.align_kind;
  bcfg.devices = model.gpus_per_node;
  bcfg.cups_per_device = model.cups_per_gpu;
  bcfg.pack_seconds_per_pair = model.pack_s_per_pair;
  bcfg.band_half_width = cfg.band_half_width;
  bcfg.xdrop = cfg.xdrop;
  bcfg.seed_len = static_cast<std::uint32_t>(cfg.k);
  bcfg.telemetry = cfg.telemetry;
  return {cfg.make_scoring(), bcfg};
}

std::optional<io::SimilarityEdge> edge_if_similar(
    const align::AlignTask& task, const align::AlignResult& result,
    std::size_t len_q, std::size_t len_r, const PastisConfig& cfg) {
  const double ani = result.identity();
  const double cov = result.coverage(len_q, len_r);
  if (ani < cfg.ani_threshold || cov < cfg.cov_threshold) return std::nullopt;
  return io::SimilarityEdge{task.q_id, task.r_id, static_cast<float>(ani),
                            static_cast<float>(cov), result.score};
}

void screen_candidates(std::vector<std::vector<ScreenCandidate>>& cands,
                       std::vector<std::vector<align::AlignTask>>& tasks,
                       std::vector<align::CascadeStats>& stats,
                       const align::BatchAligner::SeqAccessor& seq_of,
                       const align::BatchAligner& aligner,
                       const align::CascadeOptions& opt,
                       const obs::Telemetry& telemetry,
                       util::ThreadPool* pool) {
  const std::size_t np = cands.size();
  stats.assign(np, align::CascadeStats{});
  const auto total = [&] {
    std::size_t n = 0;
    for (const auto& v : cands) n += v.size();
    return static_cast<double>(n);
  };
  for (int tier = 0; tier < 2; ++tier) {
    if (!(tier == 0 ? opt.tier0_enabled : opt.tier1_enabled)) continue;
    const double pairs_in = total();
    obs::Span span(telemetry.tracer,
                   tier == 0 ? "cascade.tier0" : "cascade.tier1");
    util::parallel_for(pool, np, [&](std::size_t r) {
      auto& v = cands[r];
      auto& cs = stats[r];
      std::size_t kept = 0;
      for (const auto& c : v) {
        const std::string_view q = seq_of(c.task.q_id);
        const std::string_view s = seq_of(c.task.r_id);
        const bool keep =
            tier == 0
                ? align::tier0_keep(
                      q, s, {c.seeds, static_cast<std::size_t>(c.n_seeds)},
                      c.count, c.sketch_overlap, aligner, opt, cs.tier0)
                : align::tier1_keep(q, s, c.task, aligner, opt, cs.tier1);
        if (keep) v[kept++] = c;
      }
      v.resize(kept);
    });
    span.arg("pairs_in", pairs_in);
    span.arg("pairs_out", total());
  }
  for (std::size_t r = 0; r < np; ++r) {
    tasks[r].reserve(tasks[r].size() + cands[r].size());
    for (const auto& c : cands[r]) tasks[r].push_back(c.task);
  }
}

void FlatAlignPass::run(
    const std::vector<std::vector<align::AlignTask>>& rank_tasks,
    const align::BatchAligner::SeqAccessor& seq_of,
    const align::BatchAligner& aligner, util::ThreadPool* pool) {
  tasks_.clear();
  offset_.assign(1, 0);
  for (const auto& v : rank_tasks) {
    tasks_.insert(tasks_.end(), v.begin(), v.end());
    offset_.push_back(tasks_.size());
  }
  results_.assign(tasks_.size(), align::AlignResult{});
  scratch_.resize(rank_tasks.size());
  aligner.align_tasks(seq_of, tasks_, results_, pool);
}

std::span<const align::AlignResult> FlatAlignPass::results(int r) const {
  const auto ri = static_cast<std::size_t>(r);
  return {results_.data() + offset_[ri], offset_[ri + 1] - offset_[ri]};
}

align::BatchStats FlatAlignPass::rank_stats(
    int r, const align::BatchAligner::SeqAccessor& seq_of,
    const align::BatchAligner& aligner) {
  const auto ri = static_cast<std::size_t>(r);
  const std::span<const align::AlignTask> tasks(
      tasks_.data() + offset_[ri], offset_[ri + 1] - offset_[ri]);
  return aligner.stats_for(seq_of, tasks, results(r), scratch_[ri]);
}

void add_cascade_counters(const obs::Telemetry& telemetry,
                          const align::CascadeStats& cs) {
  if (telemetry.metrics == nullptr) return;
  auto& m = *telemetry.metrics;
  const align::TierStats* tiers[2] = {&cs.tier0, &cs.tier1};
  for (int t = 0; t < 2; ++t) {
    const std::string base = "cascade.tier" + std::to_string(t);
    m.counter(base + ".pairs_in_total")
        .add(static_cast<double>(tiers[t]->pairs_in));
    m.counter(base + ".pairs_out_total")
        .add(static_cast<double>(tiers[t]->pairs_out));
    m.counter(base + ".rejects_total")
        .add(static_cast<double>(tiers[t]->rejects));
    m.counter(base + ".cells_total")
        .add(static_cast<double>(tiers[t]->cells));
  }
}

std::pair<double, double> modeled_screen_seconds(
    const sim::MachineModel& model, const align::CascadeStats& cs) {
  return {model.sparse_stream_time(cs.tier0.cells * 4),
          balanced_kernel_seconds(model, cs.tier1.cells)};
}

double balanced_kernel_seconds(const sim::MachineModel& model,
                               std::uint64_t cells) {
  // Device lanes are modeled as balanced: a production-scale batch puts
  // millions of pairs on each GPU, so per-device imbalance vanishes
  // (rank-level imbalance — the kind the paper reports — remains).
  return static_cast<double>(cells) /
         (model.cups_per_gpu *
          static_cast<double>(std::max(1, model.gpus_per_node)));
}

double modeled_align_seconds(const sim::MachineModel& model,
                             const align::BatchStats& bstats, std::size_t pairs,
                             double dilation) {
  const std::uint64_t launches =
      pairs == 0 ? 0
                 : (pairs + model.pairs_per_launch - 1) / model.pairs_per_launch;
  return (balanced_kernel_seconds(model, bstats.cells) +
          static_cast<double>(launches) * model.kernel_launch_s +
          static_cast<double>(pairs) * model.pack_s_per_pair) *
         dilation;
}

}  // namespace pastis::core
