// annotate: query-vs-reference serving as a closed loop with one client.
//
// Setup builds the base index, saves it with save_index and reloads it with
// load_index as a fresh serving process would, then constructs the
// ServingTier (result cache on, LSM compaction trigger on). The client
// sends small batches of Zipf-repeated queries (80% mutated reference
// members, 20% random decoys) through ServingTier::search_batch and waits
// for each reply; between batches, add_references epochs grow the delta
// segments past the compaction trigger. Checks: every stream serves the
// same hits, and the served hits of each epoch's checked batches equal a
// from-scratch QueryEngine over the union reference set. The traced replay
// re-runs the cache-missed queries through KmerIndex::shard +
// sparse::spgemm<CrossSemiring> + BatchAligner and the ingest path through
// DeltaIndex::add_references / compact.
#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "cluster/result.hpp"
#include "common.hpp"
#include "core/load_balance.hpp"
#include "core/stages.hpp"
#include "index/index_io.hpp"
#include "index/kmer_index.hpp"
#include "index/query_engine.hpp"
#include "layers.hpp"
#include "kmer/alphabet.hpp"
#include "kmer/codec.hpp"
#include "kmer/nearest.hpp"
#include "serve/delta_index.hpp"
#include "serve/serving_tier.hpp"
#include "sim/grid.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace perfbench {

namespace {

using namespace pastis;
using io::SimilarityEdge;
using sparse::Index;

constexpr std::uint32_t kRefs = 3000;
constexpr std::uint32_t kBatches = 100;
constexpr std::size_t kBatchQueries = 12;
constexpr std::uint32_t kEpochEvery = 20;  // batches between add epochs
constexpr std::uint32_t kAddRefs = 60;     // references per add epoch
constexpr int kShards = 8;
constexpr double kCompactionTrigger = 0.04;
constexpr std::size_t kQueryPool = 240;  // distinct queries the Zipf ranks
constexpr double kZipfSkew = 1.1;
constexpr std::size_t kWarmupBatches = 10;
constexpr std::uint32_t kNoLabel = 0xFFFFFFFFu;

/// The generated stream plus the ground truth its quality metrics need.
struct Stream {
  std::vector<std::string> base;
  std::vector<std::uint32_t> base_label;  // family label per base ref
  std::vector<std::vector<std::string>> adds;
  std::vector<std::string> pool;          // distinct queries
  std::vector<std::uint32_t> pool_label;  // source label; kNoLabel = decoy
  std::vector<std::vector<std::size_t>> batches;  // pool indices
  [[nodiscard]] std::vector<std::string> batch(std::size_t b) const {
    std::vector<std::string> q;
    for (const auto i : batches[b]) q.push_back(pool[i]);
    return q;
  }
  [[nodiscard]] std::size_t epoch_of(std::size_t b) const { return b / kEpochEvery; }
  [[nodiscard]] std::size_t n_epochs() const { return epoch_of(batches.size() - 1) + 1; }
  /// Union reference set served during epoch e (base + the first e adds).
  [[nodiscard]] std::vector<std::string> refs_at(std::size_t e) const {
    std::vector<std::string> r = base;
    for (std::size_t a = 0; a < e; ++a) r.insert(r.end(), adds[a].begin(), adds[a].end());
    return r;
  }
};

/// A family label unique across the base set and every add set;
/// background singletons get a label of their own.
std::uint32_t label_of(const gen::Dataset& d, std::size_t i, std::uint32_t set) {
  if (d.family[i] == gen::Dataset::kBackground) {
    return 0x80000000u + set * 0x100000u + static_cast<std::uint32_t>(i);
  }
  return set * 0x100000u + d.family[i];
}

/// The stream's skeleton (references, add sets, which references the
/// planted queries come from, decoy lengths, the Zipf draw order) is
/// fixed, so every seed carries about the same work; --seed draws the
/// reference variants (order + point substitutions), the query mutations
/// and the decoy residues.
Stream make_stream(const Options& opt) {
  Stream s;
  constexpr double kRefSubstitution = 0.03;
  const Variant base = seeded_variant(
      gen::generate_proteins(metagenome_config(kRefs, kSkeletonSeed)),
      input_seed(opt, 3), kRefSubstitution);
  s.base = base.data.seqs;
  for (std::size_t i = 0; i < base.data.size(); ++i) {
    s.base_label.push_back(label_of(base.data, i, 0));
  }
  std::vector<std::size_t> position(base.order.size());
  for (std::size_t i = 0; i < base.order.size(); ++i) position[base.order[i]] = i;
  const std::uint32_t n_adds = (kBatches - 1) / kEpochEvery;
  for (std::uint32_t e = 0; e < n_adds; ++e) {
    s.adds.push_back(
        seeded_variant(gen::generate_proteins(metagenome_config(
                           kAddRefs, kSkeletonSeed + 100 + e)),
                       input_seed(opt, 100 + e), kRefSubstitution)
            .data.seqs);
  }

  static const std::string aas = "ARNDCQEGHILKMFPSTWYV";
  util::Xoshiro256 shape(kSkeletonSeed);  // the fixed query skeleton
  util::Xoshiro256 rng(input_seed(opt, 4));
  for (std::size_t i = 0; i < kQueryPool; ++i) {
    std::string q;
    if (shape.chance(0.8)) {
      const std::size_t src = position[shape.below(s.base.size())];
      q = s.base[src];
      for (auto& c : q) {
        if (rng.chance(0.08)) c = aas[rng.below(aas.size())];
      }
      s.pool_label.push_back(s.base_label[src]);
    } else {
      q.assign(120 + shape.below(200), 'A');
      for (auto& c : q) c = aas[rng.below(aas.size())];
      s.pool_label.push_back(kNoLabel);
    }
    s.pool.push_back(std::move(q));
  }
  s.batches.resize(kBatches);
  for (auto& b : s.batches) {
    for (std::size_t i = 0; i < kBatchQueries; ++i) {
      b.push_back(shape.zipf(kQueryPool, kZipfSkew));
    }
  }
  return s;
}

core::PastisConfig annotate_config() { return core::PastisConfig{}; }  // Table IV

serve::TierOptions tier_options() {
  serve::TierOptions t;
  t.engine.nprocs = kRanks;
  t.engine.pipeline_depth = 2;
  t.cache_capacity_bytes = 64ull << 20;
  t.compaction_trigger_ratio = kCompactionTrigger;
  return t;
}

/// Per-batch record of one stream.
struct Served {
  std::vector<std::vector<SimilarityEdge>> hits;
  std::vector<Index> batch_base;  // global id of each batch's first query
  std::vector<index::QueryBatchStats> stats;
};

/// Edges of `hits` whose query id is in `ids`.
std::vector<SimilarityEdge> restrict_to(const std::vector<SimilarityEdge>& hits,
                                        const std::set<Index>& ids) {
  std::vector<SimilarityEdge> out;
  for (const auto& e : hits) {
    if (ids.count(e.seq_b) != 0) out.push_back(e);
  }
  return out;
}

/// Replays one batch's missed queries through the index shards, the
/// cross-semiring SpGEMM and the batch aligner, mirroring the serving
/// path's discovery and alignment. Returns the hits (canonical order).
std::vector<SimilarityEdge> replay_batch(
    const index::KmerIndex& idx, const std::vector<std::string>& queries,
    const std::vector<Index>& ids, const core::PastisConfig& cfg,
    const align::BatchAligner& aligner, util::ThreadPool& pool, SpanLog& spans,
    LayerMetrics& lm, std::vector<align::AlignTask>* tasks_out) {
  const Index n_refs = idx.n_refs();
  const auto nq = static_cast<Index>(queries.size());
  sparse::SpMat<index::CrossKmers> C;
  std::vector<align::AlignTask> tasks;
  {
    SpanLog::Scope discover(spans, "serve.discover");
    std::vector<sparse::SpMat<core::KmerPos>> a_query(
        static_cast<std::size_t>(idx.n_shards()));
    {
      SpanLog::Scope s(spans, "kmer.build");
      const kmer::Alphabet alphabet(cfg.alphabet);
      const kmer::KmerCodec codec(alphabet.size(), cfg.k);
      const kmer::NeighborGenerator neighbors(alphabet, codec, cfg.make_scoring(),
                                              cfg.subs_max_loss);
      std::vector<sparse::Triple<core::KmerPos>> triples;
      for (Index i = 0; i < nq; ++i) {
        core::extract_sequence_kmers(queries[i], i, alphabet, codec, neighbors,
                                     cfg.subs_kmers, triples);
      }
      lm.kmer_nnz += triples.size();
      std::vector<std::vector<sparse::Triple<core::KmerPos>>> per_shard(a_query.size());
      for (const auto& t : triples) {
        const int s = sim::ProcGrid::part_of(t.col, idx.kmer_space(), idx.n_shards());
        per_shard[static_cast<std::size_t>(s)].push_back(
            {t.row, t.col - idx.shard_begin(s), t.val});
      }
      for (int s = 0; s < idx.n_shards(); ++s) {
        a_query[static_cast<std::size_t>(s)] = sparse::SpMat<core::KmerPos>::from_triples(
            nq, idx.shard_begin(s + 1) - idx.shard_begin(s),
            std::move(per_shard[static_cast<std::size_t>(s)]),
            [](core::KmerPos& acc, const core::KmerPos& v) { core::keep_min_pos(acc, v); });
      }
    }
    {
      SpanLog::Scope s(spans, "sparse.spgemm");
      std::vector<sparse::SpMat<index::CrossKmers>> parts(a_query.size());
      for (int sh = 0; sh < idx.n_shards(); ++sh) {
        const auto& a = a_query[static_cast<std::size_t>(sh)];
        if (a.empty() || idx.shard(sh).empty()) continue;
        parts[static_cast<std::size_t>(sh)] = sparse::spgemm<index::CrossSemiring>(
            a, idx.shard(sh), cfg.spgemm_kernel, &lm.spgemm, &pool, cfg.spgemm_threads);
      }
      C = sparse::add_merge(parts, nq, n_refs,
                            [](index::CrossKmers& acc, const index::CrossKmers& v) {
                              index::CrossSemiring::add(acc, v);
                            });
    }
    {
      SpanLog::Scope s(spans, "core.extract");
      lm.candidates += C.nnz();
      C.for_each([&](Index qi, Index rj, const index::CrossKmers& ck) {
        if (ck.count < cfg.common_kmer_threshold) return;
        const Index q_global = ids[qi];
        core::CommonKmers eq;
        eq.count = ck.count;
        // The index-based scheme's triangle choice fixes the seed pair.
        if (core::BlockPlan::index_based_keep(rj, q_global)) {
          eq.first = ck.first_rq;
          tasks.push_back(core::canonical_task(rj, q_global, eq));
        } else {
          eq.first = ck.first_qr;
          tasks.push_back(core::canonical_task(q_global, rj, eq));
        }
      });
      lm.kept += tasks.size();
    }
  }

  std::map<Index, std::size_t> row_of;
  for (std::size_t i = 0; i < ids.size(); ++i) row_of[ids[i]] = i;
  const align::BatchAligner::SeqAccessor seq_of = [&](std::uint32_t id) {
    return id < n_refs ? idx.ref(id) : std::string_view(queries[row_of.at(id)]);
  };
  std::vector<SimilarityEdge> hits;
  SpanLog::Scope align_span(spans, "serve.align");
  std::vector<align::AlignResult> results;
  {
    SpanLog::Scope s(spans, "align.tier2");
    results = aligner.align_batch(seq_of, tasks, &lm.tier2, &pool);
  }
  {
    SpanLog::Scope s(spans, "core.filter");
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      if (auto e = core::edge_if_similar(tasks[t], results[t],
                                         seq_of(tasks[t].q_id).size(),
                                         seq_of(tasks[t].r_id).size(), cfg)) {
        hits.push_back(*e);
      }
    }
  }
  io::sort_edges(hits);
  if (tasks_out != nullptr) *tasks_out = std::move(tasks);
  return hits;
}

}  // namespace

void run_annotate_workload(const Options& opt, util::ThreadPool& pool,
                           SpanLog& spans, Report& report) {
  const Stream stream = make_stream(opt);
  const core::PastisConfig cfg = annotate_config();
  const sim::MachineModel model;
  const serve::TierOptions topt = tier_options();
  const std::string index_path =
      opt.out_dir + "/index-annotate-" + std::to_string(opt.seed) + ".pidx";
  report.context("input", std::to_string(kRefs) + " refs, " +
                              std::to_string(kBatches) + " batches x " +
                              std::to_string(kBatchQueries) + " queries, " +
                              std::to_string(stream.adds.size()) + " add epochs x " +
                              std::to_string(kAddRefs) + " refs");
  report.context("warmup", std::to_string(kWarmupBatches) +
                               " batches on a throwaway tier, excluded from "
                               "every metric");

  // ---- setup: build + save + load + tier construction ---------------------
  std::vector<double> setup_s;
  const auto setup = [&]() {
    util::Timer t;
    index::KmerIndex idx;
    {
      SpanLog::Scope s(spans, "index.build");
      idx = index::KmerIndex::build(stream.base, cfg, kShards, &pool);
    }
    {
      SpanLog::Scope s(spans, "index.save");
      index::save_index(index_path, idx);
    }
    index::KmerIndex loaded;
    {
      SpanLog::Scope s(spans, "index.load");
      loaded = index::load_index(index_path);
    }
    std::unique_ptr<serve::ServingTier> tier;
    {
      SpanLog::Scope s(spans, "serve.tier_init");
      tier = std::make_unique<serve::ServingTier>(std::move(loaded), cfg, model,
                                                  topt, &pool);
    }
    setup_s.push_back(t.seconds());
    return tier;
  };

  // ---- warm-up (excluded): a throwaway tier serves the first batches ------
  {
    auto tier = setup();
    bool ok = true;
    try {
      for (std::size_t b = 0; b < kWarmupBatches && b < kEpochEvery; ++b) {
        (void)tier->search_batch(stream.batch(b));
      }
    } catch (const std::exception& e) {
      ok = false;
      report.count("warmup", false, e.what());
    }
    if (ok) report.count("warmup", true);
  }

  // ---- timed streams (one fresh tier each) ----------------------------------
  Served first;
  std::vector<double> stream_s, ingest_s, qps, pair_rate, batch_ms;
  std::uint64_t compactions = 0;
  util::Timer total;
  while (stream_s.empty() || total.seconds() < opt.seconds) {
    auto tier = setup();
    Served cur;
    double ingest = 0.0;
    std::uint64_t pairs = 0, queries = 0;
    util::Timer sw;
    for (std::size_t b = 0; b < stream.batches.size(); ++b) {
      if (b > 0 && b % kEpochEvery == 0) {
        util::Timer ta;
        try {
          (void)tier->add_references(stream.adds[b / kEpochEvery - 1]);
          report.count("adds", true);
        } catch (const std::exception& e) {
          report.count("adds", false, e.what());
        }
        ingest += ta.seconds();
      }
      const auto batch = stream.batch(b);
      util::Timer tb;
      index::QueryBatchStats qs;
      std::vector<SimilarityEdge> hits;
      try {
        hits = tier->search_batch(batch, &qs);
      } catch (const std::exception& e) {
        report.count("batches", false, e.what());
        cur.hits.emplace_back();
        cur.batch_base.push_back(0);
        cur.stats.emplace_back();
        continue;
      }
      batch_ms.push_back(1e3 * tb.seconds());
      pairs += qs.aligned_pairs;
      queries += batch.size();
      const Index base_id = tier->engine().total_refs() +
                            static_cast<Index>((b % kEpochEvery) * kBatchQueries);
      const bool same = first.hits.empty() || hits == first.hits[b];
      report.count("batches", same, "batch " + std::to_string(b) +
                                        " differs from the first stream");
      cur.hits.push_back(std::move(hits));
      cur.batch_base.push_back(base_id);
      cur.stats.push_back(qs);
    }
    const double wall = sw.seconds();
    stream_s.push_back(wall);
    ingest_s.push_back(ingest);
    qps.push_back(static_cast<double>(queries) / wall);
    pair_rate.push_back(static_cast<double>(pairs) / wall);
    compactions = tier->stats().compactions;
    if (first.hits.empty()) first = std::move(cur);
  }
  const double rss = peak_rss_mib();
  report.note("timed stream seconds: " + join_samples(stream_s));
  std::vector<double> deciles;
  for (int d = 1; d <= 9; ++d) deciles.push_back(percentile(batch_ms, d / 10.0));
  report.note("batch latency deciles (ms): " + join_samples(deciles));

  // ---- oracle check: a from-scratch engine over each epoch's union --------
  // Checked batches: the first and the last batch of every epoch. Empty
  // filler queries (no k-mers, so no work) advance the oracle's query ids
  // to the checked batch's ids, which fix the load-balance parity.
  std::vector<index::KmerIndex> union_index;
  std::vector<SimilarityEdge> checked_oracle, checked_served;
  for (std::size_t e = 0; e < stream.n_epochs(); ++e) {
    union_index.push_back(index::KmerIndex::build(stream.refs_at(e), cfg, kShards, &pool));
    index::QueryEngine oracle(union_index.back(), cfg, model, topt.engine, &pool);
    const std::size_t b0 = e * kEpochEvery;
    const std::size_t b1 = std::min(stream.batches.size(), b0 + kEpochEvery) - 1;
    std::size_t fed = 0;
    for (const std::size_t b : {b0, b1}) {
      if (b == b1 && b1 == b0 && fed > 0) break;
      const std::size_t offset = (b - b0) * kBatchQueries;
      if (offset > fed) {
        const std::vector<std::string> filler(offset - fed);
        (void)oracle.search_batch(filler);
      }
      const auto want = oracle.search_batch(stream.batch(b));
      fed = offset + kBatchQueries;
      report.count("checks", want == first.hits[b],
                   "batch " + std::to_string(b) +
                       " differs from a from-scratch engine over the union");
      checked_oracle.insert(checked_oracle.end(), want.begin(), want.end());
      checked_served.insert(checked_served.end(), first.hits[b].begin(),
                            first.hits[b].end());
    }
  }

  // ---- quality: best-hit annotation accuracy + induced clustering ---------
  std::vector<std::uint32_t> ref_label = stream.base_label;
  for (std::size_t e = 0; e < stream.adds.size(); ++e) {
    // Add sets are separate generator draws; their labels are unique.
    for (std::size_t i = 0; i < stream.adds[e].size(); ++i) {
      ref_label.push_back(0xC0000000u + static_cast<std::uint32_t>(e) * 0x10000u +
                          static_cast<std::uint32_t>(i));
    }
  }
  std::size_t scored = 0, correct = 0;
  std::map<std::size_t, std::uint32_t> predicted;  // pool index -> best label
  for (std::size_t b = 0; b < stream.batches.size(); ++b) {
    std::map<Index, std::pair<std::int32_t, Index>> best;  // query -> (score, ref)
    for (const auto& e : first.hits[b]) {
      auto it = best.find(e.seq_b);
      if (it == best.end() || e.score > it->second.first ||
          (e.score == it->second.first && e.seq_a < it->second.second)) {
        best[e.seq_b] = {e.score, e.seq_a};
      }
    }
    for (std::size_t i = 0; i < stream.batches[b].size(); ++i) {
      const std::size_t pi = stream.batches[b][i];
      const auto it = best.find(first.batch_base[b] + static_cast<Index>(i));
      const std::uint32_t got =
          it == best.end() ? kNoLabel : ref_label[it->second.second];
      ++scored;
      correct += got == stream.pool_label[pi] ? 1 : 0;
      predicted.emplace(pi, got);
    }
  }
  // Queries clustered by the label of their best hit (no hit: a singleton)
  // against their source family; decoys are background.
  std::vector<Index> cluster_labels;
  std::vector<std::uint32_t> classes;
  std::map<std::uint32_t, Index> dense;
  Index next_label = 0;
  for (const auto& [pi, got] : predicted) {
    Index lab = next_label;
    if (got == kNoLabel) {
      ++next_label;
    } else {
      const auto [it, fresh] = dense.emplace(got, next_label);
      if (fresh) ++next_label;
      lab = it->second;
    }
    cluster_labels.push_back(lab);
    classes.push_back(stream.pool_label[pi] == kNoLabel ? gen::Dataset::kBackground
                                                        : stream.pool_label[pi]);
  }
  const double f1 = cluster::score_against_classes(
                        cluster::canonicalize(cluster_labels), classes)
                        .f1();

  // ---- end-to-end metrics ------------------------------------------------------
  report.set("wall_s", median(stream_s), "s", stream_s.size());
  report.set("pairs_per_s", median(pair_rate), "1/s", pair_rate.size());
  report.set("qps", median(qps), "1/s", qps.size());
  report.set("batch_p50_ms", percentile(batch_ms, 0.5), "ms", batch_ms.size());
  report.set("batch_p90_ms", percentile(batch_ms, 0.9), "ms", batch_ms.size());
  report.set("ingest_s", median(ingest_s), "s", ingest_s.size());
  report.set("setup_s", median(setup_s), "s", setup_s.size());
  report.set("peak_rss_mb", rss, "MiB");
  report.set("recall", edge_recall(checked_served, checked_oracle), "ratio",
             checked_oracle.size());
  report.set("cluster_f1", f1, "ratio", predicted.size());
  report.set("annot_acc",
             scored == 0 ? 0.0
                         : static_cast<double>(correct) / static_cast<double>(scored),
             "ratio", scored);

  if (!opt.trace) {
    std::filesystem::remove(index_path);
    return;
  }

  // ---- traced replay ------------------------------------------------------------
  LayerMetrics lm;
  const align::BatchAligner aligner = replay_aligner(cfg, model, pool);
  std::uint64_t cache_hits = 0, predicted_hits = 0, queries = 0;
  // The replayed batch with the most tier-2 tasks: the single-thread
  // kernel sample.
  struct {
    std::size_t epoch = 0;
    std::vector<std::string> queries;
    std::vector<Index> ids;
    std::vector<align::AlignTask> tasks;
  } sample;
  util::Timer replay_wall;
  {
    SpanLog::Scope run_span(spans, "run", 0);
    serve::DeltaIndex delta(index::load_index(index_path), cfg);
    std::set<std::pair<std::string, Index>> seen;  // (query, parity) this epoch
    for (std::size_t b = 0; b < stream.batches.size(); ++b) {
      const std::size_t e = stream.epoch_of(b);
      if (b > 0 && b % kEpochEvery == 0) {
        {
          SpanLog::Scope s(spans, "serve.add");
          (void)delta.add_references(stream.adds[e - 1], &pool);
        }
        if (delta.compaction_due(kCompactionTrigger)) {
          SpanLog::Scope s(spans, "serve.compact");
          (void)delta.compact(model, &pool);
          ++lm.compactions;
        }
        seen.clear();
      }
      lm.segments_max = std::max<std::uint64_t>(
          lm.segments_max, static_cast<std::uint64_t>(delta.n_segments()));
      // Queries the result cache cannot answer: first sightings of their
      // (content, parity) key this epoch, or repeats within this batch.
      std::vector<std::string> missed;
      std::vector<Index> ids;
      std::set<Index> id_set;
      const auto batch = stream.batch(b);
      std::set<std::pair<std::string, Index>> inserted;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const Index id = first.batch_base[b] + static_cast<Index>(i);
        const auto key = std::make_pair(batch[i], id & 1u);
        if (seen.count(key) != 0) {
          ++predicted_hits;
          continue;
        }
        inserted.insert(key);
        missed.push_back(batch[i]);
        ids.push_back(id);
        id_set.insert(id);
      }
      seen.insert(inserted.begin(), inserted.end());
      cache_hits += first.stats[b].cache_hits;
      queries += batch.size();
      if (missed.empty()) continue;
      SpanLog::Scope batch_span(spans, "batch", static_cast<std::int64_t>(b));
      std::vector<align::AlignTask> tasks;
      const auto got = replay_batch(union_index[e], missed, ids, cfg, aligner, pool,
                                    spans, lm, &tasks);
      if (tasks.size() > sample.tasks.size()) {
        sample = {e, std::move(missed), std::move(ids), std::move(tasks)};
      }
      lm.edges += got.size();
      report.count("checks", got == restrict_to(first.hits[b], id_set),
                   "replayed batch " + std::to_string(b) +
                       " differs from the served hits");
    }
    report.count("checks", lm.compactions == compactions,
                 "replayed compactions differ from the serving tier's");
  }
  const double traced = replay_wall.seconds();
  if (predicted_hits != cache_hits) {
    report.note("note: predicted cache hits " + std::to_string(predicted_hits) +
                " vs served " + std::to_string(cache_hits));
  }

  {
    const auto& idx = union_index[sample.epoch];
    std::map<Index, std::size_t> row_of;
    for (std::size_t i = 0; i < sample.ids.size(); ++i) row_of[sample.ids[i]] = i;
    lm.kernel = single_thread_kernels(
        [&](std::uint32_t id) {
          return id < idx.n_refs() ? idx.ref(id)
                                   : std::string_view(sample.queries[row_of.at(id)]);
        },
        sample.tasks, cfg, model);
  }

  const auto durations = [&](const std::string& name) {
    std::vector<double> d;
    for (const auto& s : spans.spans()) {
      if (s.name == name && s.end_s >= s.start_s) d.push_back(s.end_s - s.start_s);
    }
    return median(d);
  };
  lm.index_build_s = durations("index.build");
  lm.index_save_s = durations("index.save");
  lm.index_load_s = durations("index.load");
  lm.index_bytes = std::filesystem::file_size(index_path);
  std::filesystem::remove(index_path);
  lm.cache_hit_frac = queries == 0 ? 0.0
                                   : static_cast<double>(cache_hits) /
                                         static_cast<double>(queries);
  lm.discover_s = spans.total("serve.discover");
  lm.serve_align_s = spans.total("serve.align");
  lm.add_s = spans.total("serve.add");
  lm.compact_s = spans.total("serve.compact");
  lm.kmer_build_s = spans.total("kmer.build");
  lm.spgemm_s = spans.total("sparse.spgemm");
  lm.extract_s = spans.total("core.extract");
  lm.tier2_s = spans.total("align.tier2");
  lm.filter_s = spans.total("core.filter");
  lm.replay_wall_s = spans.total("run");
  lm.e2e_wall_s = median(stream_s);
  lm.traced_wall_s = traced;
  double t_sparse = 0.0, t_align = 0.0;
  for (const auto& qs : first.stats) {
    t_sparse += qs.t_sparse;
    t_align += qs.t_align;
  }
  lm.modeled_total_s = t_sparse + t_align;
  lm.modeled_align_share =
      lm.modeled_total_s > 0.0 ? t_align / lm.modeled_total_s : 0.0;
  // Self times of the replayed stream only (the setup spans are not part
  // of it).
  std::map<std::string, double> self = spans.self_times();
  for (const char* name : {"index.build", "index.save", "index.load", "serve.tier_init"}) {
    self.erase(name);
  }
  lm.self_times = std::move(self);
  set_layer_metrics(lm, report);
}

}  // namespace perfbench
