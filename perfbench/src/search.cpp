// allvsall and screened: many-against-many exact search + MCL clustering
// (SimilaritySearch::run_and_cluster), timed end to end, then replayed
// layer by layer through the library's public entry points.
//
//   allvsall  metagenome-like set, Table-IV defaults, cascade off: tier-2
//             full Smith-Waterman dominates.
//   screened  background-heavy repeat-rich blend, common-k-mer threshold 1,
//             CascadeOptions::fast(): the tier-0/tier-1 screens decide most
//             candidates; recall is measured against the cascade-off edges.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <utility>

#include "align/batch.hpp"
#include "align/cascade.hpp"
#include "cluster/cluster.hpp"
#include "common.hpp"
#include "core/kmer_matrix.hpp"
#include "core/load_balance.hpp"
#include "core/pipeline.hpp"
#include "core/seq_store.hpp"
#include "core/stages.hpp"
#include "dist/summa.hpp"
#include "layers.hpp"
#include "util/timer.hpp"

namespace perfbench {

namespace {

using namespace pastis;
using sparse::Index;

constexpr std::uint32_t kAllVsAllSeqs = 600;
constexpr std::uint32_t kScreenedSeqs = 1200;
/// Per-seed point-substitution rate of the input variant.
constexpr double kSubstitutionRate = 0.03;
/// Setup repetitions per run (setup_s is their median).
constexpr int kSetupReps = 3;

core::PastisConfig search_config(bool screened) {
  core::PastisConfig cfg;  // Table-IV defaults
  cfg.block_rows = 2;
  cfg.block_cols = 2;
  cfg.pipeline_depth = 2;
  cfg.cluster_method = cluster::Method::kMarkov;
  if (screened) {
    cfg.common_kmer_threshold = 1;
    cfg.cascade = align::CascadeOptions::fast();
  }
  return cfg;
}

/// The background-heavy, repeat-rich blend the cascade is tuned on.
gen::GenConfig blend_config(std::uint32_t n, std::uint64_t seed) {
  gen::GenConfig g;
  g.n_sequences = n;
  g.seed = seed;
  g.mean_length = 250.0;
  g.max_length = 1200;
  g.family_fraction = 0.35;
  g.mean_family_size = 8;
  g.low_complexity_prob = 0.5;
  g.low_complexity_motifs = 12;
  g.shuffle_order = true;
  return g;
}

/// Best-scoring neighbour of every vertex in [0, n) under `edges` (ties to
/// the smaller id); -1 for vertices without an edge.
std::vector<std::int64_t> best_neighbour(
    std::size_t n, const std::vector<io::SimilarityEdge>& edges) {
  std::vector<std::int64_t> best(n, -1);
  std::vector<std::int32_t> score(n, 0);
  auto offer = [&](std::uint32_t v, std::uint32_t u, std::int32_t s) {
    if (v >= n) return;
    if (best[v] < 0 || s > score[v] ||
        (s == score[v] && static_cast<std::int64_t>(u) < best[v])) {
      best[v] = u;
      score[v] = s;
    }
  };
  for (const auto& e : edges) {
    offer(e.seq_a, e.seq_b, e.score);
    offer(e.seq_b, e.seq_a, e.score);
  }
  return best;
}

/// Candidate pairs the align layer decided: aligned at tier 2 or rejected
/// by a screen. Comparable across cascade settings.
std::uint64_t decided_pairs(const core::SearchStats& st) {
  return st.aligned_pairs + st.cascade.tier0.rejects + st.cascade.tier1.rejects;
}

/// Output of the layer-by-layer replay plus the counters its metrics need.
struct Replay {
  std::vector<io::SimilarityEdge> edges;
  cluster::Clustering clusters;
  std::uint64_t kmer_nnz = 0;
  sparse::SpGemmStats spgemm;
  std::uint64_t candidates = 0;  // overlap nonzeros of the computed blocks
  std::uint64_t kept = 0;        // past the k-mer threshold and the scheme
  align::CascadeStats cascade;
  align::BatchStats tier2;
  int mcl_iters = 0;
  std::vector<align::AlignTask> tier2_tasks;
};

Replay replay_search(const std::vector<std::string>& seqs,
                     const core::PastisConfig& cfg,
                     const sim::MachineModel& model, util::ThreadPool& pool,
                     SpanLog& spans) {
  Replay out;
  SpanLog::Scope run_span(spans, "run", 0);
  sim::SimRuntime rt(kRanks, model, &pool);
  const int p = rt.nprocs();
  const core::DistSeqStore store(seqs, p);
  const Index n = store.size();

  core::KmerMatrixInfo kinfo;
  dist::DistSpMat<core::KmerPos> A;
  {
    SpanLog::Scope s(spans, "kmer.build");
    A = core::build_kmer_matrix(rt, store, cfg, &kinfo, &pool);
  }
  out.kmer_nnz = kinfo.nnz;
  dist::DistSpMat<core::KmerPos> B;
  {
    SpanLog::Scope s(spans, "dist.transpose");
    B = A.transposed(&pool);
  }
  std::vector<dist::DistSpMat<core::KmerPos>> stripes_a, stripes_b;
  {
    SpanLog::Scope s(spans, "dist.stripes");
    stripes_a = dist::split_row_stripes(rt, A, cfg.block_rows, &pool);
    stripes_b = dist::split_col_stripes(rt, B, cfg.block_cols, &pool);
  }

  const core::BlockPlan plan(n, cfg.block_rows, cfg.block_cols,
                             cfg.load_balance);
  const align::BatchAligner aligner = replay_aligner(cfg, model, pool);
  const align::BatchAligner::SeqAccessor seq_of = [&](std::uint32_t id) {
    return store.seq(id);
  };
  const bool cascading = cfg.cascade.any();

  for (std::size_t bi = 0; bi < plan.blocks().size(); ++bi) {
    const core::BlockInfo& blk = plan.blocks()[bi];
    SpanLog::Scope block_span(spans, "block", static_cast<std::int64_t>(bi));
    dist::DistSpMat<core::CommonKmers> C;
    {
      SpanLog::Scope s(spans, "dist.summa");
      C = dist::summa<core::OverlapSemiring>(
          rt, stripes_a[static_cast<std::size_t>(blk.r)],
          stripes_b[static_cast<std::size_t>(blk.c)],
          core::discovery_summa_options(cfg, &pool), &out.spgemm);
    }
    out.candidates += C.nnz();

    std::vector<std::vector<core::ScreenCandidate>> cands(
        static_cast<std::size_t>(p));
    {
      SpanLog::Scope s(spans, "core.extract");
      rt.spmd([&](int rank) {
        const auto& local = C.local(rank);
        const Index grow0 = blk.row0 + C.row_begin(rt.grid().row_of(rank));
        const Index gcol0 = blk.col0 + C.col_begin(rt.grid().col_of(rank));
        auto& v = cands[static_cast<std::size_t>(rank)];
        local.for_each([&](Index li, Index lj, const core::CommonKmers& ck) {
          const Index i = grow0 + li;
          const Index j = gcol0 + lj;
          if (ck.count < cfg.common_kmer_threshold) return;
          if (!plan.should_align(blk, i, j)) return;
          core::ScreenCandidate c;
          c.task = core::canonical_task(i, j, ck);
          c.count = ck.count;
          c.n_seeds = core::canonical_seeds(i, j, ck, c.seeds);
          v.push_back(c);
        });
      });
    }
    for (const auto& v : cands) out.kept += v.size();

    if (cascading) {
      for (int tier = 0; tier < 2; ++tier) {
        if (tier == 0 ? !cfg.cascade.tier0_enabled : !cfg.cascade.tier1_enabled) {
          continue;
        }
        std::vector<align::CascadeStats> cs(static_cast<std::size_t>(p));
        SpanLog::Scope s(spans, tier == 0 ? "align.tier0" : "align.tier1");
        rt.spmd([&](int rank) {
          const auto ri = static_cast<std::size_t>(rank);
          auto& v = cands[ri];
          std::size_t w = 0;
          for (const auto& c : v) {
            const std::string_view q = store.seq(c.task.q_id);
            const std::string_view r = store.seq(c.task.r_id);
            const bool keep =
                tier == 0
                    ? align::tier0_keep(
                          q, r,
                          std::span<const align::Seed>(
                              c.seeds, static_cast<std::size_t>(c.n_seeds)),
                          c.count, c.sketch_overlap, aligner, cfg.cascade,
                          cs[ri].tier0)
                    : align::tier1_keep(q, r, c.task, aligner, cfg.cascade,
                                        cs[ri].tier1);
            if (keep) v[w++] = c;
          }
          v.resize(w);
        });
        for (const auto& c : cs) out.cascade.merge(c);
      }
    }

    std::vector<align::AlignTask> tasks;
    for (const auto& v : cands) {
      for (const auto& c : v) tasks.push_back(c.task);
    }
    std::vector<align::AlignResult> results;
    {
      SpanLog::Scope s(spans, "align.tier2");
      results = aligner.align_batch(seq_of, tasks, &out.tier2, &pool);
    }
    {
      SpanLog::Scope s(spans, "core.filter");
      for (std::size_t t = 0; t < tasks.size(); ++t) {
        if (auto e = core::edge_if_similar(
                tasks[t], results[t], store.seq(tasks[t].q_id).size(),
                store.seq(tasks[t].r_id).size(), cfg)) {
          out.edges.push_back(*e);
        }
      }
    }
    out.tier2_tasks.insert(out.tier2_tasks.end(), tasks.begin(), tasks.end());
  }
  io::sort_edges(out.edges);

  if (cfg.cluster_method == cluster::Method::kMarkov) {
    cluster::SimilarityGraph g;
    {
      SpanLog::Scope s(spans, "cluster.graph");
      g = cluster::SimilarityGraph::from_edges(n, out.edges,
                                               cfg.cluster_weighting);
    }
    // The knob inheritance SimilaritySearch::run_and_cluster applies.
    cluster::MclOptions mcl = cfg.mcl;
    if (mcl.max_threads == 0) mcl.max_threads = cfg.spgemm_threads;
    mcl.memory_budget_bytes = cfg.effective_mcl_memory_budget();
    cluster::MclStats mstats;
    {
      SpanLog::Scope s(spans, "cluster.mcl");
      out.clusters = cluster::markov_cluster(g, mcl, &mstats, &pool);
    }
    out.mcl_iters = mstats.iterations;
  }
  return out;
}

// ---- cascade-off reference edges (screened recall), cached per input ------
/// Empty when the file is missing, truncated or of the wrong size.
std::vector<io::SimilarityEdge> load_edges(const std::string& path) {
  std::vector<io::SimilarityEdge> edges;
  std::ifstream is(path, std::ios::binary);
  std::uint64_t count = 0;
  if (!is.read(reinterpret_cast<char*>(&count), sizeof count)) return {};
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec || (size - sizeof count) / sizeof(io::SimilarityEdge) != count ||
      (size - sizeof count) % sizeof(io::SimilarityEdge) != 0) {
    return {};
  }
  edges.resize(count);
  if (!is.read(reinterpret_cast<char*>(edges.data()),
               static_cast<std::streamsize>(count * sizeof(io::SimilarityEdge)))) {
    return {};
  }
  return edges;
}

void save_edges(const std::string& path,
                const std::vector<io::SimilarityEdge>& edges) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary);
    const std::uint64_t count = edges.size();
    os.write(reinterpret_cast<const char*>(&count), sizeof count);
    os.write(reinterpret_cast<const char*>(edges.data()),
             static_cast<std::streamsize>(count * sizeof(io::SimilarityEdge)));
    if (!os) return;
  }
  std::filesystem::rename(tmp, path);
}

/// The cascade-off edge set of the same input. Deterministic, so it is
/// computed once per (input size, seed) and cached under the output
/// directory (run.py clears the cache whenever the binary is rebuilt).
std::vector<io::SimilarityEdge> exact_edges(const Options& opt,
                                            const std::vector<std::string>& seqs,
                                            core::PastisConfig cfg,
                                            const sim::MachineModel& model,
                                            util::ThreadPool& pool) {
  const std::string path = opt.out_dir + "/exact-screened-" +
                           std::to_string(seqs.size()) + "-" +
                           std::to_string(opt.seed) + ".edges";
  if (auto edges = load_edges(path); !edges.empty()) return edges;
  cfg.cascade = align::CascadeOptions{};
  cfg.cluster_method = cluster::Method::kNone;
  const core::SimilaritySearch search(cfg, model, kRanks, &pool);
  auto edges = search.run(seqs).edges;
  save_edges(path, edges);
  return edges;
}

/// Share of scored sequences whose best neighbour shares their family;
/// background singletons count as correct when they have no neighbour.
/// Fragments (expected to fail the coverage filter) are not scored.
double best_hit_accuracy(const gen::Dataset& data,
                         const std::vector<io::SimilarityEdge>& edges) {
  const auto labels = gen::family_labels(data);
  const auto best = best_neighbour(data.size(), edges);
  std::size_t scored = 0, correct = 0;
  for (std::size_t v = 0; v < data.size(); ++v) {
    if (data.is_fragment[v] != 0) continue;
    ++scored;
    if (labels[v] == gen::Dataset::kBackground) {
      correct += best[v] < 0 ? 1 : 0;
    } else if (best[v] >= 0) {
      correct += labels[static_cast<std::size_t>(best[v])] == labels[v] ? 1 : 0;
    }
  }
  return scored == 0 ? 1.0
                     : static_cast<double>(correct) / static_cast<double>(scored);
}

}  // namespace

void run_search_workload(const Options& opt, util::ThreadPool& pool,
                         SpanLog& spans, Report& report) {
  const bool screened = opt.workload == "screened";
  const std::uint32_t n = screened ? kScreenedSeqs : kAllVsAllSeqs;
  const core::PastisConfig cfg = search_config(screened);
  const sim::MachineModel model;
  report.context("input", std::to_string(n) + (screened ? " blend" : " metagenome") +
                              " sequences");
  report.context("warmup", "the first set-up run; set-up runs are excluded from "
                           "every timed metric and reported as setup_s");

  // ---- setup (median of reps): input generation, search construction and
  // the search's first, cold run. The cold run is set-up because it is what
  // the timed runs do not pay (lazy initialization, allocator growth, and
  // any state a search object may carry between runs); the first rep is the
  // warm-up of the timed loop.
  std::vector<double> setup_s;
  gen::Dataset data;
  core::ClusteredSearchResult first;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    util::Timer t;
    const gen::Dataset skeleton = gen::generate_proteins(
        screened ? blend_config(n, kSkeletonSeed)
                 : metagenome_config(n, kSkeletonSeed));
    data = seeded_variant(skeleton, input_seed(opt, screened ? 2 : 1),
                          kSubstitutionRate)
               .data;
    const core::SimilaritySearch cold(cfg, model, kRanks, &pool);
    try {
      auto r = cold.run_and_cluster(data.seqs);
      setup_s.push_back(t.seconds());
      if (rep == 0) first = std::move(r);
      report.count("setup", rep == 0 || (r.search.edges == first.search.edges &&
                                         r.clustering.clusters ==
                                             first.clustering.clusters),
                   "set-up run differs from the first set-up run");
    } catch (const std::exception& e) {
      report.count("setup", false, e.what());
      return;
    }
  }
  const core::SimilaritySearch search(cfg, model, kRanks, &pool);

  // ---- timed runs -------------------------------------------------------------
  std::vector<double> run_s;
  std::vector<double> pairs_rate;
  util::Timer total;
  while (run_s.empty() || total.seconds() < opt.seconds) {
    util::Timer t;
    try {
      const auto r = search.run_and_cluster(data.seqs);
      const double s = t.seconds();
      run_s.push_back(s);
      pairs_rate.push_back(static_cast<double>(decided_pairs(r.search.stats)) / s);
      report.count("runs",
                   r.search.edges == first.search.edges &&
                       r.clustering.clusters == first.clustering.clusters,
                   "timed run differs from the first set-up run");
    } catch (const std::exception& e) {
      report.count("runs", false, e.what());
      if (total.seconds() > opt.seconds) break;
    }
  }
  const double rss = peak_rss_mib();
  const double wall = median(run_s);
  report.note("timed run seconds: " + join_samples(run_s));

  // ---- replay + checks (untimed) --------------------------------------------
  util::Timer replay_wall;
  const Replay rp = replay_search(data.seqs, cfg, model, pool, spans);
  const double traced_wall = replay_wall.seconds();
  report.count("checks", rp.edges == first.search.edges,
               "replayed edges differ from the end-to-end edges");
  report.count("checks", rp.clusters == first.clustering.clusters,
               "replayed MCL clusters differ from the end-to-end clusters");

  double recall = edge_recall(first.search.edges, rp.edges);
  if (screened) {
    const auto exact = exact_edges(opt, data.seqs, cfg, model, pool);
    recall = edge_recall(first.search.edges, exact);
    std::set<std::pair<std::uint32_t, std::uint32_t>> keys;
    for (const auto& e : exact) keys.emplace(e.seq_a, e.seq_b);
    bool subset = true;
    for (const auto& e : first.search.edges) {
      subset = subset && keys.count({e.seq_a, e.seq_b}) != 0;
    }
    report.count("checks", subset,
                 "screened edges are not a subset of the cascade-off edges");
  }

  // ---- end-to-end metrics ------------------------------------------------------
  const auto labels = gen::family_labels(data);
  const double f1 =
      cluster::score_against_classes(first.clustering.clusters, labels).f1();
  std::vector<double> run_ms;
  for (const double s : run_s) run_ms.push_back(1e3 * s);
  report.set("wall_s", wall, "s", run_s.size());
  report.set("pairs_per_s", median(pairs_rate), "1/s", pairs_rate.size());
  report.set("qps", static_cast<double>(n) / wall, "1/s", run_s.size());
  report.set("batch_p50_ms", percentile(run_ms, 0.5), "ms", run_ms.size());
  report.set("batch_p90_ms", percentile(run_ms, 0.9), "ms", run_ms.size());
  report.set("setup_s", median(setup_s), "s", setup_s.size());
  report.set("peak_rss_mb", rss, "MiB");
  report.set("recall", recall, "ratio", first.search.edges.size());
  report.set("cluster_f1", f1, "ratio", data.size());
  report.set("annot_acc", best_hit_accuracy(data, first.search.edges), "ratio",
             data.size());

  // ---- per-layer metrics (replay spans) --------------------------------------
  if (!opt.trace) return;
  LayerMetrics lm;
  lm.kmer_build_s = spans.total("kmer.build");
  lm.kmer_nnz = rp.kmer_nnz;
  lm.transpose_s = spans.total("dist.transpose");
  lm.stripes_s = spans.total("dist.stripes");
  lm.summa_s = spans.total("dist.summa");
  lm.spgemm_s = lm.summa_s;
  lm.spgemm = rp.spgemm;
  lm.extract_s = spans.total("core.extract");
  lm.candidates = rp.candidates;
  lm.kept = rp.kept;
  lm.cascade = rp.cascade;
  lm.tier0_s = spans.total("align.tier0");
  lm.tier1_s = spans.total("align.tier1");
  lm.tier2_s = spans.total("align.tier2");
  lm.tier2 = rp.tier2;
  lm.filter_s = spans.total("core.filter");
  lm.edges = rp.edges.size();
  lm.graph_s = spans.total("cluster.graph");
  lm.mcl_s = spans.total("cluster.mcl");
  lm.mcl_iters = rp.mcl_iters;
  lm.n_clusters = rp.clusters.n_clusters;
  lm.replay_wall_s = spans.total("run");
  lm.e2e_wall_s = wall;
  lm.traced_wall_s = traced_wall;
  const auto& st = first.search.stats;
  lm.modeled_total_s = st.t_total;
  const double comp =
      st.comp_spgemm + st.comp_sparse_other + st.comp_align + st.comp_other;
  lm.modeled_align_share = comp > 0.0 ? st.comp_align / comp : 0.0;
  lm.self_times = spans.self_times();
  lm.kernel = single_thread_kernels(
      [&](std::uint32_t id) { return std::string_view(data.seqs[id]); },
      rp.tier2_tasks, cfg, model);
  set_layer_metrics(lm, report);
}

}  // namespace perfbench
