#include "layers.hpp"

#include <algorithm>
#include <cstdio>

#include "core/stages.hpp"
#include "util/timer.hpp"

namespace perfbench {

namespace {

using namespace pastis;

constexpr std::size_t kSamplePairs = 96;
/// The tier-1 probe is cheap; its sample is repeated until this long.
constexpr double kMinProbeSeconds = 0.1;

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

align::BatchAligner replay_aligner(const core::PastisConfig& cfg,
                                   const sim::MachineModel& model,
                                   const util::ThreadPool& pool) {
  const align::BatchAligner base = core::make_batch_aligner(cfg, model);
  align::BatchAligner::Config c = base.config();
  c.devices = 8 * static_cast<int>(pool.size());
  return {base.scoring(), c};
}

KernelBaseline single_thread_kernels(
    const align::BatchAligner::SeqAccessor& seq_of,
    const std::vector<align::AlignTask>& tasks, const core::PastisConfig& cfg,
    const sim::MachineModel& model) {
  KernelBaseline out;
  if (tasks.empty()) return out;
  std::vector<align::AlignTask> sample;
  const std::size_t stride = std::max<std::size_t>(1, tasks.size() / kSamplePairs);
  for (std::size_t i = 0; i < tasks.size() && sample.size() < kSamplePairs;
       i += stride) {
    sample.push_back(tasks[i]);
  }

  const align::BatchAligner tier2 = core::make_batch_aligner(cfg, model);
  {
    align::BatchStats st;
    util::Timer t;
    (void)tier2.align_batch(seq_of, sample, &st, nullptr);
    out.tier2_mcups_1t = ratio(static_cast<double>(st.cells), 1e6 * t.seconds());
  }

  align::BatchAligner::Config c = tier2.config();
  c.kind = align::CascadeOptions::fast().tier1_kind;
  const align::BatchAligner probe(tier2.scoring(), c);
  align::BatchStats st;
  util::Timer t;
  do {
    (void)probe.align_batch(seq_of, sample, &st, nullptr);
  } while (t.seconds() < kMinProbeSeconds);
  out.tier1_mcups_1t = ratio(static_cast<double>(st.cells), 1e6 * t.seconds());
  return out;
}

void set_layer_metrics(const LayerMetrics& m, Report& r) {
  const auto& cs = m.cascade;
  const double t2_cells = static_cast<double>(m.tier2.cells);
  r.set("align.tier2_s", m.tier2_s, "s");
  r.set("align.tier2_pairs", static_cast<double>(m.tier2.pairs), "count");
  r.set("align.tier2_cells", t2_cells, "count");
  r.set("align.tier2_mcups", ratio(t2_cells, 1e6 * m.tier2_s), "MCUPS");
  r.set("align.tier2_mcups_1t", m.kernel.tier2_mcups_1t, "MCUPS", kSamplePairs);
  r.set("align.tier0_s", m.tier0_s, "s");
  r.set("align.tier0_pairs", static_cast<double>(cs.tier0.pairs_in), "count");
  r.set("align.tier0_pass_frac",
        ratio(static_cast<double>(cs.tier0.pairs_out),
              static_cast<double>(cs.tier0.pairs_in)),
        "ratio");
  r.set("align.tier0_cells", static_cast<double>(cs.tier0.cells), "count");
  r.set("align.tier1_s", m.tier1_s, "s");
  r.set("align.tier1_pairs", static_cast<double>(cs.tier1.pairs_in), "count");
  r.set("align.tier1_pass_frac",
        ratio(static_cast<double>(cs.tier1.pairs_out),
              static_cast<double>(cs.tier1.pairs_in)),
        "ratio");
  r.set("align.tier1_cells", static_cast<double>(cs.tier1.cells), "count");
  r.set("align.tier1_mcups",
        ratio(static_cast<double>(cs.tier1.cells), 1e6 * m.tier1_s), "MCUPS");
  r.set("align.tier1_mcups_1t", m.kernel.tier1_mcups_1t, "MCUPS", kSamplePairs);

  r.set("kmer.build_s", m.kmer_build_s, "s");
  r.set("kmer.nnz", static_cast<double>(m.kmer_nnz), "count");
  r.set("kmer.nnz_per_s", ratio(static_cast<double>(m.kmer_nnz), m.kmer_build_s),
        "1/s");
  r.set("dist.transpose_s", m.transpose_s, "s");
  r.set("dist.stripes_s", m.stripes_s, "s");
  r.set("dist.summa_s", m.summa_s, "s");
  r.set("sparse.products", static_cast<double>(m.spgemm.products), "count");
  r.set("sparse.out_nnz", static_cast<double>(m.spgemm.out_nnz), "count");
  r.set("sparse.products_per_s",
        ratio(static_cast<double>(m.spgemm.products), m.spgemm_s), "1/s");
  r.set("core.extract_s", m.extract_s, "s");
  r.set("core.candidates", static_cast<double>(m.candidates), "count");
  r.set("core.kept_frac",
        ratio(static_cast<double>(m.kept), static_cast<double>(m.candidates)),
        "ratio");
  r.set("core.filter_s", m.filter_s, "s");
  r.set("core.edge_yield",
        ratio(static_cast<double>(m.edges), static_cast<double>(m.tier2.pairs)),
        "ratio");

  r.set("exec.hidden_frac", 1.0 - ratio(m.e2e_wall_s, m.replay_wall_s), "ratio");
  r.set("trace.overhead_s", m.traced_wall_s - m.e2e_wall_s, "s");

  r.set("cluster.graph_s", m.graph_s, "s");
  r.set("cluster.mcl_s", m.mcl_s, "s");
  r.set("cluster.mcl_iters", m.mcl_iters, "count");
  r.set("cluster.n_clusters", static_cast<double>(m.n_clusters), "count");

  r.set("index.build_s", m.index_build_s, "s");
  r.set("index.save_s", m.index_save_s, "s");
  r.set("index.load_s", m.index_load_s, "s");
  r.set("index.bytes", static_cast<double>(m.index_bytes), "B");

  r.set("serve.cache_hit_frac", m.cache_hit_frac, "ratio");
  r.set("serve.discover_s", m.discover_s, "s");
  r.set("serve.align_s", m.serve_align_s, "s");
  r.set("serve.add_s", m.add_s, "s");
  r.set("serve.compact_s", m.compact_s, "s");
  r.set("serve.compactions", static_cast<double>(m.compactions), "count");
  r.set("serve.segments_max", static_cast<double>(m.segments_max), "count");

  // Modeled (sim::MachineModel) next to measured: the residual is the
  // modeled alignment share minus the measured tier-1 + tier-2 self-time
  // share.
  double self_total = 0.0;
  for (const auto& [name, s] : m.self_times) self_total += s;
  const auto self_of = [&](const std::string& name) {
    const auto it = m.self_times.find(name);
    return it == m.self_times.end() ? 0.0 : it->second;
  };
  const double measured_align_share =
      ratio(self_of("align.tier2") + self_of("align.tier1"), self_total);
  r.set("sim.modeled_total_s", m.modeled_total_s, "s");
  r.set("sim.align_share_modeled", m.modeled_align_share, "ratio");
  r.set("sim.align_share_measured", measured_align_share, "ratio");
  r.set("sim.align_share_residual", m.modeled_align_share - measured_align_share,
        "ratio");

  // The layer mix the workload was chosen for, from the replay's self times.
  std::vector<std::pair<double, std::string>> mix;
  for (const auto& [name, s] : m.self_times) mix.emplace_back(s, name);
  std::sort(mix.rbegin(), mix.rend());
  std::string line = "layer mix (replay self time, share):";
  for (std::size_t i = 0; i < mix.size() && i < 6; ++i) {
    char buf[96];
    std::snprintf(buf, sizeof buf, " %s %.3fs %.1f%%;", mix[i].second.c_str(),
                  mix[i].first, 100.0 * ratio(mix[i].first, self_total));
    line += buf;
  }
  r.note(line);
  r.set("align.tier1_self_share", ratio(self_of("align.tier1"), self_total), "ratio");
}

}  // namespace perfbench
