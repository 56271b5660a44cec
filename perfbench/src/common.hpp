// Shared pieces of the end-to-end benchmark: command-line options, the
// result report, sample statistics and the workload inputs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "gen/protein_gen.hpp"
#include "io/graph_io.hpp"
#include "spans.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

/// Host threads of the benchmark's pool (the pool also hosts the 4
/// simulated ranks); capped so runs on larger hosts stay comparable.
inline constexpr int kMaxThreads = 4;
/// Simulated ranks (a 2 x 2 process grid).
inline constexpr int kRanks = 4;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";  // span log + reference cache
  std::string commit = "unknown";
};

/// One reported metric: value, unit and how many samples it summarizes.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;
};

/// Attempted / failed operations of one phase (runs, batches, adds,
/// checks).
struct Phase {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 1) {
    if (metrics_.find(name) == metrics_.end()) order_.push_back(name);
    metrics_[name] = Metric{value, unit, samples};
  }

  Phase& phase(const std::string& name) {
    if (phases_.find(name) == phases_.end()) phase_order_.push_back(name);
    return phases_[name];
  }
  /// Counts one operation of `phase`; a false `ok` fails it and records
  /// `what` as the reason.
  void count(const std::string& phase, bool ok, const std::string& what = "");
  void note(const std::string& line) { notes_.push_back(line); }
  void context(const std::string& key, const std::string& value) {
    context_.emplace_back(key, value);
  }

  [[nodiscard]] std::uint64_t attempted() const;
  [[nodiscard]] std::uint64_t failed() const;

  /// Human-readable report (metrics with units and sample counts, phases,
  /// notes), then one JSON line with every metric, the phase counts and
  /// the run context, prefixed "PERFBENCH_RESULT ".
  void print() const;

 private:
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> order_;
  std::map<std::string, Phase> phases_;
  std::vector<std::string> phase_order_;
  std::vector<std::string> notes_;
  std::vector<std::pair<std::string, std::string>> context_;
};

// ---- sample statistics ------------------------------------------------------
[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 1].
[[nodiscard]] double percentile(std::vector<double> v, double p);

/// The samples, space separated, for the human-readable report.
[[nodiscard]] std::string join_samples(const std::vector<double>& v);

/// Peak resident set size of this process so far, in MiB (getrusage).
[[nodiscard]] double peak_rss_mib();

// ---- inputs -----------------------------------------------------------------
/// The metagenome-like validation family (families of about 12, 30% of
/// sequences carrying low-complexity motifs, shuffled order).
[[nodiscard]] pastis::gen::GenConfig metagenome_config(std::uint32_t n,
                                                       std::uint64_t seed);

/// Generator seed of every canonical input skeleton (the bench family's).
inline constexpr std::uint64_t kSkeletonSeed = 7;

/// Per-workload stream seed: the run's --seed salted by the workload so
/// the three workloads never share a draw.
[[nodiscard]] std::uint64_t input_seed(const Options& opt, std::uint64_t salt);

/// The seeded variant of a canonical dataset: sequences in a seed-drawn
/// order, each residue substituted with probability `sub_rate`. Family
/// structure and lengths are the skeleton's, so every seed carries about
/// the same work (the generator's family sizes and lengths are heavy
/// tailed: fresh draws differ in alignment work by factors of 2-3).
/// `order[i]` is the skeleton index of the variant's sequence i.
struct Variant {
  pastis::gen::Dataset data;
  std::vector<std::size_t> order;
};
[[nodiscard]] Variant seeded_variant(const pastis::gen::Dataset& skeleton,
                                     std::uint64_t seed, double sub_rate);

// ---- edges ------------------------------------------------------------------
/// |found ∩ exact| / |exact| over canonical edge keys (1 for empty exact).
[[nodiscard]] double edge_recall(
    const std::vector<pastis::io::SimilarityEdge>& found,
    const std::vector<pastis::io::SimilarityEdge>& exact);

// ---- workloads ----------------------------------------------------------------
/// allvsall and screened: many-against-many search + MCL clustering.
void run_search_workload(const Options& opt, pastis::util::ThreadPool& pool,
                         SpanLog& spans, Report& report);
/// annotate: closed-loop query-vs-reference serving with index growth.
void run_annotate_workload(const Options& opt, pastis::util::ThreadPool& pool,
                           SpanLog& spans, Report& report);

}  // namespace perfbench
