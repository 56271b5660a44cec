#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <set>
#include <utility>

#include "util/rng.hpp"

namespace perfbench {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Report::count(const std::string& phase_name, bool ok,
                   const std::string& what) {
  Phase& p = phase(phase_name);
  ++p.attempted;
  if (!ok) {
    ++p.failed;
    if (!what.empty()) notes_.push_back("FAILED " + phase_name + ": " + what);
  }
}

std::uint64_t Report::attempted() const {
  std::uint64_t n = 0;
  for (const auto& [name, p] : phases_) n += p.attempted;
  return n;
}

std::uint64_t Report::failed() const {
  std::uint64_t n = 0;
  for (const auto& [name, p] : phases_) n += p.failed;
  return n;
}

void Report::print() const {
  std::printf("\n-- run context --\n");
  for (const auto& [k, v] : context_) std::printf("  %-18s %s\n", k.c_str(), v.c_str());
  std::printf("\n-- operations (attempted / failed / fail_frac) --\n");
  for (const auto& name : phase_order_) {
    const Phase& p = phases_.at(name);
    std::printf("  %-18s %8llu %8llu   %.4f\n", name.c_str(),
                static_cast<unsigned long long>(p.attempted),
                static_cast<unsigned long long>(p.failed),
                p.attempted == 0 ? 0.0
                                 : static_cast<double>(p.failed) /
                                       static_cast<double>(p.attempted));
  }
  std::printf("\n-- metrics (value, unit, samples) --\n");
  for (const auto& name : order_) {
    const Metric& m = metrics_.at(name);
    std::printf("  %-26s %16.6f %-7s n=%zu\n", name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  for (const auto& n : notes_) std::printf("%s\n", n.c_str());

  std::string j = "{\"correct\": ";
  j += failed() == 0 ? "true" : "false";
  j += ", \"attempted\": " + std::to_string(attempted());
  j += ", \"failed\": " + std::to_string(failed());
  j += ", \"metrics\": {";
  bool first = true;
  for (const auto& name : order_) {
    const Metric& m = metrics_.at(name);
    j += first ? "" : ", ";
    first = false;
    j += "\"" + json_escape(name) + "\": {\"value\": " + json_number(m.value) +
         ", \"unit\": \"" + json_escape(m.unit) +
         "\", \"samples\": " + std::to_string(m.samples) + "}";
  }
  j += "}, \"phases\": {";
  first = true;
  for (const auto& name : phase_order_) {
    const Phase& p = phases_.at(name);
    j += first ? "" : ", ";
    first = false;
    j += "\"" + json_escape(name) + "\": {\"attempted\": " +
         std::to_string(p.attempted) + ", \"failed\": " +
         std::to_string(p.failed) + "}";
  }
  j += "}, \"context\": {";
  first = true;
  for (const auto& [k, v] : context_) {
    j += first ? "" : ", ";
    first = false;
    j += "\"" + json_escape(k) + "\": \"" + json_escape(v) + "\"";
  }
  j += "}}";
  std::printf("PERFBENCH_RESULT %s\n", j.c_str());
  std::fflush(stdout);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

std::string join_samples(const std::vector<double>& v) {
  std::string out;
  for (const double x : v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.4f", out.empty() ? "" : " ", x);
    out += buf;
  }
  return out;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

pastis::gen::GenConfig metagenome_config(std::uint32_t n, std::uint64_t seed) {
  pastis::gen::GenConfig g;
  g.n_sequences = n;
  g.seed = seed;
  g.mean_length = 250.0;
  g.max_length = 2000;
  g.mean_family_size = 12;
  g.low_complexity_prob = 0.3;
  g.low_complexity_motifs = 16;
  g.shuffle_order = true;
  return g;
}

std::uint64_t input_seed(const Options& opt, std::uint64_t salt) {
  return opt.seed * 1000003ULL + salt;
}

Variant seeded_variant(const pastis::gen::Dataset& skeleton, std::uint64_t seed,
                       double sub_rate) {
  static const std::string aas = "ARNDCQEGHILKMFPSTWYV";
  pastis::util::Xoshiro256 rng(seed);
  Variant v;
  v.order.resize(skeleton.size());
  std::iota(v.order.begin(), v.order.end(), std::size_t{0});
  for (std::size_t i = v.order.size(); i > 1; --i) {
    std::swap(v.order[i - 1], v.order[rng.below(i)]);
  }
  for (const std::size_t src : v.order) {
    std::string s = skeleton.seqs[src];
    for (auto& c : s) {
      if (rng.chance(sub_rate)) c = aas[rng.below(aas.size())];
    }
    v.data.seqs.push_back(std::move(s));
    v.data.ids.push_back(skeleton.ids[src]);
    v.data.family.push_back(skeleton.family[src]);
    v.data.is_fragment.push_back(skeleton.is_fragment[src]);
  }
  return v;
}

double edge_recall(const std::vector<pastis::io::SimilarityEdge>& found,
                   const std::vector<pastis::io::SimilarityEdge>& exact) {
  if (exact.empty()) return 1.0;
  std::set<std::pair<std::uint32_t, std::uint32_t>> keys;
  for (const auto& e : found) keys.emplace(e.seq_a, e.seq_b);
  std::size_t hit = 0;
  for (const auto& e : exact) hit += keys.count({e.seq_a, e.seq_b});
  return static_cast<double>(hit) / static_cast<double>(exact.size());
}

}  // namespace perfbench
