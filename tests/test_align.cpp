// Alignment kernel tests: Smith-Waterman against an independent reference
// DP, the SIMD lane kernel against the scalar one, banded/x-drop variants,
// and the ADEPT-style batch driver.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "align/banded.hpp"
#include "align/batch.hpp"
#include "align/smith_waterman.hpp"
#include "align/sw_lanes.hpp"
#include "align/xdrop.hpp"
#include "gen/protein_gen.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace pa = pastis::align;

namespace {

const pa::Scoring& scoring() {
  static const pa::Scoring s = pa::Scoring::pastis_default();
  return s;
}

/// Independent reference: full-matrix Gotoh with explicit 2D tables.
int reference_sw_score(const std::string& q, const std::string& r,
                       const pa::Scoring& sc) {
  const int m = static_cast<int>(q.size());
  const int n = static_cast<int>(r.size());
  if (m == 0 || n == 0) return 0;
  const int go = sc.gap_open() + sc.gap_extend();
  const int ge = sc.gap_extend();
  constexpr int kNegInf = -(1 << 28);
  std::vector<std::vector<int>> H(m + 1, std::vector<int>(n + 1, 0));
  std::vector<std::vector<int>> E(m + 1, std::vector<int>(n + 1, kNegInf));
  std::vector<std::vector<int>> F(m + 1, std::vector<int>(n + 1, kNegInf));
  int best = 0;
  for (int i = 1; i <= m; ++i) {
    for (int j = 1; j <= n; ++j) {
      E[i][j] = std::max(H[i][j - 1] - go, E[i][j - 1] - ge);
      F[i][j] = std::max(H[i - 1][j] - go, F[i - 1][j] - ge);
      const int diag = H[i - 1][j - 1] + sc.score_chars(q[i - 1], r[j - 1]);
      H[i][j] = std::max({0, diag, E[i][j], F[i][j]});
      best = std::max(best, H[i][j]);
    }
  }
  return best;
}

std::string random_protein(pastis::util::Xoshiro256& rng, std::size_t len) {
  static const std::string aas = "ARNDCQEGHILKMFPSTWYV";
  std::string s(len, 'A');
  for (auto& c : s) c = aas[rng.below(aas.size())];
  return s;
}

/// Every AlignResult field, so a lane result can only pass by being the
/// scalar result.
void expect_same_result(const pa::AlignResult& got,
                        const pa::AlignResult& want, const std::string& what) {
  EXPECT_EQ(got.score, want.score) << what;
  EXPECT_EQ(got.beg_q, want.beg_q) << what;
  EXPECT_EQ(got.end_q, want.end_q) << what;
  EXPECT_EQ(got.beg_r, want.beg_r) << what;
  EXPECT_EQ(got.end_r, want.end_r) << what;
  EXPECT_EQ(got.matches, want.matches) << what;
  EXPECT_EQ(got.align_len, want.align_len) << what;
  EXPECT_EQ(got.cells, want.cells) << what;
}

/// Runs `pairs` through every lane body this host supports (and through the
/// dispatched entry point) and checks each result against smith_waterman.
void expect_lanes_match_scalar(
    const std::vector<std::pair<std::string, std::string>>& pairs,
    const pa::Scoring& sc = scoring()) {
  std::vector<std::string_view> q, r;
  std::vector<pa::AlignResult> want;
  for (const auto& [a, b] : pairs) {
    q.emplace_back(a);
    r.emplace_back(b);
    want.push_back(pa::smith_waterman(a, b, sc));
  }
  std::vector<std::size_t> widths = pa::detail::sw_lane_bodies();
  widths.push_back(0);  // 0 = the dispatched smith_waterman_lanes
  for (const std::size_t w : widths) {
    std::vector<pa::AlignResult> out(pairs.size());
    if (w == 0) {
      pa::smith_waterman_lanes(q, r, sc, out);
    } else {
      pa::detail::smith_waterman_lanes_on(w, q, r, sc, out);
    }
    for (std::size_t k = 0; k < pairs.size(); ++k) {
      expect_same_result(out[k], want[k],
                         "width " + std::to_string(w) + " pair " +
                             std::to_string(k) + " (" +
                             std::to_string(q[k].size()) + "x" +
                             std::to_string(r[k].size()) + ")");
    }
  }
}

}  // namespace

TEST(Scoring, Blosum62KnownValues) {
  const auto& sc = scoring();
  EXPECT_EQ(sc.score_chars('A', 'A'), 4);
  EXPECT_EQ(sc.score_chars('W', 'W'), 11);
  EXPECT_EQ(sc.score_chars('A', 'W'), -3);
  EXPECT_EQ(sc.score_chars('E', 'D'), 2);
  EXPECT_EQ(sc.score_chars('a', 'a'), 4);  // case-insensitive
}

TEST(Scoring, SymmetricMatrix) {
  const auto& sc = scoring();
  const auto residues = pa::scoring_residues();
  for (char a : residues) {
    for (char b : residues) {
      EXPECT_EQ(sc.score_chars(a, b), sc.score_chars(b, a));
    }
  }
}

TEST(Scoring, UnknownFoldsToX) {
  const auto& sc = scoring();
  EXPECT_EQ(sc.score_chars('?', 'A'), sc.score_chars('X', 'A'));
  EXPECT_EQ(sc.score_chars('U', 'U'), sc.score_chars('C', 'C'));
}

TEST(Scoring, RejectsNegativeGaps) {
  EXPECT_THROW(pa::Scoring(pa::Scoring::Matrix::kBlosum62, -1, 2),
               std::invalid_argument);
}

TEST(Scoring, AlternativeMatricesDiffer) {
  const pa::Scoring b45(pa::Scoring::Matrix::kBlosum45, 11, 2);
  const pa::Scoring p250(pa::Scoring::Matrix::kPam250, 11, 2);
  EXPECT_EQ(b45.score_chars('A', 'A'), 5);
  EXPECT_EQ(p250.score_chars('W', 'W'), 17);
}

TEST(SmithWaterman, IdenticalSequences) {
  const std::string s = "MKVLAETGWT";
  const auto res = pa::smith_waterman(s, s, scoring());
  int self = 0;
  for (char c : s) self += scoring().score_chars(c, c);
  EXPECT_EQ(res.score, self);
  EXPECT_DOUBLE_EQ(res.identity(), 1.0);
  EXPECT_DOUBLE_EQ(res.coverage(s.size(), s.size()), 1.0);
  EXPECT_EQ(res.beg_q, 0u);
  EXPECT_EQ(res.end_q, s.size());
  EXPECT_EQ(res.cells, s.size() * s.size());
}

TEST(SmithWaterman, EmptyInputs) {
  const auto res = pa::smith_waterman("", "AAA", scoring());
  EXPECT_EQ(res.score, 0);
  EXPECT_EQ(res.align_len, 0u);
  EXPECT_DOUBLE_EQ(res.identity(), 0.0);
}

TEST(SmithWaterman, LocalAlignmentFindsEmbeddedMatch) {
  // The shared core "WWWWW" sits inside unrelated flanks.
  const std::string q = "AAAAAAWWWWWAAAAAA";
  const std::string r = "GGGGGGGGWWWWWGG";
  const auto res = pa::smith_waterman(q, r, scoring());
  EXPECT_EQ(res.beg_q, 6u);
  EXPECT_EQ(res.end_q, 11u);
  EXPECT_EQ(res.beg_r, 8u);
  EXPECT_EQ(res.end_r, 13u);
  EXPECT_EQ(res.matches, 5u);
  EXPECT_EQ(res.align_len, 5u);
  EXPECT_EQ(res.score, 5 * 11);
}

TEST(SmithWaterman, GapCostsAffine) {
  // One gap of length 2 should cost open + 2*extend once, not twice.
  const std::string q = "WWWWWWWW";
  const std::string r = "WWWWCCWWWW";  // needs a 2-gap in q
  const auto res = pa::smith_waterman(q, r, scoring());
  const int go = scoring().gap_open() + scoring().gap_extend();
  const int ge = scoring().gap_extend();
  EXPECT_EQ(res.score, 8 * 11 - (go + ge));
}

TEST(SmithWaterman, ScoreVariantAgreesWithFull) {
  pastis::util::Xoshiro256 rng(5);
  for (int t = 0; t < 30; ++t) {
    const auto q = random_protein(rng, 10 + rng.below(80));
    const auto r = random_protein(rng, 10 + rng.below(80));
    EXPECT_EQ(pa::smith_waterman(q, r, scoring()).score,
              pa::smith_waterman_score(q, r, scoring()));
  }
}

class SwRandomSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SwRandomSweep, MatchesReferenceDp) {
  pastis::util::Xoshiro256 rng(GetParam());
  const auto q = random_protein(rng, 5 + rng.below(120));
  const auto r = random_protein(rng, 5 + rng.below(120));
  const auto res = pa::smith_waterman(q, r, scoring());
  EXPECT_EQ(res.score, reference_sw_score(q, r, scoring()));
  EXPECT_EQ(res.score, pa::smith_waterman(r, q, scoring()).score);  // symmetry
  // Path statistics invariants.
  EXPECT_LE(res.matches, res.align_len);
  EXPECT_LE(res.beg_q, res.end_q);
  EXPECT_LE(res.beg_r, res.end_r);
  EXPECT_LE(res.end_q, q.size());
  EXPECT_LE(res.end_r, r.size());
  EXPECT_GE(res.align_len, std::max(res.end_q - res.beg_q, res.end_r - res.beg_r));
  const double cov = res.coverage(q.size(), r.size());
  EXPECT_GE(cov, 0.0);
  EXPECT_LE(cov, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SwRandomSweep,
                         ::testing::Range<std::uint64_t>(100, 140));

TEST(SmithWaterman, MutatedCopyScoresHighIdentity) {
  pastis::util::Xoshiro256 rng(77);
  const auto base = random_protein(rng, 300);
  std::string mut = base;
  for (auto& c : mut) {
    if (rng.chance(0.05)) c = random_protein(rng, 1)[0];
  }
  const auto res = pa::smith_waterman(base, mut, scoring());
  EXPECT_GT(res.identity(), 0.85);
  EXPECT_GT(res.coverage(base.size(), mut.size()), 0.95);
}

TEST(SwLanes, DispatchedWidthIsTheWidestBody) {
  const auto bodies = pa::detail::sw_lane_bodies();
  EXPECT_EQ(pa::sw_lane_width(), bodies.empty() ? 0 : bodies.front());
  for (const std::size_t w : bodies) EXPECT_LE(w, pa::kMaxSwLanes);
  EXPECT_TRUE(pa::sw_lanes_fit(65534, 0));
  EXPECT_FALSE(pa::sw_lanes_fit(65000, 535));

  const std::vector<std::string_view> q = {"MKV", "WW"}, r = {"MKV"};
  std::vector<pa::AlignResult> out(2);
  EXPECT_THROW(pa::smith_waterman_lanes(q, r, scoring(), out),
               std::invalid_argument);
  EXPECT_THROW(pa::detail::smith_waterman_lanes_on(3, q, q, scoring(), out),
               std::invalid_argument);
}

TEST(SwLanes, GeneratorPairsMatchScalar) {
  pastis::gen::GenConfig gc;
  gc.seed = 11;
  gc.n_sequences = 96;
  gc.mean_length = 160.0;
  gc.max_length = 700;
  const auto d = pastis::gen::generate_proteins(gc);
  // Consecutive sequences (family members sit together unshuffled) plus
  // strided unrelated ones, in groups of mixed lengths.
  std::vector<std::pair<std::string, std::string>> pairs;
  for (std::size_t i = 0; i + 1 < d.size(); ++i) {
    pairs.emplace_back(d.seqs[i], d.seqs[i + 1]);
    pairs.emplace_back(d.seqs[i], d.seqs[(i * 37 + 5) % d.size()]);
  }
  expect_lanes_match_scalar(pairs);
  // The alternative matrices and gap costs take the same lanes.
  const pa::Scoring pam(pa::Scoring::Matrix::kPam250, 3, 1);
  pairs.resize(40);
  expect_lanes_match_scalar(pairs, pam);
}

TEST(SwLanes, EveryLaneOccupancyMatchesScalar) {
  pastis::util::Xoshiro256 rng(71);
  for (std::size_t occupied = 1; occupied <= pa::kMaxSwLanes + 1; ++occupied) {
    std::vector<std::pair<std::string, std::string>> pairs;
    const std::string anchor = random_protein(rng, 90);
    for (std::size_t k = 0; k < occupied; ++k) {
      std::string q = random_protein(rng, 20 + rng.below(100));
      std::string r = random_protein(rng, 20 + rng.below(100));
      if (k % 2 == 0) {  // related lanes: long positive paths
        q += anchor.substr(0, 30 + rng.below(60));
        r = anchor.substr(rng.below(20)) + r;
      }
      pairs.emplace_back(std::move(q), std::move(r));
    }
    expect_lanes_match_scalar(pairs);
  }
}

TEST(SwLanes, EdgeCaseSequencesMatchScalar) {
  const std::vector<std::pair<std::string, std::string>> pairs = {
      {"", ""},
      {"", "MKV"},
      {"MKV", ""},
      {"W", "W"},
      {"W", "A"},
      {"A", "MKVLAETGWT"},
      {"mkvlaetgwt", "MKVLAETGWT"},       // lowercase encodes like uppercase
      {"MKV*XUOJ", "mkv*xuoj"},           // stop, unknown and folded letters
      {"UUUU", "CCCC"},                   // U folds to C: matches count
      {"OOJJ", "KKLL"},
      {"XXXXXXXX", "XXXX"},
      {"??##", "XXXX"},                   // unknown characters map to X
      {"ACDEFGHIKLMNPQRSTVWYBZX*", "*XZBYWVTSRQPNMLKIHGFEDCA"},
  };
  expect_lanes_match_scalar(pairs);
}

TEST(SwLanes, MismatchAndTieHeavyPairsMatchScalar) {
  const std::vector<std::pair<std::string, std::string>> pairs = {
      {"WWWWWWWW", "PPPPPPPPPPPP"},   // all mismatch: score 0, empty window
      {"GGGGGG", "WWWWWWWWW"},
      {"WWWW", "WWWW"},
      {"WWWW", "WWWWWWWWWWWW"},       // many equal-scoring placements
      {"WWWWWWWWWWWW", "WWWW"},
      {"AAAAAAAAAAAAAAAAAAAA", "AAAAAAAAAA"},
      {"WAWAWAWAWAWAWAWAWAWA", "AWAWAWAWAWAWAW"},  // periodic motifs
      {"MKVMKVMKVMKVMKVMKV", "KVMKVMKVMKVM"},
      {"WWWWCCWWWW", "WWWWWWWW"},     // ties between gap placements
      {"CWCWCWCWCW", "WCWCWCWC"},
      {"ACACACACACACACAC", "CACACACA"},
      {"QQQQQQQQQQNNNNNNNNNN", "NNNNNNNNNNQQQQQQQQQQ"},
  };
  expect_lanes_match_scalar(pairs);
  // The same pairs with free gaps, where E/F ties with H are everywhere.
  const pa::Scoring free_gaps(pa::Scoring::Matrix::kBlosum62, 0, 0);
  expect_lanes_match_scalar(pairs, free_gaps);
}

TEST(SwLanes, PackingLimitAndOverLongPairs) {
  pastis::util::Xoshiro256 rng(83);
  // m + n = 65534: the longest pair the packed statistics hold, aligned
  // near the end of the query so beg_q uses the top bit of its 16.
  const std::string r = random_protein(rng, 40);
  std::string q = random_protein(rng, 65534 - 40 - 40) + r;
  q += random_protein(rng, 65534 - 40 - q.size());
  ASSERT_TRUE(pa::sw_lanes_fit(q.size(), r.size()));
  ASSERT_FALSE(pa::sw_lanes_fit(q.size() + 1, r.size()));
  // m + n = 65535 and beyond take the scalar kernel, alone or mixed into a
  // group with fitting pairs.
  std::vector<std::pair<std::string, std::string>> pairs = {
      {q, r}, {q + "W", r}, {r, q + "WW"}, {"MKVLAETGWT", "MKVLAETGWT"}};
  expect_lanes_match_scalar(pairs);
  const auto res = pa::smith_waterman(q, r, scoring());
  EXPECT_GT(res.beg_q, 32768u);
  EXPECT_EQ(res.matches, 40u);
}

TEST(Banded, FullWidthEqualsUnbanded) {
  pastis::util::Xoshiro256 rng(31);
  for (int t = 0; t < 10; ++t) {
    const auto q = random_protein(rng, 20 + rng.below(60));
    const auto r = random_protein(rng, 20 + rng.below(60));
    const auto full = pa::smith_waterman(q, r, scoring());
    const auto band = pa::banded_smith_waterman(
        q, r, scoring(), 0, static_cast<int>(q.size() + r.size()));
    EXPECT_EQ(band.score, full.score);
    EXPECT_EQ(band.matches, full.matches);
  }
}

TEST(Banded, NarrowBandNeverBeatsFull) {
  pastis::util::Xoshiro256 rng(37);
  for (int t = 0; t < 10; ++t) {
    const auto q = random_protein(rng, 50);
    const auto r = random_protein(rng, 50);
    const auto full = pa::smith_waterman(q, r, scoring());
    const auto band = pa::banded_smith_waterman(q, r, scoring(), 0, 5);
    EXPECT_LE(band.score, full.score);
    EXPECT_LT(band.cells, full.cells);
  }
}

TEST(Banded, FindsOnDiagonalMatch) {
  const std::string q = "AAAWWWWWAAA";
  const std::string r = "CCCWWWWWCCC";
  const auto res = pa::banded_smith_waterman(q, r, scoring(), 0, 3);
  EXPECT_EQ(res.score, 5 * 11);
}

TEST(XDrop, ExactSeedExtendsFully) {
  const std::string s = "MKVLAETGWTMKVLAETGWT";
  const auto res = pa::xdrop_extend(s, s, 5, 5, 6, scoring(), 20);
  EXPECT_EQ(res.beg_q, 0u);
  EXPECT_EQ(res.end_q, s.size());
  EXPECT_DOUBLE_EQ(res.identity(), 1.0);
}

TEST(XDrop, StopsAtScoreDrop) {
  // Seed match surrounded by strong mismatches; extension must stop early.
  const std::string q = "PPPPPWWWWWWPPPPP";
  const std::string r = "GGGGGWWWWWWGGGGG";
  const auto res = pa::xdrop_extend(q, r, 5, 5, 6, scoring(), 10);
  EXPECT_GE(res.beg_q, 3u);
  EXPECT_LE(res.end_q, 13u);
  EXPECT_EQ(res.matches, 6u);
}

TEST(XDrop, MalformedSeedReturnsEmpty) {
  const auto res = pa::xdrop_extend("AAA", "AAA", 2, 0, 6, scoring(), 10);
  EXPECT_EQ(res.score, 0);
}

TEST(Batch, ResultsMatchIndividualCalls) {
  pastis::util::Xoshiro256 rng(53);
  std::vector<std::string> seqs;
  for (int i = 0; i < 12; ++i) seqs.push_back(random_protein(rng, 40 + rng.below(60)));

  std::vector<pa::AlignTask> tasks;
  for (std::uint32_t i = 0; i < 12; ++i) {
    for (std::uint32_t j = i + 1; j < 12; j += 3) tasks.push_back({i, j, 0, 0});
  }
  pa::BatchAligner::Config cfg;
  cfg.devices = 3;
  const pa::BatchAligner aligner(scoring(), cfg);
  auto seq_of = [&](std::uint32_t id) { return std::string_view(seqs[id]); };

  pa::BatchStats stats;
  const auto results = aligner.align_batch(seq_of, tasks, &stats);
  ASSERT_EQ(results.size(), tasks.size());
  std::uint64_t cells = 0;
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    const auto ref =
        pa::smith_waterman(seqs[tasks[t].q_id], seqs[tasks[t].r_id], scoring());
    EXPECT_EQ(results[t].score, ref.score);
    EXPECT_EQ(results[t].matches, ref.matches);
    cells += ref.cells;
  }
  EXPECT_EQ(stats.cells, cells);
  EXPECT_EQ(stats.pairs, tasks.size());
  EXPECT_GT(stats.kernel_seconds, 0.0);
}

TEST(Batch, DeviceCountDoesNotChangeResults) {
  pastis::util::Xoshiro256 rng(59);
  std::vector<std::string> seqs;
  for (int i = 0; i < 8; ++i) seqs.push_back(random_protein(rng, 50));
  std::vector<pa::AlignTask> tasks;
  for (std::uint32_t i = 0; i + 1 < 8; ++i) tasks.push_back({i, i + 1, 0, 0});
  auto seq_of = [&](std::uint32_t id) { return std::string_view(seqs[id]); };

  pa::BatchAligner::Config c1, c6;
  c1.devices = 1;
  c6.devices = 6;
  const auto r1 = pa::BatchAligner(scoring(), c1).align_batch(seq_of, tasks);
  const auto r6 = pa::BatchAligner(scoring(), c6).align_batch(seq_of, tasks);
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    EXPECT_EQ(r1[t].score, r6[t].score);
    EXPECT_EQ(r1[t].matches, r6[t].matches);
  }
}

TEST(Batch, PoolExecutionMatchesInline) {
  pastis::util::Xoshiro256 rng(61);
  std::vector<std::string> seqs;
  for (int i = 0; i < 10; ++i) seqs.push_back(random_protein(rng, 60));
  std::vector<pa::AlignTask> tasks;
  for (std::uint32_t i = 0; i < 10; ++i) {
    for (std::uint32_t j = i + 1; j < 10; ++j) tasks.push_back({i, j, 0, 0});
  }
  auto seq_of = [&](std::uint32_t id) { return std::string_view(seqs[id]); };
  const pa::BatchAligner aligner(scoring(), {});
  pastis::util::ThreadPool pool(4);
  const auto inline_res = aligner.align_batch(seq_of, tasks);
  const auto pooled_res = aligner.align_batch(seq_of, tasks, nullptr, &pool);
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    EXPECT_EQ(inline_res[t].score, pooled_res[t].score);
  }
}

TEST(Batch, BandedModeUsesSeeds) {
  const std::string a = "AAAAAAWWWWWWAAAAAA";
  const std::string b = "CCCCCCWWWWWWCCCCCC";
  pa::BatchAligner::Config cfg;
  cfg.kind = pa::AlignKind::kBanded;
  cfg.band_half_width = 4;
  const pa::BatchAligner aligner(scoring(), cfg);
  std::vector<pa::AlignTask> tasks = {{0, 1, 6, 6}};
  std::vector<std::string> seqs = {a, b};
  const auto res = aligner.align_batch(
      [&](std::uint32_t id) { return std::string_view(seqs[id]); }, tasks);
  EXPECT_EQ(res[0].score, 6 * 11);
}

TEST(Batch, AlignTasksMatchesPerPairKernelsAcrossPools) {
  pastis::gen::GenConfig gc;
  gc.seed = 19;
  gc.n_sequences = 60;
  gc.mean_length = 120.0;
  gc.max_length = 500;
  const auto d = pastis::gen::generate_proteins(gc);
  std::vector<std::string> seqs = d.seqs;
  seqs.push_back("");
  seqs.push_back("W");
  auto seq_of = [&](std::uint32_t id) { return std::string_view(seqs[id]); };
  std::vector<pa::AlignTask> tasks;
  const auto n = static_cast<std::uint32_t>(seqs.size());
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = i + 1; j < n; j += 1 + (i % 4)) {
      tasks.push_back({i, j, 0, 0});
    }
  }

  for (const pa::AlignKind kind : {pa::AlignKind::kFullSW, pa::AlignKind::kBanded}) {
    pa::BatchAligner::Config cfg;
    cfg.kind = kind;
    const pa::BatchAligner aligner(scoring(), cfg);
    std::vector<pa::AlignResult> want;
    for (const auto& task : tasks) {
      want.push_back(aligner.align_one_task(seq_of, task));
    }
    for (const std::size_t threads : {1, 2, 8}) {
      pastis::util::ThreadPool pool(threads);
      std::vector<pa::AlignResult> got(tasks.size());
      aligner.align_tasks(seq_of, tasks, got, &pool);
      for (std::size_t t = 0; t < tasks.size(); ++t) {
        expect_same_result(got[t], want[t],
                           "kind " + std::to_string(static_cast<int>(kind)) +
                               " pool " + std::to_string(threads) + " task " +
                               std::to_string(t));
      }
    }
    // Inline execution and the batch entry points agree too.
    std::vector<pa::AlignResult> inline_res(tasks.size());
    aligner.align_tasks(seq_of, tasks, inline_res, nullptr);
    const auto batch_res = aligner.align_batch(seq_of, tasks);
    ASSERT_EQ(batch_res.size(), tasks.size());
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      expect_same_result(batch_res[t], inline_res[t], "batch " + std::to_string(t));
    }
  }
  // Every task list size, including lane tails under a quarter full.
  const pa::BatchAligner aligner(scoring(), {});
  for (std::size_t count = 0; count <= 2 * pa::kMaxSwLanes + 3; ++count) {
    const std::span<const pa::AlignTask> head(tasks.data(), count);
    std::vector<pa::AlignResult> got(count);
    aligner.align_tasks(seq_of, head, got, nullptr);
    for (std::size_t t = 0; t < count; ++t) {
      expect_same_result(got[t], aligner.align_one_task(seq_of, head[t]),
                         "count " + std::to_string(count));
    }
  }
}
