#include "align/sw_lanes.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <stdexcept>

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define PASTIS_SW_LANES_X86 1
#include <immintrin.h>
#endif

namespace pastis::align {

namespace {

/// Residue codes are < kScoreAlphabet; code kPadCode pads the shorter pairs
/// of a group up to the group's dimensions.
constexpr std::int32_t kPadCode = kScoreAlphabet;
/// Row stride of the flattened score table (query code * kTableStride +
/// reference code).
constexpr std::int32_t kTableStride = 32;
/// Score of any cell on a padded row or column. Padded cells lie right of
/// or below every real cell of their lane, so they never feed a real cell.
/// Every padded H is an earlier H plus this score or minus a gap penalty,
/// so it never exceeds the running best and cannot win the strict-`>`
/// best update. Any score <= 0 gives that; this one (below minus any
/// reachable H, |int8 entry| * 65535 < 2^23) also zeroes padded diagonals.
constexpr std::int32_t kPadScore = -(1 << 24);

/// Raw-pointer view of one group's workspace: what the ISA regions see.
struct LaneArgs {
  const std::int32_t* table = nullptr;  // kTableStride^2 scores
  const std::int32_t* qmul = nullptr;   // [m][W] query code * kTableStride
  const std::int32_t* rcode = nullptr;  // [n][W] reference code
  std::int32_t* h = nullptr;            // [n + 1][W] H row
  std::int32_t* f = nullptr;            // [n + 1][W] F row
  std::uint32_t* hb = nullptr;  // [n + 1][W] H path stats: beg_q<<16 | beg_r
  std::uint32_t* hm = nullptr;  //                          matches<<16 | len
  std::uint32_t* fb = nullptr;  // [n + 1][W] F path stats, same packing
  std::uint32_t* fm = nullptr;
  std::int32_t* best = nullptr;  // [W] outputs
  std::uint32_t* best_i = nullptr;
  std::uint32_t* best_j = nullptr;
  std::uint32_t* best_b = nullptr;
  std::uint32_t* best_m = nullptr;
  std::size_t m = 0;          // group rows (longest query)
  std::size_t n = 0;          // group columns (longest reference)
  std::int32_t go = 0;        // gap_open + gap_extend
  std::int32_t ge = 0;        // gap_extend
};

using KernelFn = void (*)(const LaneArgs&);

}  // namespace

}  // namespace pastis::align

#ifdef PASTIS_SW_LANES_X86

#pragma GCC push_options
#pragma GCC target("arch=x86-64-v4")
namespace pastis::align {
namespace {
namespace v4 {
constexpr std::size_t kW = 16;
typedef std::int32_t vi __attribute__((vector_size(64), may_alias));
typedef std::uint32_t vu __attribute__((vector_size(64), may_alias));
vi gather(const std::int32_t* table, vi idx) {
  return (vi)_mm512_mask_i32gather_epi32(_mm512_setzero_si512(),
                                         (__mmask16)0xFFFF, (__m512i)idx,
                                         table, 4);
}
#include "align/sw_lanes_kernel.inc"
}  // namespace v4
}  // namespace
}  // namespace pastis::align
#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("arch=x86-64-v3")
namespace pastis::align {
namespace {
namespace v3 {
constexpr std::size_t kW = 8;
typedef std::int32_t vi __attribute__((vector_size(32), may_alias));
typedef std::uint32_t vu __attribute__((vector_size(32), may_alias));
vi gather(const std::int32_t* table, vi idx) {
  return (vi)_mm256_mask_i32gather_epi32(_mm256_setzero_si256(), table,
                                         (__m256i)idx,
                                         _mm256_set1_epi32(-1), 4);
}
#include "align/sw_lanes_kernel.inc"
}  // namespace v3
}  // namespace
}  // namespace pastis::align
#pragma GCC pop_options

#endif  // PASTIS_SW_LANES_X86

namespace pastis::align {

namespace {

struct Body {
  std::size_t width;
  KernelFn fn;
};

/// Vector bodies this CPU runs, widest first.
const std::vector<Body>& bodies() {
  static const std::vector<Body> list = [] {
    std::vector<Body> v;
#ifdef PASTIS_SW_LANES_X86
    __builtin_cpu_init();  // safe even when first called before main
    if (__builtin_cpu_supports("x86-64-v4")) v.push_back({v4::kW, &v4::kernel});
    if (__builtin_cpu_supports("x86-64-v3")) v.push_back({v3::kW, &v3::kernel});
#endif
    return v;
  }();
  return list;
}

/// Grow-only 64-byte-aligned DP workspace, one per thread.
class Workspace {
 public:
  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;
  ~Workspace() { std::free(buf_); }

  std::int32_t* reserve(std::size_t ints) {
    if (ints > cap_) {
      const std::size_t bytes = (ints * sizeof(std::int32_t) + 63) / 64 * 64;
      void* p = std::aligned_alloc(64, bytes);
      if (p == nullptr) throw std::bad_alloc();
      std::free(buf_);
      buf_ = static_cast<std::int32_t*>(p);
      cap_ = bytes / sizeof(std::int32_t);
    }
    return buf_;
  }

 private:
  std::int32_t* buf_ = nullptr;
  std::size_t cap_ = 0;
};

thread_local Workspace tls_workspace;

/// One vector pass over up to body.width fitting pairs.
void run_group(const Body& body, std::span<const std::string_view> queries,
               std::span<const std::string_view> refs, const Scoring& scoring,
               std::span<AlignResult> out) {
  const std::size_t w = body.width;
  std::size_t slot[kMaxSwLanes];
  std::size_t lanes = 0, m = 0, n = 0;
  for (std::size_t k = 0; k < queries.size(); ++k) {
    const std::size_t qk = queries[k].size(), rk = refs[k].size();
    if (!sw_lanes_fit(qk, rk)) {
      out[k] = smith_waterman(queries[k], refs[k], scoring);
      continue;
    }
    slot[lanes++] = k;
    m = std::max(m, qk);
    n = std::max(n, rk);
  }
  if (lanes == 0) return;

  const std::size_t table_ints =
      static_cast<std::size_t>(kTableStride) * kTableStride;
  std::int32_t* p = tls_workspace.reserve(table_ints +
                                          w * (m + n + 6 * (n + 1) + 5));
  LaneArgs a;
  a.m = m;
  a.n = n;
  a.go = scoring.gap_open() + scoring.gap_extend();
  a.ge = scoring.gap_extend();

  std::int32_t* table = p;
  for (std::int32_t x = 0; x < kTableStride; ++x) {
    for (std::int32_t y = 0; y < kTableStride; ++y) {
      table[x * kTableStride + y] =
          x < kScoreAlphabet && y < kScoreAlphabet
              ? scoring.score(static_cast<std::uint8_t>(x),
                              static_cast<std::uint8_t>(y))
              : kPadScore;
    }
  }
  a.table = table;
  p += table_ints;

  std::int32_t* qmul = p;
  p += w * m;
  std::int32_t* rcode = p;
  p += w * n;
  std::fill(qmul, qmul + w * m, kPadCode * kTableStride);
  std::fill(rcode, rcode + w * n, kPadCode);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    const std::string_view q = queries[slot[lane]];
    const std::string_view r = refs[slot[lane]];
    for (std::size_t i = 0; i < q.size(); ++i) {
      qmul[i * w + lane] = Scoring::encode(q[i]) * kTableStride;
    }
    for (std::size_t j = 0; j < r.size(); ++j) {
      rcode[j * w + lane] = Scoring::encode(r[j]);
    }
  }
  a.qmul = qmul;
  a.rcode = rcode;

  const std::size_t row = w * (n + 1);
  a.h = p;
  a.f = p + row;
  a.hb = reinterpret_cast<std::uint32_t*>(p + 2 * row);
  a.hm = reinterpret_cast<std::uint32_t*>(p + 3 * row);
  a.fb = reinterpret_cast<std::uint32_t*>(p + 4 * row);
  a.fm = reinterpret_cast<std::uint32_t*>(p + 5 * row);
  p += 6 * row;
  a.best = p;
  a.best_i = reinterpret_cast<std::uint32_t*>(p + w);
  a.best_j = reinterpret_cast<std::uint32_t*>(p + 2 * w);
  a.best_b = reinterpret_cast<std::uint32_t*>(p + 3 * w);
  a.best_m = reinterpret_cast<std::uint32_t*>(p + 4 * w);

  body.fn(a);

  for (std::size_t lane = 0; lane < lanes; ++lane) {
    const std::size_t k = slot[lane];
    AlignResult& res = out[k];
    res = AlignResult{};
    res.cells = static_cast<std::uint64_t>(queries[k].size()) * refs[k].size();
    res.score = a.best[lane];
    if (res.score > 0) {
      res.beg_q = a.best_b[lane] >> 16;
      res.beg_r = a.best_b[lane] & 0xFFFFu;
      res.end_q = a.best_i[lane];
      res.end_r = a.best_j[lane];
      res.matches = a.best_m[lane] >> 16;
      res.align_len = a.best_m[lane] & 0xFFFFu;
    }
  }
}

void check_spans(std::span<const std::string_view> queries,
                 std::span<const std::string_view> refs,
                 std::span<AlignResult> out) {
  if (queries.size() != refs.size() || queries.size() != out.size()) {
    throw std::invalid_argument(
        "smith_waterman_lanes: queries, refs and out differ in size");
  }
}

void run_on(const Body& body, std::span<const std::string_view> queries,
            std::span<const std::string_view> refs, const Scoring& scoring,
            std::span<AlignResult> out) {
  for (std::size_t off = 0; off < queries.size(); off += body.width) {
    const std::size_t len = std::min(body.width, queries.size() - off);
    run_group(body, queries.subspan(off, len), refs.subspan(off, len), scoring,
              out.subspan(off, len));
  }
}

}  // namespace

std::size_t sw_lane_width() {
  return bodies().empty() ? 0 : bodies().front().width;
}

bool sw_lanes_fit(std::size_t m, std::size_t n) { return m + n < 65535; }

void smith_waterman_lanes(std::span<const std::string_view> queries,
                          std::span<const std::string_view> refs,
                          const Scoring& scoring, std::span<AlignResult> out) {
  check_spans(queries, refs, out);
  if (bodies().empty()) {
    for (std::size_t k = 0; k < queries.size(); ++k) {
      out[k] = smith_waterman(queries[k], refs[k], scoring);
    }
    return;
  }
  run_on(bodies().front(), queries, refs, scoring, out);
}

namespace detail {

std::vector<std::size_t> sw_lane_bodies() {
  std::vector<std::size_t> widths;
  for (const Body& b : bodies()) widths.push_back(b.width);
  return widths;
}

void smith_waterman_lanes_on(std::size_t width,
                             std::span<const std::string_view> queries,
                             std::span<const std::string_view> refs,
                             const Scoring& scoring,
                             std::span<AlignResult> out) {
  check_spans(queries, refs, out);
  for (const Body& b : bodies()) {
    if (b.width == width) return run_on(b, queries, refs, scoring, out);
  }
  throw std::invalid_argument("smith_waterman_lanes_on: no body of that width");
}

}  // namespace detail

}  // namespace pastis::align
