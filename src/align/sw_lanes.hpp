// Inter-sequence SIMD Smith-Waterman: one (query, reference) pair per int32
// vector lane.
//
// ADEPT gives every pair its own GPU thread block; on the host the same idea
// packs independent pairs into the lanes of one vector register [Nguyen &
// Lavenier, "Fine-grained parallelization of similarity search between
// protein sequences"]. Each lane runs the exact recurrence of
// `smith_waterman` — the same E/F/H comparisons, the same diag > up > left >
// restart tie-break, the same path-statistic carry and the same row-major
// strict-`>` best update — so every AlignResult field equals the scalar
// kernel's by construction, not by tolerance.
//
// The kernel body is compiled twice (x86-64-v4: 16 lanes, x86-64-v3: 8
// lanes) and picked at run time from what the CPU supports; on other hosts
// every pair goes through the scalar kernel.
#pragma once

#include <cstddef>
#include <span>
#include <string_view>
#include <vector>

#include "align/smith_waterman.hpp"

namespace pastis::align {

/// Widest lane group any kernel body uses.
inline constexpr std::size_t kMaxSwLanes = 16;

/// Pairs per lane group on this host: 16 with AVX-512, 8 with AVX2, 0 when
/// only the scalar kernel is available.
[[nodiscard]] std::size_t sw_lane_width();

/// True when the pair's path statistics fit the lanes' packed 16+16-bit
/// fields (m + n < 65535); longer pairs take the scalar kernel.
[[nodiscard]] bool sw_lanes_fit(std::size_t m, std::size_t n);

/// Aligns `queries[k]` against `refs[k]` for every k into `out[k]`, with
/// out[k] equal to smith_waterman(queries[k], refs[k], scoring) field by
/// field. Consecutive runs of sw_lane_width() pairs share one vector pass,
/// padded to the run's longest query and reference (so pairs of similar
/// size waste fewest cells); pairs that do not fit the packing, and every
/// pair on a host without a vector body, run the scalar kernel. The three
/// spans must have equal size (std::invalid_argument otherwise).
/// Re-entrant: the DP workspace is per calling thread.
void smith_waterman_lanes(std::span<const std::string_view> queries,
                          std::span<const std::string_view> refs,
                          const Scoring& scoring, std::span<AlignResult> out);

namespace detail {

/// Lane widths of every vector body this host can run, widest first (test
/// hook: lets the suite check each ISA body, not just the dispatched one).
[[nodiscard]] std::vector<std::size_t> sw_lane_bodies();

/// smith_waterman_lanes on the body of the given width, which must be one
/// of sw_lane_bodies() (std::invalid_argument otherwise).
void smith_waterman_lanes_on(std::size_t width,
                             std::span<const std::string_view> queries,
                             std::span<const std::string_view> refs,
                             const Scoring& scoring,
                             std::span<AlignResult> out);

}  // namespace detail

}  // namespace pastis::align
