// Memory accounting.
//
// The paper's central constraint is the memory footprint of the overlap
// matrix (Section VI-A motivates blocked SUMMA entirely from it). We track
// two quantities:
//   * logical bytes — what each simulated rank would allocate on Summit,
//     accumulated by the distributed structures themselves;
//   * process RSS  — real memory of this simulation process (sanity only).
#pragma once

#include <atomic>
#include <cstdint>

namespace pastis::util {

/// Peak resident set size of this process in bytes (Linux; 0 if unknown).
[[nodiscard]] std::uint64_t peak_rss_bytes();

/// Current resident set size of this process in bytes (Linux; 0 if unknown).
[[nodiscard]] std::uint64_t current_rss_bytes();

/// Caps glibc's malloc arenas at two, once per process. glibc gives each
/// allocating thread its own arena and keeps freed large buffers cached in
/// it, so with per-run scratch allocated from pool threads the peak RSS
/// grows with the number of runs (a 600-sequence search on 4 threads:
/// 31.4 MB after 35 runs uncapped, 26.6 MB capped). ThreadPool calls this
/// before it starts workers, which are the only threads the library
/// creates. A no-op when MALLOC_ARENA_MAX is set in the environment, off
/// glibc, and under sanitizers (they bring their own allocator).
void cap_malloc_arenas();

/// Tracks a high-water mark of logical bytes for one simulated rank.
class LogicalMemory {
 public:
  void allocate(std::uint64_t bytes) {
    current_ += bytes;
    if (current_ > peak_) peak_ = current_;
  }
  void release(std::uint64_t bytes) {
    current_ = bytes > current_ ? 0 : current_ - bytes;
  }
  [[nodiscard]] std::uint64_t current() const { return current_; }
  [[nodiscard]] std::uint64_t peak() const { return peak_; }
  void reset() { current_ = peak_ = 0; }

 private:
  std::uint64_t current_ = 0;
  std::uint64_t peak_ = 0;
};

}  // namespace pastis::util
