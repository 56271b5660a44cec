#include "util/memory.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#if defined(__GLIBC__) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
#include <malloc.h>
#define PASTIS_CAP_MALLOC_ARENAS 1
#endif

namespace pastis::util {

namespace {
// Parses a "Vm*: <kB> kB" line from /proc/self/status.
std::uint64_t read_status_kb(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::uint64_t kb = 0;
  const std::size_t key_len = std::strlen(key);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0) {
      std::sscanf(line + key_len, ": %lu", &kb);
      break;
    }
  }
  std::fclose(f);
  return kb * 1024;
}
}  // namespace

std::uint64_t peak_rss_bytes() {
  // Some kernels (e.g. restricted containers) omit VmHWM; fall back to the
  // current RSS so callers always get a usable lower bound.
  const std::uint64_t hwm = read_status_kb("VmHWM");
  return hwm != 0 ? hwm : read_status_kb("VmRSS");
}
std::uint64_t current_rss_bytes() { return read_status_kb("VmRSS"); }

void cap_malloc_arenas() {
#ifdef PASTIS_CAP_MALLOC_ARENAS
  static const bool applied = [] {
    if (std::getenv("MALLOC_ARENA_MAX") != nullptr) return false;
    return mallopt(M_ARENA_MAX, 2) == 1;
  }();
  (void)applied;
#endif
}

}  // namespace pastis::util
