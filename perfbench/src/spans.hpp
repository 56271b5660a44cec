// In-memory span log of the traced replay.
//
// Every span records its name, start and end (seconds since the log was
// created), the id of its parent span and the run/batch id it belongs to.
// Spans are opened and closed from the calling thread only, around calls
// into the library's public entry points (which may fan out over the pool
// internally), so the log needs no locking. write_json() dumps the whole
// log at exit; the per-layer metrics are sums over it.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = -1.0;  // < start_s while open
    int parent = -1;
    std::int64_t run = -1;  // run / batch / block id, -1 = none
  };

  /// RAII scope: opens a span on construction, closes it on destruction.
  class Scope {
   public:
    Scope(SpanLog& log, std::string name, std::int64_t run = -1)
        : log_(log), id_(log.open(std::move(name), run)) {}
    ~Scope() { log_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    int id_;
  };

  SpanLog() : t0_(Clock::now()) {}

  int open(std::string name, std::int64_t run = -1);
  void close(int id);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Summed duration of every closed span called `name`.
  [[nodiscard]] double total(const std::string& name) const;
  /// Self time (duration minus the durations of direct children) summed
  /// per span name.
  [[nodiscard]] std::map<std::string, double> self_times() const;

  /// Writes the log as a JSON array of span objects.
  void write_json(const std::string& path) const;

 private:
  using Clock = std::chrono::steady_clock;
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(Clock::now() - t0_).count();
  }

  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

}  // namespace perfbench
