#include "spans.hpp"

#include <fstream>
#include <stdexcept>

namespace perfbench {

int SpanLog::open(std::string name, std::int64_t run) {
  Span s;
  s.name = std::move(name);
  s.start_s = now();
  s.parent = stack_.empty() ? -1 : stack_.back();
  if (run < 0 && s.parent >= 0) run = spans_[static_cast<std::size_t>(s.parent)].run;
  s.run = run;
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void SpanLog::close(int id) {
  if (stack_.empty() || stack_.back() != id) {
    throw std::logic_error("SpanLog: spans must close in LIFO order");
  }
  stack_.pop_back();
  spans_[static_cast<std::size_t>(id)].end_s = now();
}

double SpanLog::total(const std::string& name) const {
  double t = 0.0;
  for (const auto& s : spans_) {
    if (s.name == name && s.end_s >= s.start_s) t += s.end_s - s.start_s;
  }
  return t;
}

std::map<std::string, double> SpanLog::self_times() const {
  std::vector<double> self(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_s < s.start_s) continue;
    const double d = s.end_s - s.start_s;
    self[i] += d;
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= d;
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) out[spans_[i].name] += self[i];
  return out;
}

void SpanLog::write_json(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("SpanLog: cannot write " + path);
  os.precision(9);
  os << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "  {\"id\": " << i << ", \"name\": \"" << s.name
       << "\", \"start_s\": " << s.start_s << ", \"end_s\": " << s.end_s
       << ", \"parent\": " << s.parent << ", \"run\": " << s.run << "}"
       << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "]\n";
}

}  // namespace perfbench
