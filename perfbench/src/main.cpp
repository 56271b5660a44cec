// End-to-end benchmark program.
//
//   perfbench --workload <allvsall|screened|annotate> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>] [--commit <id>]
//
// Runs one workload: set-up, one excluded warm-up, the timed loop for
// --seconds with telemetry off, then the correctness checks and the
// replay of the workload's input through the layers' public entry points
// under the benchmark's own span log. Prints a human-readable report and a
// final "PERFBENCH_RESULT {json}" line with every metric; exits 1 when any
// operation or check failed, 2 on bad arguments.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "common.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<allvsall|screened|annotate> --seed <n> --seconds <s> "
               "--trace <0|1> [--out-dir <dir>] [--commit <id>]\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& key, const std::string& v) {
  char* end = nullptr;
  const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
  if (v.empty() || *end != '\0') usage("bad value for " + key + ": " + v);
  return x;
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string v = argv[++i];
    if (key == "--workload") {
      opt.workload = v;
    } else if (key == "--seed") {
      opt.seed = parse_uint(key, v);
      have_seed = true;
    } else if (key == "--seconds") {
      char* end = nullptr;
      opt.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0.0)) usage("bad --seconds " + v);
      have_seconds = true;
    } else if (key == "--trace") {
      if (v != "0" && v != "1") usage("--trace must be 0 or 1");
      opt.trace = v == "1";
      have_trace = true;
    } else if (key == "--out-dir") {
      opt.out_dir = v;
    } else if (key == "--commit") {
      opt.commit = v;
    } else {
      usage("unknown option " + key);
    }
  }
  if (opt.workload != "allvsall" && opt.workload != "screened" &&
      opt.workload != "annotate") {
    usage("unknown workload '" + opt.workload + "'");
  }
  if (!have_seed || !have_seconds || !have_trace) {
    usage("--seed, --seconds and --trace are required");
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options opt = parse(argc, argv);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const int threads = std::min<int>(static_cast<int>(hw), perfbench::kMaxThreads);
  pastis::util::ThreadPool pool(static_cast<std::size_t>(threads));

  perfbench::Report report;
  report.context("workload", opt.workload);
  report.context("seed", std::to_string(opt.seed));
  report.context("seconds", std::to_string(opt.seconds));
  report.context("trace", opt.trace ? "1" : "0");
  report.context("nproc", std::to_string(hw));
  report.context("pool_threads", std::to_string(threads));
  report.context("sim_ranks", std::to_string(perfbench::kRanks));
  report.context("build_type", PERFBENCH_BUILD_TYPE);
  report.context("compiler", PERFBENCH_COMPILER);
  report.context("commit", opt.commit);

  perfbench::SpanLog spans;
  try {
    if (opt.workload == "annotate") {
      perfbench::run_annotate_workload(opt, pool, spans, report);
    } else {
      perfbench::run_search_workload(opt, pool, spans, report);
    }
  } catch (const std::exception& e) {
    report.count("workload", false, std::string("uncaught exception: ") + e.what());
  }

  if (opt.trace) {
    const std::string path = opt.out_dir + "/spans-" + opt.workload + "-" +
                             std::to_string(opt.seed) + ".json";
    try {
      spans.write_json(path);
      report.context("span_log", path);
    } catch (const std::exception& e) {
      report.count("workload", false, e.what());
    }
  }
  const std::uint64_t attempted = report.attempted();
  report.set("fail_frac",
             attempted == 0 ? 0.0
                            : static_cast<double>(report.failed()) /
                                  static_cast<double>(attempted),
             "ratio", attempted);
  report.print();
  return report.failed() == 0 ? 0 : 1;
}
