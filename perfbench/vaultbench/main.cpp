// vaultbench --workload <zipf-read|uniform-read|drift-maintain|vault-miss> --seed <n>
//            --seconds <s> --trace <0|1> [--trace-out <file>]
//
// Runs one workload in this process and prints, as the last line of
// stdout, one JSON object: correct, attempted, failed, and the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1).  A readable
// summary goes to stderr.  With --trace 1 the spans of the run are written
// to --trace-out as Chrome trace-event JSON.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "bench.hpp"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <zipf-read|uniform-read|drift-maintain|vault-miss> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\n",
               argv0);
  std::exit(2);
}

vb::Options parse(int argc, char** argv) {
  vb::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(argv[0]);
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::stoull(v);
    } else if (a == "--seconds") {
      o.seconds = std::stod(v);
    } else if (a == "--trace") {
      o.trace = v == "1";
    } else if (a == "--trace-out") {
      o.trace_out = v;
    } else {
      usage(argv[0]);
    }
  }
  if (o.workload.empty() || o.seconds <= 0.0) usage(argv[0]);
  return o;
}

/// Spans written to the trace file; a saturating read phase opens millions
/// (one per submit), and the rest only count toward the self times.
constexpr std::size_t kMaxWrittenSpans = 200000;

void write_trace(const std::string& path) {
  std::ofstream f(path, std::ios::trunc);
  if (!f.good()) {
    std::fprintf(stderr, "vaultbench: cannot write %s\n", path.c_str());
    return;
  }
  const auto& spans = vb::Tracer::get().spans();
  const std::int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  const std::size_t written = std::min(spans.size(), kMaxWrittenSpans);
  f << "{\"otherData\": {\"spans\": " << spans.size() << ", \"written\": " << written
    << "}, \"traceEvents\": [";
  for (std::size_t i = 0; i < written; ++i) {
    const auto& s = spans[i];
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": %zu, "
                  "\"parent\": %d, \"id\": %llu}}",
                  i ? ", " : "", s.name, s.layer, (s.start_ns - t0) / 1e3,
                  (s.end_ns - s.start_ns) / 1e3, i, s.parent,
                  static_cast<unsigned long long>(s.id));
    f << buf << '\n';
  }
  f << "]}\n";
}

void print_metrics(std::FILE* out, const std::vector<vb::Metric>& ms, bool json) {
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (json) {
      std::fprintf(out, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                   ms[i].name.c_str(), ms[i].value, ms[i].unit.c_str());
    } else {
      std::fprintf(out, "  %-32s %14.6g %s\n", ms[i].name.c_str(), ms[i].value,
                   ms[i].unit.c_str());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const vb::Options opt = parse(argc, argv);
  if (opt.trace) vb::Tracer::get().enable(1u << 20);
  vb::Result r;
  try {
    if (opt.workload == "zipf-read") {
      vb::run_zipf_read(opt, r);
    } else if (opt.workload == "uniform-read") {
      vb::run_uniform_read(opt, r);
    } else if (opt.workload == "drift-maintain") {
      vb::run_drift_maintain(opt, r);
    } else if (opt.workload == "vault-miss") {
      vb::run_vault_miss(opt, r);
    } else {
      usage(argv[0]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vaultbench: %s: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  if (opt.trace && !opt.trace_out.empty()) write_trace(opt.trace_out);

  std::fprintf(stderr, "vaultbench %s seed=%llu: attempted=%llu failed=%llu correct=%s\n",
               opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
               static_cast<unsigned long long>(r.attempted),
               static_cast<unsigned long long>(r.failed), r.correct ? "true" : "false");
  for (const auto& e : r.errors) std::fprintf(stderr, "  check failed: %s\n", e.c_str());
  std::fprintf(stderr, "end to end:\n");
  print_metrics(stderr, r.end_to_end, false);
  std::fprintf(stderr, "per layer:\n");
  print_metrics(stderr, r.per_layer, false);

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  print_metrics(stdout, opt.trace ? r.per_layer : r.end_to_end, true);
  std::printf("}}\n");
  return 0;
}
