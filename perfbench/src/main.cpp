/// HyperEar benchmark program. Usage:
///
///   hyperear_perfbench --workload <batch_offline|serve_open_loop|stream_chunked>
///       --seed N --seconds S --trace <0|1> [--rate-rps R --latency-limit-ms L]
///       [--commit C] [--source-digest D] [--trace-out FILE]
///
/// The rate and the latency limit are required whenever the run drives the
/// server: on serve_open_loop, and on every traced run.
///
/// Prints an environment header line, workload detail lines, and, as the
/// last line, {"correct", "attempted", "failed", "metrics"}. Untraced runs
/// report the end-to-end metrics; traced runs the per-layer ones. Exits
/// nonzero when any output differs from its reference, when the server's
/// lifecycle accounting does not balance, or when the build is not an
/// optimized one. README.md defines every workload and metric.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <thread>

#include <sched.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench.hpp"

namespace {

using namespace perfbench;

/// Set-ups timed per run; setup_s is their median.
constexpr int kSetups = 3;

/// Shares of --seconds in a traced run: the workload untraced, the
/// workload traced, and each other workload traced (for the runtime-layer
/// metrics only that workload's path produces).
constexpr double kTracedShareSelf = 0.3;
constexpr double kTracedShareOther = 0.2;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

#if !defined(NDEBUG) || !defined(__OPTIMIZE__) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
constexpr bool kOptimizedBuild = false;
#else
constexpr bool kOptimizedBuild = true;
#endif

std::size_t cpus_available() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) == 0 ||
      regs[0] < 0x80000004u) {
    return "unknown";
  }
  for (unsigned leaf = 0; leaf < 3; ++leaf) {
    __get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  s.erase(0, s.find_first_not_of(' '));
  return s;
#else
  return "unknown";
#endif
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

bool parse(int argc, char** argv, Options& o, std::string& trace_out) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") o.workload = value;
    else if (key == "--seed") o.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") o.seconds = std::strtod(value.c_str(), nullptr);
    else if (key == "--trace") o.trace = value == "1";
    else if (key == "--rate-rps") o.rate_rps = std::strtod(value.c_str(), nullptr);
    else if (key == "--latency-limit-ms") o.latency_limit_ms = std::strtod(value.c_str(), nullptr);
    else if (key == "--commit") o.commit = value;
    else if (key == "--source-digest") o.source_digest = value;
    else if (key == "--trace-out") trace_out = value;
    else return false;
  }
  const bool drives_server = o.trace || o.workload == "serve_open_loop";
  return argc % 2 == 1 && o.seconds > 0.0 &&
         (!drives_server || (o.rate_rps > 0.0 && o.latency_limit_ms > 0.0));
}

using Factory = std::function<std::unique_ptr<Workload>(const Pool&, const Options&,
                                                        const TraceSink&)>;

Factory factory_for(const std::string& name) {
  if (name == "batch_offline") return make_batch;
  if (name == "serve_open_loop") return make_serve;
  if (name == "stream_chunked") return make_stream;
  return nullptr;
}

void append(Metrics& to, const Metrics& from) { to.insert(to.end(), from.begin(), from.end()); }

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string trace_out;
  if (!parse(argc, argv, options, trace_out)) {
    std::fprintf(stderr, "usage: hyperear_perfbench --workload W --seed N --seconds S "
                         "--trace 0|1 [--rate-rps R --latency-limit-ms L]\n");
    return 2;
  }
  const Factory make = factory_for(options.workload);
  if (!make) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  if (!kOptimizedBuild) {
    std::fprintf(stderr, "perfbench: refusing to time a %s build (debug or sanitizer)\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  options.threads = cpus_available();
  std::printf(
      "{\"env\": {\"nproc\": %zu, \"hardware_concurrency\": %u, \"cpu_model\": \"%s\", "
      "\"build_type\": \"%s\", \"cxx_flags\": \"%s\", \"compiler\": \"%s\", "
      "\"commit\": \"%s\", \"source_digest\": \"%s\", \"workload\": \"%s\", "
      "\"seed\": %llu, \"seconds\": %g, \"trace\": %d, \"rate_rps\": %g, "
      "\"latency_limit_ms\": %g}}\n",
      options.threads, std::thread::hardware_concurrency(), json_escape(cpu_model()).c_str(),
      PERFBENCH_BUILD_TYPE, json_escape(PERFBENCH_CXX_FLAGS).c_str(),
      json_escape(PERFBENCH_COMPILER).c_str(), json_escape(options.commit).c_str(),
      json_escape(options.source_digest).c_str(), options.workload.c_str(),
      static_cast<unsigned long long>(options.seed), options.seconds,
      options.trace ? 1 : 0, options.rate_rps, options.latency_limit_ms);
  std::fflush(stdout);

  // Set-up: render the pool, then build and warm the workload; timed
  // kSetups times, keeping the last.
  auto render_tracer = std::make_shared<hyperear::obs::Tracer>();
  std::vector<double> setup_s;
  Pool pool;
  std::unique_ptr<Workload> workload;
  for (int k = 0; k < kSetups; ++k) {
    workload.reset();
    pool = Pool{};
    const Clock::time_point t0 = Clock::now();
    pool = render_pool(options.seed, options.threads,
                       k + 1 == kSetups ? render_tracer.get() : nullptr);
    workload = make(pool, options, TraceSink{});
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }
  compute_references(pool, options.threads);

  Metrics metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t mismatched = 0;
  bool conserved = true;
  const auto tally = [&](const WorkloadResult& r) {
    attempted += r.attempted;
    failed += r.failed;
    mismatched += r.mismatched;
    conserved = conserved && r.conserved;
  };

  if (!options.trace) {
    const WorkloadResult r = workload->measure(options.seconds);
    tally(r);
    metrics = r.metrics;
    metrics.insert(metrics.begin(), {"setup_s", percentile(setup_s, 0.5), "s"});
    metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
    // After peak_rss_mb is read, so its renders do not count there.
    metrics.push_back({"fix_error_cm_mean", fix_error_cm_mean(options.threads), "cm"});
  } else {
    const WorkloadResult untraced = workload->measure(kTracedShareSelf * options.seconds);
    tally(untraced);
    workload.reset();

    // One tracer for all workloads; a registry each, because the engines
    // of different workloads register series under the same names.
    const auto tracer = std::make_shared<hyperear::obs::Tracer>();
    Metrics runtime_layers;
    double overhead = 0.0;
    for (const char* name : {"batch_offline", "serve_open_loop", "stream_chunked"}) {
      const bool self = options.workload == name;
      const double share = self ? kTracedShareSelf : kTracedShareOther;
      const TraceSink sink{tracer, std::make_shared<hyperear::obs::MetricsRegistry>()};
      const WorkloadResult traced =
          factory_for(name)(pool, options, sink)->measure(share * options.seconds);
      tally(traced);
      append(runtime_layers, traced.layers);
      if (self) overhead = traced.headline_ms / untraced.headline_ms;
    }
    hyperear::obs::Tracer layer_tracer;
    metrics = run_layers(pool, layer_tracer, mismatched);
    append(metrics, runtime_layers);
    metrics.push_back({"obs.trace_overhead_ratio", overhead, "ratio"});

    if (!trace_out.empty()) {
      std::ofstream f(trace_out);
      f << "{\"render\": " << render_tracer->to_json()
        << ", \"workloads\": " << tracer->to_json()
        << ", \"layers\": " << layer_tracer.to_json() << "}\n";
    }
  }

  const bool correct = mismatched == 0 && conserved;
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(m.value) ? m.value : -1.0);
    if (i > 0) line += ", ";
    line += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  if (!correct) {
    std::fprintf(stderr, "perfbench: %zu outputs differ from their reference%s\n", mismatched,
                 conserved ? "" : "; server lifecycle accounting does not balance");
  }
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}
