#pragma once

/// @file bench.hpp
/// Shared pieces of the HyperEar benchmark program: run options, the seeded
/// session pool with its per-session references, the bit-exact output
/// check, percentile helpers, and the metric list every workload fills.
/// README.md in this directory defines every workload and metric.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/expected.hpp"
#include "core/pipeline.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/engine.hpp"
#include "sim/scenario.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Samples per `push` call of the streaming workload: 10 ms at 44.1 kHz.
inline constexpr std::size_t kPushSamples = 441;

/// Command-line options. `rate_rps` and `latency_limit_ms` are fixed in
/// BENCHMARK.json's command line and never derived from a measurement.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double rate_rps = 0.0;
  double latency_limit_ms = 0.0;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  std::size_t threads = 1;  ///< nproc: CPUs this process may run on
};

/// One localization attempt the program's output must reproduce.
using Outcome = hyperear::Expected<hyperear::core::LocalizationResult,
                                   hyperear::core::PipelineError>;

/// The seeded session pool shared by all workloads, with each session's
/// reference outcome from the context-free `core::try_localize`.
struct Pool {
  std::vector<hyperear::sim::Session> sessions;
  std::vector<std::string> kinds;    ///< scenario name per session
  std::vector<double> audio_s;       ///< recording length per session
  std::vector<double> render_ms;     ///< time to render each session
  std::vector<Outcome> references;   ///< filled by compute_references
  double total_audio_s = 0.0;
};

/// Render the pool for `seed` on `threads` threads (deterministic: each
/// session has its own generator, seeded from `seed` and its slot).
/// When `tracer` is set, each render is recorded as a `sim.render` span.
[[nodiscard]] Pool render_pool(std::uint64_t seed, std::size_t threads,
                               hyperear::obs::Tracer* tracer = nullptr);

/// The session without its recording: what `core::StreamingSession` is
/// constructed with before the audio is pushed.
[[nodiscard]] hyperear::sim::Session stream_meta(const hyperear::sim::Session& session);

/// Run the reference `core::try_localize` for every session, in parallel.
void compute_references(Pool& pool, std::size_t threads);

/// Mean error, in cm, of the valid `core::try_localize` fixes over the pool
/// rendered from a fixed seed, whatever --seed is: it repeats exactly, so a
/// change that trades accuracy shows against its bound. Sessions are
/// rendered and localized one per thread at a time, so the pool is never
/// held whole.
[[nodiscard]] double fix_error_cm_mean(std::size_t threads);

/// Bit-exact comparison of an outcome with a session's reference.
[[nodiscard]] bool matches_reference(const Outcome& got, const Outcome& reference);
[[nodiscard]] bool matches_reference(const hyperear::runtime::SessionReport& got,
                                     const Outcome& reference);

/// Nearest-rank percentile (p in [0, 1]); 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double p);

/// Percentile across pool sessions of each session's median value
/// (`per_session[i]` holds every value measured for session i; sessions
/// with none are skipped). One slow run of a session cannot set it.
[[nodiscard]] double percentile_of_medians(
    const std::vector<std::vector<double>>& per_session, double p);
[[nodiscard]] double mean(const std::vector<double>& values);

/// Named metric values in emission order.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// What one measured workload phase produced.
struct WorkloadResult {
  Metrics metrics;             ///< end-to-end metrics (BENCHMARK.json)
  Metrics layers;              ///< runtime-layer metrics (traced phases)
  std::size_t attempted = 0;
  std::size_t failed = 0;      ///< errors plus steady-phase refusals
  std::size_t mismatched = 0;  ///< outputs that differ from the reference
  bool conserved = true;       ///< server lifecycle accounting held
  /// Median time a caller waits for a fix; the traced/untraced ratio of
  /// this is obs.trace_overhead_ratio.
  double headline_ms = 0.0;
};

/// Observability attached to a traced phase; both null when untraced.
struct TraceSink {
  std::shared_ptr<hyperear::obs::Tracer> tracer;
  std::shared_ptr<hyperear::obs::MetricsRegistry> registry;
};

/// One workload: constructing it builds the engine, server or streaming
/// state from the pool and warms it up (the part of set-up after
/// rendering); `measure` then drives it for `seconds` and checks every
/// output against the pool's references.
class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual WorkloadResult measure(double seconds) = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_batch(const Pool& pool,
                                                   const Options& options,
                                                   const TraceSink& trace);
[[nodiscard]] std::unique_ptr<Workload> make_serve(const Pool& pool,
                                                   const Options& options,
                                                   const TraceSink& trace);
[[nodiscard]] std::unique_ptr<Workload> make_stream(const Pool& pool,
                                                    const Options& options,
                                                    const TraceSink& trace);

/// Single-threaded replays of every pool recording through the public
/// functions of each layer, recorded as spans on `tracer`; returns the
/// per-layer metrics plus the layer-sum checks, and counts replayed fixes
/// that differ from their reference in `mismatched`.
[[nodiscard]] Metrics run_layers(const Pool& pool, hyperear::obs::Tracer& tracer,
                                 std::size_t& mismatched);

/// Read a counter, or a histogram's sum and count, from a registry snapshot
/// (0 when the series does not exist).
[[nodiscard]] double counter_value(const hyperear::obs::MetricsRegistry& registry,
                                   const std::string& name);
struct HistogramTotal {
  double sum = 0.0;
  double count = 0.0;
};
[[nodiscard]] HistogramTotal histogram_total(const hyperear::obs::MetricsRegistry& registry,
                                             const std::string& name);

/// A caller's wait of `wait_ms` for a whole session of `audio_s` seconds,
/// per 10 ms slice of its audio, in microseconds.
[[nodiscard]] inline double us_per_10ms(double wait_ms, double audio_s) {
  return 1000.0 * wait_ms / (audio_s * 100.0);
}

/// Peak resident set size of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
