/// Streaming-ingest benchmark: the StreamingSession fed one rendered
/// protocol run at several push cadences (10 ms, 100 ms, 1 s, whole
/// recording), timing end-to-end ingest+finalize per sample and recording
/// the peak retained-sample window — the memory the streaming refactor
/// exists to bound. Every cadence's fix is checked bit-for-bit against the
/// batch `try_localize` on the concatenated audio (the correctness anchor;
/// a mismatch fails the binary, so the bench-smoke ctest run catches a
/// divergence the moment it appears).
///
/// Output: BENCH_streaming.json —
///   streaming_ingest / chunk-*        ns per ingested sample per cadence
///   streaming_peak_retained / chunk-* bytes_allocated = peak retained
///                                     window in bytes (both channels);
///                                     the schema check enforces it stays
///                                     below one channel's full retention

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.hpp"
#include "bench_util.hpp"
#include "core/pipeline.hpp"
#include "core/streaming_session.hpp"
#include "sim/scenario.hpp"

HYPEREAR_DEFINE_ALLOC_COUNTER()

namespace {

using namespace hyperear;
using Clock = std::chrono::steady_clock;

bool identical(const core::LocalizationResult& a, const core::LocalizationResult& b) {
  return a.valid == b.valid && a.slides_used == b.slides_used &&
         a.estimated_position.x == b.estimated_position.x &&
         a.estimated_position.y == b.estimated_position.y && a.range == b.range &&
         a.estimated_period == b.estimated_period && a.sfo_ppm == b.sfo_ppm;
}

}  // namespace

int main() {
  sim::ScenarioConfig c;
  c.speaker_distance = 4.0;
  c.calibration_duration = 3.0;
  // The smoke run keeps the protocol short; the real run uses the paper's
  // five slides per stature so the recording dwarfs the retention window.
  c.slides_per_stature = bench::smoke_mode() ? 3 : 5;
  c.jitter = sim::hand_jitter();
  Rng rng(7100);
  sim::Session batch = sim::make_localization_session(c, rng);
  const auto expect = core::try_localize(batch, {});
  if (!expect.has_value() || !expect->valid) {
    std::fprintf(stderr, "bench_streaming: batch reference did not localize\n");
    return 1;
  }

  // Streaming form: audio leaves the meta and arrives via push().
  const std::vector<double> mic1 = std::move(batch.audio.mic1);
  const std::vector<double> mic2 = std::move(batch.audio.mic2);
  batch.audio.mic1.clear();
  batch.audio.mic2.clear();
  const std::size_t n = mic1.size();
  const double fs = batch.audio.sample_rate;
  std::printf("=== Streaming ingest (%zu samples, %.1f s of audio) ===\n", n,
              static_cast<double>(n) / fs);
  std::printf("%12s %10s %12s %14s %10s\n", "cadence", "wall s", "ns/sample",
              "peak window", "identical");

  std::vector<bench::BenchRow> rows;
  bool all_identical = true;
  const std::vector<std::pair<std::string, std::size_t>> cadences = {
      {"chunk-441", 441},        // 10 ms at 44.1 kHz
      {"chunk-4410", 4410},      // 100 ms
      {"chunk-44100", 44100},    // 1 s
      {"chunk-whole", n},
  };
  for (const auto& [variant, slice] : cadences) {
    core::StreamingSession session(batch);
    const Clock::time_point t0 = Clock::now();
    for (std::size_t pos = 0; pos < n;) {
      const std::size_t len = std::min(slice, n - pos);
      session.push(std::span<const double>(mic1).subspan(pos, len),
                   std::span<const double>(mic2).subspan(pos, len));
      pos += len;
    }
    const auto got = session.finalize();
    const double seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    const bool same = got.has_value() && identical(*got, *expect);
    all_identical = all_identical && same;
    const std::size_t peak_bytes =
        session.peak_retained_samples() * sizeof(double);
    std::printf("%12s %10.3f %12.2f %11.1f KiB %10s\n", variant.c_str(), seconds,
                seconds * 1e9 / static_cast<double>(n),
                static_cast<double>(peak_bytes) / 1024.0,
                same ? "yes" : "MISMATCH");

    bench::BenchRow ingest;
    ingest.op = "streaming_ingest";
    ingest.variant = variant;
    ingest.n = n;
    ingest.ns_per_op = seconds * 1e9 / static_cast<double>(n);
    rows.push_back(ingest);
    bench::BenchRow peak = ingest;
    peak.op = "streaming_peak_retained";
    peak.bytes_allocated = peak_bytes;
    rows.push_back(peak);
  }

  bench::write_bench_json("BENCH_streaming.json", rows);
  std::printf("\nstreaming fixes bit-identical to batch at every cadence: %s\n",
              all_identical ? "yes" : "NO — chunking-invariance bug");
  return all_identical ? 0 : 1;
}
