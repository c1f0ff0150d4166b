/// Per-layer replay for the traced run. One session of each pool kind is
/// replayed on one thread through the public functions of `dsp`, `imu` and
/// `core`, each call wrapped in a span on the replay's own tracer. Every
/// per-layer number is then read back from those spans, and the layer sums
/// are checked against the stage they compose.

#include <cmath>
#include <cstdio>
#include <map>
#include <utility>

#include "bench.hpp"
#include "core/asp.hpp"
#include "core/pipeline_context.hpp"
#include "core/session_workspace.hpp"
#include "core/streaming_session.hpp"
#include "dsp/correlation.hpp"
#include "dsp/fft.hpp"
#include "dsp/fir.hpp"
#include "dsp/peak.hpp"
#include "imu/preprocess.hpp"

namespace perfbench {

using namespace hyperear;

namespace {

/// Largest share of a stage's time its measured parts may leave
/// unexplained before the layer-sum check is flagged.
constexpr double kSumSlack = 0.10;

/// Forward transforms timed per replayed session for dsp.fft.
constexpr std::size_t kFftRepeats = 32;

template <typename Fn>
decltype(auto) span(obs::Tracer& tracer, const char* name, std::uint64_t sid, Fn&& fn) {
  obs::TraceSpan s(&tracer, name, sid);
  return fn();
}

}  // namespace

Metrics run_layers(const Pool& pool, obs::Tracer& tracer, std::size_t& mismatched) {
  const core::PipelineConfig config;
  obs::MetricsRegistry registry;
  double samples = 0.0;          // per-channel samples through filter/detect
  double stream_chunks = 0.0;    // detector stream_chunk calls
  double pushes = 0.0;           // StreamingSession::push calls
  double slides_segmented = 0.0;
  double slides_accepted = 0.0;
  double peak_retained = 0.0;
  double fft_points = 0.0;
  std::size_t sessions_2d = 0;
  std::size_t sessions_3d = 0;
  std::vector<std::uint64_t> replayed;

  for (std::size_t i = 0; i < pool.sessions.size(); ++i) {
    bool seen = false;
    for (std::uint64_t sid : replayed) seen = seen || pool.kinds[sid - 1] == pool.kinds[i];
    if (seen) continue;
    const std::uint64_t sid = i + 1;
    replayed.push_back(sid);
    const sim::Session& session = pool.sessions[i];
    const sim::StereoRecording& audio = session.audio;

    auto context = span(tracer, "core.context_build", sid, [&] {
      return std::make_shared<const core::PipelineContext>(config, session.prior.chirp,
                                                           audio.sample_rate);
    });
    core::SessionWorkspace ws;
    (void)core::try_localize(session, config, *context, ws);  // warm
    core::StageMetrics stage;
    const Outcome fix = span(tracer, "core.session", sid, [&] {
      return core::try_localize(session, config, *context, ws, &stage);
    });
    if (!matches_reference(fix, pool.references[i])) ++mismatched;
    slides_segmented += stage.slides_segmented;
    slides_accepted += stage.slides_accepted;

    const core::AspResult asp = span(tracer, "core.asp", sid, [&] {
      return core::preprocess_audio(audio, session.prior.nominal_period,
                                    session.prior.calibration_duration, *context, ws);
    });

    // ASP's parts, per channel, through the same context's plans.
    const dsp::MatchedFilterDetector& detector = context->detector();
    const dsp::OlsConvolver reversed(std::vector<double>(detector.reference().rbegin(),
                                                         detector.reference().rend()));
    double ref_energy = 0.0;
    for (double v : detector.reference()) ref_energy += v * v;
    const double ref_norm = std::sqrt(ref_energy);
    const std::size_t ref_len = detector.reference().size();
    const std::size_t chunk = detector.config().chunk;
    const auto min_spacing = static_cast<std::size_t>(detector.config().min_spacing_s *
                                                      detector.config().sample_rate);
    const obs::ObsContext obs{&registry, nullptr, sid};
    dsp::DetectorWorkspace dws;
    std::vector<double> filtered;
    std::vector<double> streamed;
    std::vector<dsp::Detection> detections;
    std::vector<double> raw;
    std::vector<double> norm;
    std::vector<double> prefix;
    for (const std::vector<double>* mic : {&audio.mic1, &audio.mic2}) {
      span(tracer, "dsp.filter", sid, [&] {
        dsp::filter_same_into(*mic, *context->bandpass_convolver(), filtered, dws.fft);
      });
      span(tracer, "dsp.detect", sid,
           [&] { detector.detect_into(filtered, dws, detections, &obs); });
      samples += static_cast<double>(filtered.size());

      // Detection's sub-costs over the detector's own chunk schedule.
      const std::span<const double> x(filtered);
      for (std::size_t start = 0; start < x.size(); start += chunk - (ref_len - 1)) {
        const std::size_t end = std::min(start + chunk, x.size());
        if (end - start < ref_len) break;
        const std::span<const double> seg = x.subspan(start, end - start);
        span(tracer, "dsp.correlate", sid,
             [&] { dsp::correlate_valid_into(seg, reversed, raw, dws.fft); });
        span(tracer, "dsp.normalize", sid, [&] {
          dsp::normalize_correlation_into(raw, seg, ref_len, ref_norm, prefix, norm);
        });
        span(tracer, "dsp.peaks", sid, [&] {
          return dsp::find_peaks(norm, detector.config().threshold, min_spacing);
        });
        if (end == x.size()) break;
      }

      // The streaming spellings of the same two operations.
      dsp::StreamingFirFilter fir(*context->bandpass_convolver());
      streamed.clear();
      span(tracer, "dsp.stream_fir", sid, [&] {
        const std::span<const double> m(*mic);
        for (std::size_t k = 0; k < m.size(); k += kPushSamples) {
          fir.push(m.subspan(k, std::min(kPushSamples, m.size() - k)), streamed, dws.fft);
        }
      });
      fir.finish(streamed, dws.fft);
      dsp::DetectorStream stream;
      detector.stream_begin(stream, dws);
      for (std::size_t start = 0; start < x.size(); start = stream.next_start) {
        const std::size_t end = std::min(start + chunk, x.size());
        if (end - start < ref_len) break;
        const bool final_chunk = end == x.size();
        span(tracer, "dsp.detect_stream", sid, [&] {
          detector.stream_chunk(x.subspan(start, end - start), final_chunk, stream, dws);
        });
        stream_chunks += 1.0;
        if (final_chunk) break;
      }
      detector.stream_end(stream, dws, detections);
    }

    {
      dsp::FftPlan plan(reversed.fft_size());
      std::vector<dsp::Complex> buffer(plan.size());
      for (std::size_t k = 0; k < buffer.size(); ++k) {
        buffer[k] = {filtered[k % filtered.size()], 0.0};
      }
      span(tracer, "dsp.fft", sid, [&] {
        for (std::size_t r = 0; r < kFftRepeats; ++r) plan.forward(buffer);
      });
      fft_points += static_cast<double>(kFftRepeats * plan.size());
    }

    const imu::MotionSignals motion = span(tracer, "imu.preprocess", sid, [&] {
      return imu::preprocess(session.imu, config.msp);
    });
    const double mic_separation = session.config.phone.mic_separation;
    if (session.prior.two_statures) {
      ++sessions_3d;
      (void)span(tracer, "core.ple", sid, [&] {
        return core::localize_3d(asp, motion, session.prior, mic_separation,
                                 config.ple_options());
      });
    } else {
      ++sessions_2d;
      (void)span(tracer, "core.ttl", sid, [&] {
        return core::localize_2d(asp, motion, session.prior, mic_separation, config.ttl);
      });
    }

    // Chunked ingest of the same session, single-threaded.
    core::StreamingSession streaming(stream_meta(session), config, context, &ws);
    const std::span<const double> m1(audio.mic1);
    const std::span<const double> m2(audio.mic2);
    for (std::size_t k = 0; k < m1.size(); k += kPushSamples) {
      const std::size_t n = std::min(kPushSamples, m1.size() - k);
      span(tracer, "core.stream.push", sid,
           [&] { streaming.push(m1.subspan(k, n), m2.subspan(k, n)); });
      pushes += 1.0;
    }
    const Outcome streamed_fix =
        span(tracer, "core.stream.finalize", sid, [&] { return streaming.finalize(); });
    if (!matches_reference(streamed_fix, pool.references[i])) ++mismatched;
    peak_retained =
        std::max(peak_retained, static_cast<double>(streaming.peak_retained_samples()));
  }

  // Read every number back from the spans: total per name, and per
  // (session, name) for the layer sums.
  std::map<std::string, double> total;
  std::map<std::pair<std::uint64_t, std::string>, double> per_session;
  for (const obs::SpanRecord& r : tracer.snapshot()) {
    total[r.name] += r.duration_ms;
    per_session[{r.session, r.name}] += r.duration_ms;
  }
  double asp_unexplained = 0.0;
  double session_unexplained = 0.0;
  for (std::uint64_t sid : replayed) {
    const auto at = [&](const char* name) {
      const auto it = per_session.find({sid, name});
      return it == per_session.end() ? 0.0 : it->second;
    };
    asp_unexplained += at("core.asp") - at("dsp.filter") - at("dsp.detect");
    session_unexplained +=
        at("core.session") - at("core.asp") - at("imu.preprocess") - at("core.ttl") -
        at("core.ple");
  }
  const auto n = static_cast<double>(replayed.size());
  const double asp_slack = std::abs(asp_unexplained) / total["core.asp"];
  const double session_slack = std::abs(session_unexplained) / total["core.session"];
  const bool flagged = asp_slack > kSumSlack || session_slack > kSumSlack;
  std::printf(
      "{\"layer_sum_check\": {\"asp_slack\": %.4f, \"session_slack\": %.4f, "
      "\"limit\": %.2f, \"flagged\": %s}}\n",
      asp_slack, session_slack, kSumSlack, flagged ? "true" : "false");
  if (flagged) {
    std::fprintf(stderr, "perfbench: layer sums leave more than %.0f%% unexplained\n",
                 100.0 * kSumSlack);
  }

  double render_ms = 0.0;
  for (double v : pool.render_ms) render_ms += v;
  const double candidates = counter_value(registry, "detector.candidates_total");
  const double kept = counter_value(registry, "detector.detections_total");
  const double detect_calls = 2.0 * n;
  const auto ns_per_sample = [&](const char* name) { return total[name] * 1e6 / samples; };
  return {
      {"sim.render_ms_per_audio_s", render_ms / pool.total_audio_s, "ms/s"},
      {"dsp.filter.ns_per_sample", ns_per_sample("dsp.filter"), "ns/sample"},
      {"dsp.detect.ns_per_sample", ns_per_sample("dsp.detect"), "ns/sample"},
      {"dsp.fft.ns_per_point", total["dsp.fft"] * 1e6 / fft_points, "ns/point"},
      {"dsp.correlate.ns_per_sample", ns_per_sample("dsp.correlate"), "ns/sample"},
      {"dsp.normalize.ns_per_sample", ns_per_sample("dsp.normalize"), "ns/sample"},
      {"dsp.peaks.ns_per_sample", ns_per_sample("dsp.peaks"), "ns/sample"},
      {"dsp.detect.candidates", candidates / detect_calls, "count"},
      {"dsp.detect.kept_ratio", candidates > 0.0 ? kept / candidates : 0.0, "ratio"},
      {"dsp.stream_fir.ns_per_sample", ns_per_sample("dsp.stream_fir"), "ns/sample"},
      {"dsp.detect_stream.us_per_chunk", total["dsp.detect_stream"] * 1e3 / stream_chunks,
       "us"},
      {"imu.preprocess_ms", total["imu.preprocess"] / n, "ms"},
      {"core.ttl_ms", sessions_2d > 0 ? total["core.ttl"] / static_cast<double>(sessions_2d) : 0.0,
       "ms"},
      {"core.ple_ms", sessions_3d > 0 ? total["core.ple"] / static_cast<double>(sessions_3d) : 0.0,
       "ms"},
      {"core.context_build_ms", total["core.context_build"] / n, "ms"},
      {"core.asp_ms", total["core.asp"] / n, "ms"},
      {"core.asp.unattributed_ms", asp_unexplained / n, "ms"},
      {"core.session_ms", total["core.session"] / n, "ms"},
      {"core.slides_accepted_ratio",
       slides_segmented > 0.0 ? slides_accepted / slides_segmented : 0.0, "ratio"},
      {"core.stream.push_us", total["core.stream.push"] * 1e3 / pushes, "us"},
      {"core.stream.finalize_ms", total["core.stream.finalize"] / n, "ms"},
      {"core.stream.peak_retained_samples", peak_retained, "samples"},
      {"check.asp_sum_slack", asp_slack, "ratio"},
      {"check.session_sum_slack", session_slack, "ratio"},
  };
}

}  // namespace perfbench
