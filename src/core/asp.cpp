#include "core/asp.hpp"

#include <cmath>
#include <optional>

#include "common/error.hpp"
#include "common/math_util.hpp"
#include "core/pipeline_context.hpp"
#include "core/session_workspace.hpp"
#include "dsp/fir.hpp"
#include "dsp/matched_filter.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hyperear::core {

void convert_chirp_events(const std::vector<dsp::Detection>& detections,
                          std::vector<ChirpEvent>& out) {
  out.clear();
  out.reserve(detections.size());
  for (const dsp::Detection& d : detections) {
    out.push_back({d.time_s, d.score, d.amplitude, d.echo_competition});
  }
}

namespace {

/// `estimate_period` with caller-owned scratch: the arrival-time and index
/// series reuse the workspace's capacity, so the steady-state batch path
/// fits the SFO line without touching the heap. The public spelling wraps
/// this with call-local vectors; the fit itself is identical.
double estimate_period_into(const std::vector<ChirpEvent>& events, double nominal_period,
                            double window_end, std::size_t min_events,
                            std::vector<double>& times, std::vector<double>& idx) {
  require(nominal_period > 0.0, "estimate_period: bad nominal period");
  times.clear();
  for (const ChirpEvent& e : events) {
    if (e.time_s <= window_end) times.push_back(e.time_s);
  }
  if (times.size() < min_events) {
    throw DetectionError("estimate_period: not enough calibration arrivals");
  }
  // Recover integer chirp indices by rounding gaps to the nominal period;
  // missed detections produce index gaps, which the fit tolerates.
  idx.clear();
  idx.push_back(0.0);
  for (std::size_t i = 1; i < times.size(); ++i) {
    idx.push_back(idx[i - 1] + std::round((times[i] - times[i - 1]) / nominal_period));
  }
  const LineFit fit = fit_line_robust(idx, times);
  require(fit.slope > 0.5 * nominal_period && fit.slope < 1.5 * nominal_period,
          "estimate_period: implausible period estimate");
  return fit.slope;
}

/// The one ASP implementation. Every public spelling lands here; the
/// nullable context/workspace parameters exist so the context-free path
/// builds its session-local state INSIDE the caller's asp-stage try block
/// (error classification is part of the contract, not an accident of which
/// wrapper ran).
AspResult preprocess_audio_impl(const sim::StereoRecording& recording,
                                const dsp::ChirpParams& chirp_params,
                                double nominal_period, double calibration_duration,
                                const AspOptions& options,
                                const PipelineContext* context,
                                SessionWorkspace* workspace,
                                const obs::ObsContext* obs) {
  require(!recording.mic1.empty() && recording.mic1.size() == recording.mic2.size(),
          "preprocess_audio: bad recording");
  const double fs = recording.sample_rate;
  // Reuse the caller's precomputed plans when they were built for exactly
  // this configuration; otherwise derive session-local ones. Both paths run
  // the same code on the same plans, so the results are bit-identical.
  std::optional<PipelineContext> local_context;
  if (context == nullptr || !context->matches(options, chirp_params, fs)) {
    local_context.emplace(options, chirp_params, fs);
    context = &*local_context;
  }
  // Same rule for the scratch: a call-local workspace behaves exactly like
  // a warmed one (buffer contents carry no information between sessions),
  // it just pays the allocations the steady-state path avoids.
  std::optional<SessionWorkspace> local_workspace;
  if (workspace == nullptr) {
    local_workspace.emplace();
    workspace = &*local_workspace;
  }

  AspResult result;
  result.estimated_period = nominal_period;

  // Each channel is an independent filter+detect pass over shared immutable
  // plans with a channel-private workspace slot.
  const auto process_channel = [&](const std::vector<double>& mic, std::size_t slot,
                                   std::vector<ChirpEvent>& events) {
    ChannelWorkspace& ch = workspace->channel(slot);
    if (options.bandpass) {
      dsp::filter_same_into(mic, *context->bandpass_convolver(), ch.filtered,
                            ch.detector.fft);
      context->detector().detect_into(ch.filtered, ch.detector, ch.detections, obs);
    } else {
      context->detector().detect_into(mic, ch.detector, ch.detections, obs);
    }
    convert_chirp_events(ch.detections, events);
  };
  process_channel(recording.mic1, 0, result.mic1);
  process_channel(recording.mic2, 1, result.mic2);

  finish_asp(result, nominal_period, calibration_duration, options, *workspace, obs);
  return result;
}

}  // namespace

void finish_asp(AspResult& result, double nominal_period, double calibration_duration,
                const AspOptions& options, SessionWorkspace& workspace,
                const obs::ObsContext* obs) {
  result.estimated_period = nominal_period;
  result.sfo_ppm = 0.0;
  result.sfo_estimated = false;
  if (options.sfo_correction) {
    // Average the per-mic estimates when both are available (the two mics
    // share the phone clock, so their true periods are identical).
    double sum = 0.0;
    int count = 0;
    for (const auto* events : {&result.mic1, &result.mic2}) {
      try {
        sum += estimate_period_into(*events, nominal_period, calibration_duration,
                                    options.min_calibration_events, workspace.sfo_times,
                                    workspace.sfo_index);
        ++count;
      } catch (const DetectionError&) {
        // fall through; the other mic may still provide an estimate
      }
    }
    if (count > 0) {
      result.estimated_period = sum / count;
      result.sfo_ppm = (result.estimated_period / nominal_period - 1.0) * 1e6;
      result.sfo_estimated = true;
    }
  }
  if (obs != nullptr && obs->metrics != nullptr) {
    obs::MetricsRegistry& m = *obs->metrics;
    m.counter(result.sfo_estimated ? "asp.sfo_estimated_total"
                                   : "asp.sfo_fallback_total")
        .inc();
    static constexpr double kPpmBounds[] = {-100.0, -50.0, -20.0, -10.0, 0.0,
                                            10.0,   20.0,  50.0,  100.0};
    if (result.sfo_estimated) {
      m.histogram("asp.sfo_ppm", kPpmBounds).observe(result.sfo_ppm);
    }
  }
}

double estimate_period(const std::vector<ChirpEvent>& events, double nominal_period,
                       double window_end, std::size_t min_events) {
  // NOLINTBEGIN(hyperear-hotpath) -- convenience wrapper: call-local scratch; the session path uses the workspace's
  std::vector<double> times;
  std::vector<double> idx;
  // NOLINTEND(hyperear-hotpath) -- end of convenience wrapper
  return estimate_period_into(events, nominal_period, window_end, min_events, times, idx);
}

AspResult preprocess_audio(const sim::StereoRecording& recording,
                           double nominal_period, double calibration_duration,
                           const PipelineContext& context, SessionWorkspace& workspace,
                           const obs::ObsContext* obs) {
  return preprocess_audio_impl(recording, context.chirp_params(), nominal_period,
                               calibration_duration, context.asp_options(), &context,
                               &workspace, obs);
}

AspResult preprocess_audio(const sim::StereoRecording& recording,
                           const dsp::ChirpParams& chirp_params, double nominal_period,
                           double calibration_duration, const AspOptions& options,
                           const PipelineContext* context, const obs::ObsContext* obs) {
  return preprocess_audio_impl(recording, chirp_params, nominal_period,
                               calibration_duration, options, context, nullptr, obs);
}

}  // namespace hyperear::core
