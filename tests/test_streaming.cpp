/// Streaming-ingest tests (ctest label "streaming"; the tsan/asan presets
/// run them): a StreamingSession fed ANY chunking of a recording must
/// produce the batch pipeline's fix BIT FOR BIT plus a chunking-invariant
/// incremental event stream, with peak retained memory bounded well below
/// the recording length; several such sessions interleaved over one shared
/// plan set must not change a bit of any of them.

#include "core/streaming_session.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/pipeline_context.hpp"
#include "core/session_workspace.hpp"
#include "dsp/matched_filter.hpp"
#include "runtime/engine.hpp"
#include "sim/scenario.hpp"

namespace hyperear::runtime {
namespace {

sim::ScenarioConfig small_scenario(bool two_statures = false) {
  sim::ScenarioConfig c;
  c.speaker_distance = 4.0;
  c.slides_per_stature = 3;
  c.calibration_duration = 3.0;
  c.jitter = sim::ruler_jitter();
  c.two_statures = two_statures;
  return c;
}

/// A rendered session split into streaming form: `meta` (audio channels
/// emptied, everything else intact) plus the samples to push.
struct SplitSession {
  sim::Session meta;
  std::vector<double> mic1;
  std::vector<double> mic2;
};

SplitSession split(sim::Session session) {
  SplitSession s;
  s.mic1 = std::move(session.audio.mic1);
  s.mic2 = std::move(session.audio.mic2);
  session.audio.mic1.clear();
  session.audio.mic2.clear();
  s.meta = std::move(session);
  return s;
}

sim::Session make_session(std::uint64_t seed, bool two_statures = false) {
  Rng rng(seed);
  return sim::make_localization_session(small_scenario(two_statures), rng);
}

/// Push the split audio through a fresh StreamingSession in slices of the
/// given sizes (cycled) and finalize.
Expected<core::LocalizationResult, core::PipelineError> run_streamed(
    const SplitSession& s, const std::vector<std::size_t>& slice_sizes,
    std::vector<core::StreamEvent>* events = nullptr,
    std::size_t* peak_retained = nullptr, core::StageMetrics* metrics = nullptr) {
  core::StreamingSession session(s.meta);
  std::size_t pos = 0;
  std::size_t cursor = 0;
  while (pos < s.mic1.size()) {
    const std::size_t want = slice_sizes[cursor++ % slice_sizes.size()];
    const std::size_t len = std::min(want, s.mic1.size() - pos);
    session.push(std::span<const double>(s.mic1).subspan(pos, len),
                 std::span<const double>(s.mic2).subspan(pos, len));
    pos += len;
  }
  auto r = session.finalize(metrics);
  if (events != nullptr) *events = session.events();
  if (peak_retained != nullptr) *peak_retained = session.peak_retained_samples();
  return r;
}

/// Bit-exact equality of the deterministic result fields.
void expect_identical(const core::LocalizationResult& a,
                      const core::LocalizationResult& b) {
  EXPECT_EQ(a.valid, b.valid);
  EXPECT_EQ(a.slides_used, b.slides_used);
  EXPECT_EQ(a.estimated_position.x, b.estimated_position.x);
  EXPECT_EQ(a.estimated_position.y, b.estimated_position.y);
  EXPECT_EQ(a.range, b.range);
  EXPECT_EQ(a.estimated_period, b.estimated_period);
  EXPECT_EQ(a.sfo_ppm, b.sfo_ppm);
}

/// The chunking menu every property test sweeps: whole-recording, a prime
/// stride, an uneven mix crossing detector-chunk boundaries, and (for the
/// sessions short enough to afford it) near-degenerate small slices.
std::vector<std::vector<std::size_t>> chunkings(std::size_t n) {
  return {{n}, {100003}, {1009}, {44100, 1, 977, 65536, 3}};
}

TEST(StreamingSession, FixBitIdenticalToBatchForEveryChunking2D) {
  const sim::Session batch = make_session(800);
  core::StageMetrics batch_metrics;
  const auto expect = core::try_localize(batch, {}, &batch_metrics);
  ASSERT_TRUE(expect.has_value());
  ASSERT_TRUE(expect->valid);
  const SplitSession s = split(batch);

  std::vector<core::StreamEvent> base_events;
  for (const auto& slices : chunkings(s.mic1.size())) {
    std::vector<core::StreamEvent> events;
    core::StageMetrics metrics;
    const auto got = run_streamed(s, slices, &events, nullptr, &metrics);
    ASSERT_TRUE(got.has_value());
    expect_identical(*got, *expect);
    EXPECT_EQ(metrics.chirps_mic1, batch_metrics.chirps_mic1);
    EXPECT_EQ(metrics.chirps_mic2, batch_metrics.chirps_mic2);
    EXPECT_EQ(metrics.sfo_estimated, batch_metrics.sfo_estimated);
    EXPECT_EQ(metrics.slides_accepted, batch_metrics.slides_accepted);
    // Event invariance: every chunking must tell the user the same story.
    if (base_events.empty()) {
      base_events = events;
      EXPECT_FALSE(base_events.empty());
    } else {
      EXPECT_EQ(events, base_events);
    }
  }
  // The story must contain the incremental cues the subsystem exists for.
  std::size_t beacons = 0, crossings = 0, phases = 0, fixes = 0;
  for (const core::StreamEvent& e : base_events) {
    switch (e.kind) {
      case core::StreamEvent::Kind::beacon_acquired: ++beacons; break;
      case core::StreamEvent::Kind::sdf_zero_cross: ++crossings; break;
      case core::StreamEvent::Kind::phase_change: ++phases; break;
      case core::StreamEvent::Kind::fix: ++fixes; break;
    }
  }
  EXPECT_EQ(beacons, 2u);  // one per microphone
  EXPECT_GE(phases, 3u);   // sliding_1, solving, done
  EXPECT_EQ(fixes, 1u);
  EXPECT_GT(crossings, 0u);
}

TEST(StreamingSession, FixBitIdenticalToBatchForEveryChunking3D) {
  const sim::Session batch = make_session(810, /*two_statures=*/true);
  const auto expect = core::try_localize(batch, {});
  ASSERT_TRUE(expect.has_value());
  const SplitSession s = split(batch);

  std::vector<core::StreamEvent> base_events;
  for (const auto& slices : chunkings(s.mic1.size())) {
    std::vector<core::StreamEvent> events;
    const auto got = run_streamed(s, slices, &events);
    ASSERT_TRUE(got.has_value());
    expect_identical(*got, *expect);
    if (base_events.empty()) {
      base_events = events;
    } else {
      EXPECT_EQ(events, base_events);
    }
  }
  // The 3D protocol passes through both sliding phases.
  bool saw_slide2 = false;
  for (const core::StreamEvent& e : base_events) {
    if (e.kind == core::StreamEvent::Kind::phase_change &&
        e.phase == core::StreamPhase::sliding_2) {
      saw_slide2 = true;
    }
  }
  EXPECT_TRUE(saw_slide2);
}

TEST(StreamingSession, SingleSamplePushesMatchBatch) {
  // The degenerate chunking on a deliberately short session (trimmed to the
  // calibration head plus a little) — every boundary decision in the
  // filter, detector, and SDF cursors is exercised at every sample.
  sim::Session batch = make_session(820);
  const std::size_t keep = static_cast<std::size_t>(4.5 * batch.audio.sample_rate);
  ASSERT_LT(keep, batch.audio.mic1.size());
  batch.audio.mic1.resize(keep);
  batch.audio.mic2.resize(keep);
  const std::size_t imu_keep = static_cast<std::size_t>(4.5 * batch.imu.sample_rate);
  for (auto* v : {&batch.imu.accel_x, &batch.imu.accel_y, &batch.imu.accel_z,
                  &batch.imu.gyro_x, &batch.imu.gyro_y, &batch.imu.gyro_z}) {
    if (v->size() > imu_keep) v->resize(imu_keep);
  }
  const auto expect = core::try_localize(batch, {});
  const SplitSession s = split(batch);
  std::vector<core::StreamEvent> whole_events, single_events;
  const auto whole = run_streamed(s, {keep}, &whole_events);
  const auto single = run_streamed(s, {1}, &single_events);
  ASSERT_EQ(whole.has_value(), expect.has_value());
  ASSERT_EQ(single.has_value(), expect.has_value());
  if (expect.has_value()) {
    expect_identical(*whole, *expect);
    expect_identical(*single, *expect);
  } else {
    EXPECT_EQ(whole.error().stage, expect.error().stage);
    EXPECT_EQ(single.error().message, whole.error().message);
  }
  EXPECT_EQ(single_events, whole_events);
}

TEST(StreamingSession, PeakRetainedMemoryStaysBounded) {
  // A longer protocol run (five slides per stature) so the recording
  // comfortably exceeds the streaming window.
  sim::ScenarioConfig c = small_scenario();
  c.slides_per_stature = 5;
  Rng rng(830);
  const SplitSession s = split(sim::make_localization_session(c, rng));
  const std::size_t total = s.mic1.size();
  std::size_t peak = 0;
  const auto got = run_streamed(s, {2048}, nullptr, &peak);
  ASSERT_TRUE(got.has_value());
  EXPECT_GT(peak, 0u);
  // The retention contract is a duration-independent constant: per channel
  // one detector chunk (the matched filter processes a chunk only once it
  // is certainly full), the in-flight slice, and the band-pass filter's
  // OLS lookback (well under 32k samples for the ASP kernel).
  const std::size_t chunk = dsp::DetectorConfig{}.chunk;
  const std::size_t bound = 2 * (chunk + 2048) + 32768;
  EXPECT_LT(peak, bound) << "total " << total;
  // And that constant really is "bounded": well below full retention of
  // this recording (2 * total across the two channels).
  EXPECT_LT(bound, total) << "recording too short to demonstrate bounding";
}

TEST(StreamingSession, ErrorTaxonomyMatchesBatch) {
  // Empty stream == empty recording: same category, stage, and message.
  const auto batch_err = core::try_localize(sim::Session{}, {});
  ASSERT_FALSE(batch_err.has_value());
  core::StreamingSession empty{sim::Session{}};
  const auto stream_err = empty.finalize();
  ASSERT_FALSE(stream_err.has_value());
  EXPECT_EQ(stream_err.error().category, batch_err.error().category);
  EXPECT_EQ(stream_err.error().stage, batch_err.error().stage);
  EXPECT_EQ(stream_err.error().message, batch_err.error().message);

  // Invalid config fails validation before touching the audio, same error.
  core::PipelineConfig bad;
  bad.ttl.max_range = -1.0;
  const SplitSession s = split(make_session(840));
  const auto batch_bad = core::try_localize(s.meta, bad);  // audio empty: fine
  core::StreamingSession session(s.meta, bad);
  session.push(std::span<const double>(s.mic1).subspan(0, 1000),
               std::span<const double>(s.mic2).subspan(0, 1000));
  const auto stream_bad = session.finalize();
  ASSERT_FALSE(stream_bad.has_value());
  ASSERT_FALSE(batch_bad.has_value());
  EXPECT_EQ(stream_bad.error().stage, core::PipelineStage::config);
  EXPECT_EQ(stream_bad.error().message, batch_bad.error().message);
}

TEST(StreamingSession, LifecyclePreconditions) {
  const SplitSession s = split(make_session(850));
  core::StreamingSession session(s.meta);
  EXPECT_THROW(session.push(std::span<const double>(s.mic1).subspan(0, 3),
                            std::span<const double>(s.mic2).subspan(0, 2)),
               PreconditionError);
  (void)session.finalize();
  EXPECT_TRUE(session.finalized());
  EXPECT_THROW(session.push(s.mic1, s.mic2), PreconditionError);
  EXPECT_THROW((void)session.finalize(), PreconditionError);

  // Meta arriving with audio attached is a caller bug, caught at once.
  EXPECT_THROW(core::StreamingSession{make_session(851)}, PreconditionError);
}

TEST(StreamingSession, InterleavedSessionsSharingOneContextMatchBatch) {
  // Four live sessions on one thread, one shared plan set, one workspace
  // each, pushes interleaved round-robin: no session may leak state into
  // another through the shared context, and every fix must equal the batch
  // engine's for the same recording.
  std::vector<sim::Session> sessions;
  for (std::uint64_t i = 0; i < 4; ++i) sessions.push_back(make_session(860 + i));
  BatchEngine batch({}, 2);
  const std::vector<SessionReport> expect = batch.localize_all(sessions);

  const core::PipelineConfig config;
  const auto context = std::make_shared<const core::PipelineContext>(
      config, sessions[0].prior.chirp, sessions[0].audio.sample_rate);
  std::vector<SplitSession> splits;
  for (sim::Session& s : sessions) {
    ASSERT_TRUE(context->matches(config.asp, s.prior.chirp, s.audio.sample_rate));
    splits.push_back(split(std::move(s)));
  }
  std::vector<core::SessionWorkspace> workspaces(splits.size());
  std::vector<std::unique_ptr<core::StreamingSession>> live;
  for (std::size_t i = 0; i < splits.size(); ++i) {
    live.push_back(std::make_unique<core::StreamingSession>(
        splits[i].meta, config, context, &workspaces[i]));
  }

  const std::size_t slice = 22050;
  for (std::size_t pos = 0; true; pos += slice) {
    bool any = false;
    for (std::size_t i = 0; i < splits.size(); ++i) {
      const SplitSession& s = splits[i];
      if (pos >= s.mic1.size()) continue;
      any = true;
      const std::size_t len = std::min(slice, s.mic1.size() - pos);
      live[i]->push(std::span<const double>(s.mic1).subspan(pos, len),
                    std::span<const double>(s.mic2).subspan(pos, len));
    }
    if (!any) break;
  }
  for (std::size_t i = 0; i < live.size(); ++i) {
    core::StageMetrics metrics;
    const auto got = live[i]->finalize(&metrics);
    ASSERT_TRUE(got.has_value()) << "session " << i;
    ASSERT_EQ(expect[i].status, SessionStatus::ok) << "session " << i;
    expect_identical(*got, expect[i].result);
    EXPECT_EQ(metrics.chirps_mic1, expect[i].metrics.chirps_mic1);
    EXPECT_EQ(metrics.chirps_mic2, expect[i].metrics.chirps_mic2);
  }
}

}  // namespace
}  // namespace hyperear::runtime
