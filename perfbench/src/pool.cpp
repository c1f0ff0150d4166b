#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <thread>

#include <sys/resource.h>

#include "bench.hpp"
#include "common/rng.hpp"
#include "sim/environment.hpp"
#include "sim/speaker.hpp"

namespace perfbench {

using namespace hyperear;

namespace {

struct Kind {
  const char* name;
  sim::ScenarioConfig config;
};

/// The scenario kinds the pool covers: the properties detection cost
/// depends on (noise, hand jitter, recording length, competing in-band
/// energy, DSP plan). Each appears `kCopiesPerKind` times with its own
/// generator, so a seed yields that many distinct recordings per kind.
std::vector<Kind> pool_kinds() {
  sim::ScenarioConfig base;
  base.speaker_distance = 5.0;
  base.jitter = sim::ruler_jitter();

  std::vector<Kind> kinds;
  kinds.push_back({"quiet_ruler_2d", base});
  {
    sim::ScenarioConfig c = base;
    c.environment = sim::meeting_room_chatting();
    c.jitter = sim::hand_jitter();
    kinds.push_back({"chatter_hand_2d", c});
  }
  {
    sim::ScenarioConfig c = base;
    c.environment = sim::mall_busy_hour();  // 3 dB in-band SNR
    kinds.push_back({"mall_busy_2d", c});
  }
  {
    sim::ScenarioConfig c = base;
    c.two_statures = true;  // ~1.8x the audio of a 2D session
    kinds.push_back({"two_stature_3d", c});
  }
  {
    // An adjacent FDMA channel (5-9 kHz) overlapping the top of the tag's
    // 2-6.4 kHz band: the detector sees 2-3x the raw candidates.
    sim::ScenarioConfig c = base;
    sim::ScenarioConfig::Interferer itf;
    itf.spec = sim::secondary_band_beacon();
    itf.spec.chirp.freq_low_hz = 5000.0;
    itf.spec.chirp.freq_high_hz = 9000.0;
    itf.spec.amplitude_at_1m = 0.6;
    itf.distance = 3.0;
    itf.lateral_offset = 2.5;
    c.interferers.push_back(itf);
    kinds.push_back({"interferer_2d", c});
  }
  {
    // Second chirp plan: a second PipelineContext, and under two server
    // shards this plan hashes to the shard the others do not use.
    sim::ScenarioConfig c = base;
    c.speaker.chirp.freq_high_hz = 5800.0;
    kinds.push_back({"plan_5800_2d", c});
  }
  return kinds;
}

constexpr std::size_t kCopiesPerKind = 2;

/// Pool seed of the accuracy metric, independent of --seed.
constexpr std::uint64_t kAccuracySeed = 1;

sim::Session render_session(const std::vector<Kind>& kinds, std::uint64_t seed, std::size_t i) {
  Rng rng(seed * 1000003u + i);
  return sim::make_localization_session(kinds[i % kinds.size()].config, rng);
}

/// Run `fn(i)` for i in [0, n) on up to `threads` threads.
template <typename Fn>
void parallel_for(std::size_t n, std::size_t threads, Fn fn) {
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) fn(i);
  };
  std::vector<std::thread> pool;
  const std::size_t extra = std::min(threads, n) > 0 ? std::min(threads, n) - 1 : 0;
  pool.reserve(extra);
  for (std::size_t t = 0; t < extra; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

Pool render_pool(std::uint64_t seed, std::size_t threads, obs::Tracer* tracer) {
  const std::vector<Kind> kinds = pool_kinds();
  const std::size_t n = kinds.size() * kCopiesPerKind;
  Pool pool;
  pool.sessions.resize(n);
  pool.kinds.resize(n);
  pool.audio_s.resize(n);
  pool.render_ms.resize(n);
  parallel_for(n, threads, [&](std::size_t i) {
    obs::TraceSpan span(tracer, "sim.render", i + 1);
    const Clock::time_point t0 = Clock::now();
    pool.sessions[i] = render_session(kinds, seed, i);
    pool.render_ms[i] = ms_between(t0, Clock::now());
    pool.kinds[i] = kinds[i % kinds.size()].name;
    const sim::StereoRecording& audio = pool.sessions[i].audio;
    pool.audio_s[i] = static_cast<double>(audio.mic1.size()) / audio.sample_rate;
  });
  for (double s : pool.audio_s) pool.total_audio_s += s;
  return pool;
}

sim::Session stream_meta(const sim::Session& session) {
  sim::Session meta;
  meta.imu = session.imu;
  meta.truth = session.truth;
  meta.prior = session.prior;
  meta.config = session.config;
  meta.audio.sample_rate = session.audio.sample_rate;
  return meta;
}

void compute_references(Pool& pool, std::size_t threads) {
  std::vector<std::optional<Outcome>> out(pool.sessions.size());
  parallel_for(pool.sessions.size(), threads, [&](std::size_t i) {
    out[i].emplace(core::try_localize(pool.sessions[i]));
  });
  pool.references.clear();
  for (std::optional<Outcome>& o : out) pool.references.push_back(std::move(*o));
}

double fix_error_cm_mean(std::size_t threads) {
  const std::vector<Kind> kinds = pool_kinds();
  const std::size_t n = kinds.size() * kCopiesPerKind;
  std::vector<double> error_cm(n, -1.0);  // stays negative for an invalid fix
  parallel_for(n, threads, [&](std::size_t i) {
    const sim::Session session = render_session(kinds, kAccuracySeed, i);
    const Outcome fix = core::try_localize(session);
    if (fix.has_value() && fix->valid) {
      error_cm[i] = 100.0 * core::localization_error(*fix, session);
    }
  });
  double sum = 0.0;
  double valid = 0.0;
  for (double e : error_cm) {
    if (e >= 0.0) {
      sum += e;
      valid += 1.0;
    }
  }
  return valid > 0.0 ? sum / valid : 0.0;
}

bool matches_reference(const Outcome& got, const Outcome& reference) {
  if (got.has_value() != reference.has_value()) return false;
  if (!got.has_value()) {
    return got.error().category == reference.error().category &&
           got.error().stage == reference.error().stage;
  }
  const core::LocalizationResult& a = *got;
  const core::LocalizationResult& b = *reference;
  return a.valid == b.valid && a.slides_used == b.slides_used &&
         a.used_3d() == b.used_3d() &&
         same_bits(a.estimated_position.x, b.estimated_position.x) &&
         same_bits(a.estimated_position.y, b.estimated_position.y) &&
         same_bits(a.range, b.range) &&
         same_bits(a.estimated_period, b.estimated_period) &&
         same_bits(a.sfo_ppm, b.sfo_ppm);
}

bool matches_reference(const runtime::SessionReport& got, const Outcome& reference) {
  if (got.status == runtime::SessionStatus::error) {
    return matches_reference(Outcome(make_unexpected(got.error)), reference);
  }
  return matches_reference(Outcome(got.result), reference);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double percentile_of_medians(const std::vector<std::vector<double>>& per_session,
                             double p) {
  std::vector<double> medians;
  for (const std::vector<double>& values : per_session) {
    if (!values.empty()) medians.push_back(percentile(values, 0.5));
  }
  return percentile(std::move(medians), p);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double counter_value(const obs::MetricsRegistry& registry, const std::string& name) {
  for (const auto& [key, value] : registry.snapshot().counters) {
    if (key == name) return value;
  }
  return 0.0;
}

HistogramTotal histogram_total(const obs::MetricsRegistry& registry, const std::string& name) {
  for (const obs::HistogramSnapshot& h : registry.snapshot().histograms) {
    if (h.name == name) return {h.sum, static_cast<double>(h.count)};
  }
  return {};
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
