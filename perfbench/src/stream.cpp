/// stream_chunked: a closed loop of up to nproc threads, each feeding pool
/// sessions to `core::StreamingSession` in 10 ms `push` calls as fast as
/// each returns, then calling `finalize`. The engine and server are
/// bypassed; the DSP runs through the streaming filter and detector cursor.

#include <algorithm>
#include <atomic>
#include <map>
#include <random>
#include <thread>

#include "bench.hpp"
#include "core/pipeline_context.hpp"
#include "core/session_workspace.hpp"
#include "core/streaming_session.hpp"

namespace perfbench {

using namespace hyperear;

namespace {

/// Per-thread tallies, merged after the threads join.
struct Tally {
  std::vector<double> push_us;
  std::vector<double> latency_ms;
  std::vector<double> ttf_ms;
  double audio_s = 0.0;
  std::size_t attempted = 0;
  std::size_t good = 0;
  std::size_t failed = 0;
  std::size_t mismatched = 0;
};

class StreamWorkload final : public Workload {
 public:
  StreamWorkload(const Pool& pool, const Options& options, const TraceSink& trace)
      : pool_(pool),
        options_(options),
        trace_(trace),
        threads_(std::min(options.threads, pool.sessions.size())),
        workspaces_(threads_) {
    // Build each distinct plan once; sessions share it read-only.
    const core::PipelineConfig config;
    std::map<std::uint64_t, std::shared_ptr<const core::PipelineContext>> plans;
    for (const sim::Session& s : pool_.sessions) {
      const std::uint64_t key =
          core::plan_key_hash(config.asp, s.prior.chirp, s.audio.sample_rate);
      auto it = plans.find(key);
      if (it == plans.end()) {
        it = plans
                 .emplace(key, std::make_shared<const core::PipelineContext>(
                                   config, s.prior.chirp, s.audio.sample_rate))
                 .first;
      }
      contexts_.push_back(it->second);
    }
    // Warm every thread's workspace with the longest session.
    const auto longest = static_cast<std::size_t>(
        std::max_element(pool_.audio_s.begin(), pool_.audio_s.end()) - pool_.audio_s.begin());
    std::vector<std::thread> warm;
    for (std::size_t t = 0; t < threads_; ++t) {
      warm.emplace_back([this, t, longest] {
        Tally ignored;
        stream_one(longest, workspaces_[t], ignored);
      });
    }
    for (std::thread& th : warm) th.join();
  }

  WorkloadResult measure(double seconds) override {
    std::mt19937_64 rng(options_.seed ^ 0x57e40000u);
    std::vector<std::size_t> order(pool_.sessions.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), rng);

    std::vector<Tally> tallies(threads_);
    std::atomic<std::size_t> next{0};
    const Clock::time_point t0 = Clock::now();
    const Clock::time_point end =
        t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < threads_; ++t) {
      threads.emplace_back([&, t] {
        // Every thread completes at least one session.
        do {
          const std::size_t k = next.fetch_add(1);
          stream_one(order[k % order.size()], workspaces_[t], tallies[t]);
        } while (Clock::now() < end);
      });
    }
    for (std::thread& th : threads) th.join();
    const double elapsed_s = ms_between(t0, Clock::now()) / 1000.0;

    Tally all;
    for (Tally& t : tallies) {
      all.push_us.insert(all.push_us.end(), t.push_us.begin(), t.push_us.end());
      all.latency_ms.insert(all.latency_ms.end(), t.latency_ms.begin(), t.latency_ms.end());
      all.ttf_ms.insert(all.ttf_ms.end(), t.ttf_ms.begin(), t.ttf_ms.end());
      all.audio_s += t.audio_s;
      all.attempted += t.attempted;
      all.good += t.good;
      all.failed += t.failed;
      all.mismatched += t.mismatched;
    }
    WorkloadResult out;
    out.attempted = all.attempted;
    out.failed = all.failed;
    out.mismatched = all.mismatched;
    out.headline_ms = percentile(all.latency_ms, 0.5);
    out.metrics = {
        {"audio_s_per_s", all.audio_s / elapsed_s, "s/s"},
        {"latency_ms_p50", out.headline_ms, "ms"},
        {"latency_ms_p90", percentile(all.latency_ms, 0.9), "ms"},
        {"goodput_rps", static_cast<double>(all.good) / elapsed_s, "1/s"},
        {"capacity_rps", static_cast<double>(all.attempted) / elapsed_s, "1/s"},
        {"time_to_fix_ms_p50", percentile(all.ttf_ms, 0.5), "ms"},
        {"time_to_fix_ms_p90", percentile(all.ttf_ms, 0.9), "ms"},
        {"push_us_p50", percentile(all.push_us, 0.5), "us"},
        {"push_us_p99", percentile(all.push_us, 0.99), "us"},
    };
    return out;
  }

 private:
  /// Stream pool session `index` in kPushSamples pushes and finalize it.
  void stream_one(std::size_t index, core::SessionWorkspace& ws, Tally& tally) const {
    const sim::Session& session = pool_.sessions[index];
    obs::Tracer* tracer = trace_.tracer.get();
    const obs::ObsContext obs{trace_.registry.get(), tracer, index + 1};
    const Clock::time_point opened = Clock::now();
    obs::TraceSpan root(tracer, "core.stream.session", index + 1);
    core::StreamingSession stream(stream_meta(session), core::PipelineConfig{},
                                  contexts_[index], &ws);
    const std::span<const double> mic1(session.audio.mic1);
    const std::span<const double> mic2(session.audio.mic2);
    Clock::time_point last = opened;
    for (std::size_t i = 0; i < mic1.size(); i += kPushSamples) {
      const std::size_t n = std::min(kPushSamples, mic1.size() - i);
      obs::TraceSpan span(tracer, "core.stream.push", index + 1, &root);
      const Clock::time_point a = Clock::now();
      stream.push(mic1.subspan(i, n), mic2.subspan(i, n));
      last = Clock::now();
      tally.push_us.push_back(ms_between(a, last) * 1000.0);
    }
    Outcome outcome = [&] {
      obs::TraceSpan span(tracer, "core.stream.finalize", index + 1, &root);
      return stream.finalize(nullptr, trace_.registry ? &obs : nullptr);
    }();
    const Clock::time_point fixed = Clock::now();
    ++tally.attempted;
    tally.latency_ms.push_back(ms_between(opened, fixed));
    tally.ttf_ms.push_back(ms_between(last, fixed));
    if (pool_.references.empty()) return;  // warm-up runs before references exist
    const bool matches = matches_reference(outcome, pool_.references[index]);
    if (!matches) ++tally.mismatched;
    if (!outcome.has_value()) {
      ++tally.failed;
    } else if (outcome->valid && matches) {
      ++tally.good;
      tally.audio_s += pool_.audio_s[index];
    }
  }

  const Pool& pool_;
  const Options& options_;
  TraceSink trace_;
  std::size_t threads_;
  std::vector<std::shared_ptr<const core::PipelineContext>> contexts_;
  std::vector<core::SessionWorkspace> workspaces_;
};

}  // namespace

std::unique_ptr<Workload> make_stream(const Pool& pool, const Options& options,
                                      const TraceSink& trace) {
  return std::make_unique<StreamWorkload>(pool, options, trace);
}

}  // namespace perfbench
