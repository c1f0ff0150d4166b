/// batch_offline: a closed loop of `BatchEngine::localize_all` rounds over
/// the whole pool on nproc workers. Every session of a round is handed in
/// at the round's start and handed back when the call returns, so each
/// session's latency (and time to fix) is the round's makespan.

#include "bench.hpp"

namespace perfbench {

using namespace hyperear;

namespace {

class BatchWorkload final : public Workload {
 public:
  BatchWorkload(const Pool& pool, const Options& options, const TraceSink& trace)
      : pool_(pool),
        trace_(trace),
        engine_(core::PipelineConfig{}, options.threads,
                runtime::EngineObs{trace.registry, trace.tracer}) {
    (void)engine_.localize_all(pool_.sessions);  // plans, workspaces, pages
  }

  WorkloadResult measure(double seconds) override {
    WorkloadResult out;
    std::vector<double> makespan_ms;
    std::vector<double> audio_rate;    // per round: correct audio s per s
    std::vector<double> good_rate;     // per round: correct valid fixes per s
    std::vector<double> session_rate;  // per round: sessions per s
    std::vector<std::vector<double>> slice_us(pool_.sessions.size());
    std::vector<double> service_ms;
    std::vector<double> wait_ms;
    double elapsed_ms = 0.0;
    // At least two rounds, so a round-length outlier cannot be the sample.
    while (elapsed_ms < seconds * 1000.0 || makespan_ms.size() < 2) {
      obs::TraceSpan span(trace_.tracer.get(), "runtime.engine.localize_all",
                          makespan_ms.size() + 1);
      const Clock::time_point t0 = Clock::now();
      const std::vector<runtime::SessionReport> reports =
          engine_.localize_all(pool_.sessions);
      const double round_ms = ms_between(t0, Clock::now());
      span.finish();
      elapsed_ms += round_ms;
      makespan_ms.push_back(round_ms);
      std::size_t good = 0;
      double audio_s = 0.0;
      for (std::size_t i = 0; i < reports.size(); ++i) {
        const runtime::SessionReport& r = reports[i];
        ++out.attempted;
        const bool matches = matches_reference(r, pool_.references[i]);
        if (!matches) ++out.mismatched;
        if (r.status == runtime::SessionStatus::error) ++out.failed;
        if (r.status == runtime::SessionStatus::ok && matches) {
          ++good;
          audio_s += pool_.audio_s[i];
        }
        slice_us[i].push_back(us_per_10ms(round_ms, pool_.audio_s[i]));
        service_ms.push_back(r.wall_ms);
        wait_ms.push_back(round_ms - r.wall_ms);
      }
      audio_rate.push_back(1000.0 * audio_s / round_ms);
      good_rate.push_back(1000.0 * static_cast<double>(good) / round_ms);
      session_rate.push_back(1000.0 * static_cast<double>(reports.size()) / round_ms);
    }
    // Rates are medians over rounds, so a transient stall of the machine
    // moves them less than a whole-run total would.
    const double p50 = percentile(makespan_ms, 0.5);
    const double p90 = percentile(makespan_ms, 0.9);
    out.headline_ms = p50;
    out.metrics = {
        {"audio_s_per_s", percentile(audio_rate, 0.5), "s/s"},
        {"latency_ms_p50", p50, "ms"},
        {"latency_ms_p90", p90, "ms"},
        {"goodput_rps", percentile(good_rate, 0.5), "1/s"},
        {"capacity_rps", percentile(session_rate, 0.5), "1/s"},
        {"time_to_fix_ms_p50", p50, "ms"},
        {"time_to_fix_ms_p90", p90, "ms"},
        {"push_us_p50", percentile_of_medians(slice_us, 0.5), "us"},
        {"push_us_p99", percentile_of_medians(slice_us, 0.99), "us"},
    };
    out.layers = {
        {"runtime.engine.service_ms", mean(service_ms), "ms"},
        {"runtime.engine.wait_ms", mean(wait_ms), "ms"},
    };
    return out;
  }

 private:
  const Pool& pool_;
  TraceSink trace_;
  runtime::BatchEngine engine_;
};

}  // namespace

std::unique_ptr<Workload> make_batch(const Pool& pool, const Options& options,
                                     const TraceSink& trace) {
  return std::make_unique<BatchWorkload>(pool, options, trace);
}

}  // namespace perfbench
