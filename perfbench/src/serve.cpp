/// serve_open_loop: one generator thread drives `runtime::Server` (two
/// shards) on a fixed Poisson schedule at the rate given on the command
/// line, then overloads it with zero-gap bursts past the admission bound.
/// A collector thread stamps each response when it resolves, on the
/// benchmark's clock. Steady-phase latency is timed from each request's
/// scheduled send time, so a late generator or a stalled server shows as
/// latency.

#include <algorithm>
#include <cstdio>
#include <exception>
#include <future>
#include <mutex>
#include <random>
#include <thread>

#include "bench.hpp"
#include "runtime/server.hpp"

namespace perfbench {

using namespace hyperear;

namespace {

/// Latency recorded for a request that was refused or did not complete:
/// it misses every limit.
constexpr double kMissedMs = 1e9;

/// Share of the measured seconds spent in the steady (scheduled) phase;
/// the rest is the overload phase.
constexpr double kSteadyShare = 0.8;

/// Share of steady-phase requests sent as the streaming class.
constexpr double kStreamingShare = 0.3;

/// Seed of the traffic pattern: arrival times, request order over pool
/// slots and class mix. It is fixed, so every run offers the same pattern
/// and --seed varies only the recordings in the slots.
constexpr std::uint64_t kScheduleSeed = 1;

/// How often the collector looks for resolved responses.
constexpr std::chrono::microseconds kPollInterval{200};

runtime::ServerOptions server_options(const Options& options) {
  runtime::ServerOptions o;
  o.shards = 2;
  // Generator and collector threads + shards * threads_per_shard workers
  // stay within nproc.
  o.threads_per_shard = std::max<std::size_t>(1, (options.threads - 2) / o.shards);
  const std::size_t workers = o.shards * o.threads_per_shard;
  o.max_in_flight = 2 * workers;
  o.max_queued = 4 * workers;
  return o;
}

struct Sent {
  std::future<runtime::Response> response;
  Clock::time_point due;
  std::size_t index = 0;  ///< pool slot
};

/// A resolved request and when the collector saw it resolve.
struct Done {
  Sent sent;
  runtime::Response response;
  Clock::time_point at;
};

/// One thread that polls the outstanding responses and stamps
/// `Clock::now()` as each becomes ready, so a caller's wait is measured on
/// the benchmark's clock, whatever the server stamps itself.
class Collector {
 public:
  Collector() : thread_([this] { run(); }) {}
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;
  ~Collector() { close(); }

  void add(Sent sent) {
    const std::lock_guard lock(mutex_);
    inbox_.push_back(std::move(sent));
  }

  /// Wait until every added request has resolved; returns them in the
  /// order they resolved.
  std::vector<Done> finish() {
    close();
    if (error_) std::rethrow_exception(error_);
    return std::move(done_);
  }

 private:
  void close() {
    if (!thread_.joinable()) return;
    {
      const std::lock_guard lock(mutex_);
      closing_ = true;
    }
    thread_.join();
  }

  void run() {
    try {
      poll();
    } catch (...) {
      error_ = std::current_exception();  // rethrown by finish()
    }
  }

  void poll() {
    std::vector<Sent> pending;
    while (true) {
      bool closing = false;
      {
        const std::lock_guard lock(mutex_);
        for (Sent& s : inbox_) pending.push_back(std::move(s));
        inbox_.clear();
        closing = closing_;
      }
      bool resolved = false;
      for (std::size_t i = 0; i < pending.size();) {
        if (pending[i].response.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          ++i;
          continue;
        }
        const Clock::time_point at = Clock::now();
        runtime::Response response = pending[i].response.get();
        done_.push_back({std::move(pending[i]), std::move(response), at});
        if (i + 1 < pending.size()) pending[i] = std::move(pending.back());
        pending.pop_back();
        resolved = true;
      }
      if (closing && pending.empty()) return;
      if (!resolved) std::this_thread::sleep_for(kPollInterval);
    }
  }

  std::mutex mutex_;
  std::vector<Sent> inbox_;  ///< guarded by mutex_
  bool closing_ = false;     ///< guarded by mutex_
  std::vector<Done> done_;   ///< the collector thread's until it is joined
  std::exception_ptr error_;  ///< likewise
  std::thread thread_;        ///< last, so it starts after the members it uses
};


class ServeWorkload final : public Workload {
 public:
  ServeWorkload(const Pool& pool, const Options& options, const TraceSink& trace)
      : pool_(pool),
        options_(options),
        trace_(trace),
        server_(core::PipelineConfig{}, server_options(options),
                runtime::EngineObs{trace.registry, trace.tracer}) {
    // Warm every shard's worker with that shard's longest session in both
    // request classes, so plans and workspaces are built before timing.
    std::vector<std::future<runtime::Response>> warm;
    for (std::size_t shard = 0; shard < server_.shard_count(); ++shard) {
      std::size_t longest = pool_.sessions.size();
      for (std::size_t i = 0; i < pool_.sessions.size(); ++i) {
        if (server_.shard_for(pool_.sessions[i]) != shard) continue;
        if (longest == pool_.sessions.size() || pool_.audio_s[i] > pool_.audio_s[longest]) {
          longest = i;
        }
      }
      if (longest == pool_.sessions.size()) continue;
      for (runtime::RequestClass cls :
           {runtime::RequestClass::batch, runtime::RequestClass::streaming}) {
        runtime::SubmitResult r = server_.submit(pool_.sessions[longest], cls);
        ++submitted_;
        if (r.admission == runtime::Admission::accepted) {
          warm.push_back(std::move(r.response));
        }
      }
    }
    for (auto& f : warm) {
      if (f.get().outcome == runtime::RequestOutcome::completed) ++completed_;
    }
  }

  WorkloadResult measure(double seconds) override {
    WorkloadResult out;
    const runtime::ServerOptions& so = server_.options();
    const HistogramTotal task_wait_before =
        histogram_total(server_.metrics(), "engine.pool.task_wait_ms");
    // A change to the service shows as a change in latency, not as a
    // different draw of queueing luck: the pattern is the same every run.
    std::mt19937_64 rng(kScheduleSeed);

    // ---- steady phase: n requests at uniformly drawn times in [0, D), i.e.
    // a Poisson process at `rate_rps` conditioned on its count.
    const double steady_ms = kSteadyShare * seconds * 1000.0;
    const auto n = static_cast<std::size_t>(
        std::max(1.0, std::round(options_.rate_rps * steady_ms / 1000.0)));
    std::uniform_real_distribution<double> uniform(0.0, steady_ms);
    std::vector<double> offsets(n);
    for (double& t : offsets) t = uniform(rng);
    std::sort(offsets.begin(), offsets.end());
    std::vector<std::size_t> order;
    while (order.size() < n) {
      std::vector<std::size_t> cycle(pool_.sessions.size());
      for (std::size_t i = 0; i < cycle.size(); ++i) cycle[i] = i;
      std::shuffle(cycle.begin(), cycle.end(), rng);
      order.insert(order.end(), cycle.begin(), cycle.end());
    }
    std::vector<bool> streaming(n, false);
    const auto n_streaming =
        static_cast<std::size_t>(std::round(kStreamingShare * static_cast<double>(n)));
    std::fill(streaming.begin(), streaming.begin() + static_cast<std::ptrdiff_t>(n_streaming),
              true);
    std::shuffle(streaming.begin(), streaming.end(), rng);

    Collector steady;
    std::vector<double> latency_ms;  // refused requests are recorded here
    std::vector<double> lag_ms;
    std::vector<double> submit_us;
    const Clock::time_point origin = Clock::now() + std::chrono::milliseconds(20);
    for (std::size_t i = 0; i < n; ++i) {
      sim::Session copy = pool_.sessions[order[i]];  // prepared before it is due
      const Clock::time_point due =
          origin + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::milli>(offsets[i]));
      std::this_thread::sleep_until(due);
      obs::TraceSpan span(trace_.tracer.get(), "runtime.server.submit", i + 1);
      const Clock::time_point ts = Clock::now();
      runtime::SubmitResult r = server_.submit(
          std::move(copy),
          streaming[i] ? runtime::RequestClass::streaming : runtime::RequestClass::batch);
      const Clock::time_point te = Clock::now();
      span.finish();
      ++submitted_;
      lag_ms.push_back(ms_between(due, ts));
      submit_us.push_back(ms_between(ts, te) * 1000.0);
      if (r.admission == runtime::Admission::accepted) {
        steady.add({std::move(r.response), due, order[i]});
      } else {
        ++out.failed;  // refused in the steady phase
        latency_ms.push_back(kMissedMs);
      }
    }
    out.attempted += n;

    std::vector<std::vector<double>> slice_us(pool_.sessions.size());
    std::vector<double> service_ms;
    std::vector<double> queue_wait_ms;
    std::size_t good = 0;
    double audio_s = 0.0;
    double span_ms = 0.0;
    for (const Done& d : steady.finish()) {
      const runtime::Response& r = d.response;
      if (r.outcome != runtime::RequestOutcome::completed) {
        ++out.failed;
        latency_ms.push_back(kMissedMs);
        continue;
      }
      ++completed_;
      const double done_ms = ms_between(origin, d.at);
      span_ms = std::max(span_ms, done_ms);
      const double latency = ms_between(d.sent.due, d.at);
      latency_ms.push_back(latency);
      const std::size_t index = d.sent.index;
      if (!check(r, index, out)) continue;
      // The server's own stamps feed only the per-layer split.
      service_ms.push_back(r.report.wall_ms);
      queue_wait_ms.push_back(r.latency_ms - r.report.wall_ms);
      slice_us[index].push_back(us_per_10ms(latency, pool_.audio_s[index]));
      if (r.report.status == runtime::SessionStatus::ok &&
          latency <= options_.latency_limit_ms) {
        ++good;
        audio_s += pool_.audio_s[index];
      }
    }
    const double span_s = std::max(span_ms, 1.0) / 1000.0;

    // ---- overload phase: keep the queue full with zero-gap bursts, each
    // larger than the free admission room, for the rest of the run.
    server_.drain();
    const runtime::ServerStats before = server_.stats();
    const std::size_t top_up = so.max_queued / 2 + 2;
    Collector overload;
    std::size_t burst_submitted = 0;
    std::size_t burst_shed = 0;
    const Clock::time_point ol_start = Clock::now();
    const Clock::time_point ol_end =
        ol_start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(
                       (1.0 - kSteadyShare) * seconds));
    std::size_t next = 0;
    const auto prepare = [&](std::size_t count) {
      std::vector<std::pair<std::size_t, sim::Session>> burst;
      for (std::size_t k = 0; k < count; ++k, ++next) {
        const std::size_t index = order[next % order.size()];
        burst.emplace_back(index, pool_.sessions[index]);
      }
      return burst;
    };
    auto burst = prepare(so.max_in_flight + so.max_queued + 2);
    while (true) {
      for (auto& [index, session] : burst) {
        const Clock::time_point ts = Clock::now();
        runtime::SubmitResult r = server_.submit(std::move(session));
        ++submitted_;
        ++burst_submitted;
        if (r.admission == runtime::Admission::accepted) {
          overload.add({std::move(r.response), ts, index});
        } else {
          ++burst_shed;
        }
      }
      if (Clock::now() >= ol_end) break;
      burst = prepare(top_up);
      while (server_.stats().queued > so.max_queued / 2 && Clock::now() < ol_end) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      if (Clock::now() >= ol_end) break;
    }
    // The queue is not empty here: a burst has just filled it, or it has
    // stayed above half since the last one. Completions up to now count.
    const Clock::time_point ol_stop = Clock::now();
    out.attempted += burst_submitted;
    std::vector<double> done_ms;
    for (const Done& d : overload.finish()) {
      if (d.response.outcome != runtime::RequestOutcome::completed) continue;
      ++completed_;
      (void)check(d.response, d.sent.index, out);
      const double t = ms_between(ol_start, d.at);
      if (t <= ms_between(ol_start, ol_stop)) done_ms.push_back(t);
    }
    std::sort(done_ms.begin(), done_ms.end());
    const double capacity =
        done_ms.size() >= 2 ? 1000.0 * static_cast<double>(done_ms.size() - 1) /
                                  (done_ms.back() - done_ms.front())
                            : 0.0;

    server_.drain();
    const runtime::ServerStats st = server_.stats();
    out.conserved = st.submitted == st.completed + st.shed + st.expired + st.cancelled +
                                        st.queued + st.in_flight &&
                    st.queued == 0 && st.in_flight == 0 && st.submitted == submitted_ &&
                    st.completed == completed_ && st.shed - before.shed == burst_shed;

    const double p50 = percentile(latency_ms, 0.5);
    const double p90 = percentile(latency_ms, 0.9);
    out.headline_ms = p50;
    out.metrics = {
        {"audio_s_per_s", audio_s / span_s, "s/s"},
        {"latency_ms_p50", p50, "ms"},
        {"latency_ms_p90", p90, "ms"},
        {"goodput_rps", static_cast<double>(good) / span_s, "1/s"},
        {"capacity_rps", capacity, "1/s"},
        {"time_to_fix_ms_p50", p50, "ms"},
        {"time_to_fix_ms_p90", p90, "ms"},
        {"push_us_p50", percentile_of_medians(slice_us, 0.5), "us"},
        {"push_us_p99", percentile_of_medians(slice_us, 0.99), "us"},
    };
    const obs::MetricsRegistry& reg = server_.metrics();
    const HistogramTotal task_wait = histogram_total(reg, "engine.pool.task_wait_ms");
    const double task_waits = task_wait.count - task_wait_before.count;
    std::vector<double> dispatched;
    for (std::size_t i = 0; i < server_.shard_count(); ++i) {
      dispatched.push_back(
          counter_value(reg, "server.shard." + std::to_string(i) + ".dispatched_total"));
    }
    const double lo = *std::min_element(dispatched.begin(), dispatched.end());
    const double hi = *std::max_element(dispatched.begin(), dispatched.end());
    out.layers = {
        {"runtime.server.submit_us", mean(submit_us), "us"},
        {"runtime.server.queue_wait_ms", mean(queue_wait_ms), "ms"},
        {"runtime.server.service_ms", mean(service_ms), "ms"},
        {"runtime.server.peak_queued", static_cast<double>(st.peak_queued), "count"},
        {"runtime.server.shed_ratio",
         burst_submitted > 0
             ? static_cast<double>(burst_shed) / static_cast<double>(burst_submitted)
             : 0.0,
         "ratio"},
        {"runtime.server.shard_skew", lo > 0.0 ? hi / lo : hi, "ratio"},
        {"runtime.server.generator_lag_ms", mean(lag_ms), "ms"},
        {"runtime.pool.task_wait_ms",
         task_waits > 0.0 ? (task_wait.sum - task_wait_before.sum) / task_waits : 0.0, "ms"},
    };
    std::printf(
        "{\"serve\": {\"steady_requests\": %zu, \"generator_lag_ms_mean\": %.4f, "
        "\"generator_lag_ms_max\": %.4f, \"overload_submitted\": %zu, "
        "\"overload_shed\": %zu, \"overload_completions_timed\": %zu, "
        "\"peak_queued\": %zu, \"conserved\": %s}}\n",
        n, mean(lag_ms), percentile(lag_ms, 1.0), burst_submitted, burst_shed,
        done_ms.size(), st.peak_queued, out.conserved ? "true" : "false");
    return out;
  }

 private:
  /// Check a completed response against the reference; count errors.
  bool check(const runtime::Response& r, std::size_t index, WorkloadResult& out) const {
    const bool matches = matches_reference(r.report, pool_.references[index]);
    if (!matches) ++out.mismatched;
    if (r.report.status == runtime::SessionStatus::error) ++out.failed;
    return matches && r.report.status != runtime::SessionStatus::error;
  }

  const Pool& pool_;
  const Options& options_;
  TraceSink trace_;
  runtime::Server server_;
  std::size_t submitted_ = 0;  ///< every submit this workload made
  std::size_t completed_ = 0;  ///< every response that came back completed
};

}  // namespace

std::unique_ptr<Workload> make_serve(const Pool& pool, const Options& options,
                                     const TraceSink& trace) {
  return std::make_unique<ServeWorkload>(pool, options, trace);
}

}  // namespace perfbench
