#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/thread_annotations.hpp"
#include "core/pipeline.hpp"
#include "core/pipeline_context.hpp"

/// @file context_cache.hpp
/// Cache of immutable core::PipelineContext plan sets.
///
/// One mutex over one vector is enough: workers memoize the last context
/// they used (runtime::WorkspacePool's WorkerState), so the steady-state
/// path never takes this lock — the cache is touched only when a worker
/// first sees a new configuration — and `runtime::Server` already shards
/// its engines by `core::plan_key_hash`, so each engine sees about one
/// configuration.
///
/// Contexts are immutable after construction, so handing the same
/// shared_ptr to many workers is safe by construction; the lock protects
/// only the entry vector.

namespace hyperear::runtime {

class ContextCache {
 public:
  /// Find-or-build the plans for this configuration. The lock covers
  /// construction too — the first session of a combination builds the
  /// plans while lookalikes wait, instead of racing to build duplicates
  /// (plan construction is the expensive part; a duplicate would also
  /// defeat the sharing the cache exists for).
  ///
  /// Returns null when the plans cannot be built (pathological session —
  /// e.g. an absurd sample rate): the caller falls back to context-free
  /// core::try_localize, which rebuilds and fails INSIDE the ASP stage so
  /// the error is classified against the stage that owns it.
  [[nodiscard]] std::shared_ptr<const core::PipelineContext> acquire(
      const core::PipelineConfig& config, const dsp::ChirpParams& chirp,
      double sample_rate) {
    const he::MutexLock lock(mutex_);
    for (const auto& c : entries_) {
      if (c->matches(config.asp, chirp, sample_rate)) return c;
    }
    try {
      auto fresh = std::make_shared<const core::PipelineContext>(config, chirp,
                                                                 sample_rate);
      if (entries_.size() < kMaxEntries) entries_.push_back(fresh);
      return fresh;
    } catch (const std::exception&) {
      return nullptr;
    }
  }

  /// Cached plan sets (diagnostics/tests).
  [[nodiscard]] std::size_t size() const {
    const he::MutexLock lock(mutex_);
    return entries_.size();
  }

 private:
  /// Virtually every batch uses one configuration, so the bound only
  /// guards against an adversarial stream of distinct configurations
  /// growing the cache without end. Overflow entries are still returned,
  /// just not retained.
  static constexpr std::size_t kMaxEntries = 64;

  mutable he::Mutex mutex_ HE_LOCK_LEVEL(engine);
  std::vector<std::shared_ptr<const core::PipelineContext>> entries_
      HE_GUARDED_BY(mutex_);
};

}  // namespace hyperear::runtime
