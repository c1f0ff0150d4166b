#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/thread_annotations.hpp"
#include "core/pipeline_context.hpp"
#include "core/session_workspace.hpp"

/// @file workspace_pool.hpp
/// Checkout pool of per-worker session state for the batch engine.
///
/// A core::SessionWorkspace is single-owner mutable scratch; the pool turns
/// that rule into a mechanism. A worker checks out a `WorkerState` for the
/// duration of one session and returns it afterwards (RAII lease), so
/// exclusivity holds by construction: a state is either in exactly one
/// lease or on the free list, never both, and two workers can never hold
/// the same state (tests/test_engine.cpp's exclusivity test and the tsan
/// preset enforce this). States persist across sessions, which is the
/// whole point — a returned workspace comes back warm, so the next session
/// on any worker runs allocation-free.
///
/// Each state also memoizes the last PipelineContext its sessions used.
/// That pointer is worker-private (no lock to read it), so the steady
/// state — thousands of sessions, one configuration — touches neither the
/// context-cache lock nor any other cross-session lock; the pool's
/// own mutex guards only an O(1) pointer pop/push per session.

namespace hyperear::runtime {

class WorkspacePool {
 public:
  /// One worker's persistent session state.
  struct WorkerState {
    core::SessionWorkspace workspace;
    /// Last plan set this state's sessions used — the lock-free fast path
    /// of context lookup. May be null (fresh state, or last acquire
    /// failed); always re-validated with `matches` before reuse.
    std::shared_ptr<const core::PipelineContext> last_context;
    /// Sessions this state has served (diagnostics/tests).
    std::uint64_t sessions_served = 0;
  };

  /// Exclusive RAII handle on a WorkerState; returns it on destruction.
  class Lease {
   public:
    Lease(WorkspacePool& pool, std::unique_ptr<WorkerState> state)
        : pool_(&pool), state_(std::move(state)) {}
    Lease(Lease&&) = default;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Lease& operator=(Lease&&) = delete;
    ~Lease() {
      if (state_ != nullptr) pool_->give_back(std::move(state_));
    }

    [[nodiscard]] WorkerState& operator*() const { return *state_; }
    [[nodiscard]] WorkerState* operator->() const { return state_.get(); }

   private:
    WorkspacePool* pool_;
    std::unique_ptr<WorkerState> state_;
  };

  /// Check out a state, creating one if the free list is empty — the pool
  /// grows to the engine's peak concurrency and no further.
  [[nodiscard]] Lease checkout() HE_EXCLUDES(mutex_) {
    {
      const he::MutexLock lock(mutex_);
      if (!free_.empty()) {
        std::unique_ptr<WorkerState> state = std::move(free_.back());
        free_.pop_back();
        return Lease(*this, std::move(state));
      }
    }
    ++created_;
    return Lease(*this, std::make_unique<WorkerState>());
  }

  /// States ever created (== peak concurrent leases; diagnostics/tests).
  [[nodiscard]] std::size_t created() const {
    return created_.load(std::memory_order_relaxed);
  }

 private:
  void give_back(std::unique_ptr<WorkerState> state) HE_EXCLUDES(mutex_) {
    const he::MutexLock lock(mutex_);
    free_.push_back(std::move(state));
  }

  he::Mutex mutex_ HE_LOCK_LEVEL(engine);
  std::vector<std::unique_ptr<WorkerState>> free_ HE_GUARDED_BY(mutex_);
  std::atomic<std::size_t> created_{0};
};

}  // namespace hyperear::runtime
