#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "common/contracts.hpp"
#include "dsp/matched_filter.hpp"

/// @file session_workspace.hpp
/// The mutable counterpart of core::PipelineContext: everything a pipeline
/// run scribbles on that is worth keeping warm between sessions.
///
/// The context/workspace split is the pipeline's ownership model. A
/// `PipelineContext` is deeply immutable and shared read-only by any number
/// of concurrent runs; a `SessionWorkspace` is all the mutable state of one
/// run — per-channel filter output, matched-filter scratch, detection
/// staging, and the SFO fit's scratch series — and is therefore
/// strictly single-owner: one workspace per call stack, never shared across
/// threads (runtime::WorkspacePool hands each engine worker an exclusive
/// lease). Buffer contents carry no information between sessions; only
/// capacity is retained, so a warmed workspace makes the steady-state batch
/// path allocation-free while results stay bit-identical to a fresh one —
/// and to the context-free path, which simply builds a call-local workspace.

namespace hyperear::core {

/// Scratch for one microphone channel of the ASP stage.
struct ChannelWorkspace {
  std::vector<double> filtered;            ///< band-passed recording
  dsp::DetectorWorkspace detector;         ///< matched-filter scratch (incl. FFT)
  std::vector<dsp::Detection> detections;  ///< detector output staging
};

/// Reusable per-worker state for the canonical pipeline entry points
/// (`core::try_localize`, `core::preprocess_audio`). Default-constructed it
/// owns nothing; the first session grows every buffer to the session's
/// working-set size and subsequent sessions of similar length allocate
/// nothing. Non-copyable, which rules out accidental by-value sharing.
class SessionWorkspace {
 public:
  static constexpr std::size_t kChannels = 2;

  SessionWorkspace() = default;
  SessionWorkspace(const SessionWorkspace&) = delete;
  SessionWorkspace& operator=(const SessionWorkspace&) = delete;

  [[nodiscard]] ChannelWorkspace& channel(std::size_t index) {
    HE_EXPECTS(index < kChannels);
    return channels_[index];
  }

  /// The SFO line fit's arrival-time and chirp-index series (core/asp.cpp);
  /// cleared by every fit, so only their capacity carries over.
  std::vector<double> sfo_times;
  std::vector<double> sfo_index;

 private:
  std::array<ChannelWorkspace, kChannels> channels_;
};

}  // namespace hyperear::core
