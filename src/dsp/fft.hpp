#pragma once

#include <array>
#include <complex>
#include <span>
#include <vector>

/// @file fft.hpp
/// Iterative radix-2 FFT, implemented from scratch (no external DSP
/// dependency). Used by cross-correlation, matched filtering, FIR design
/// verification and spectral analysis.
///
/// Hot paths that transform many buffers of one fixed size (the matched
/// filter's chunked correlation, via core::PipelineContext) should build an
/// `FftPlan` once and reuse it: the plan precomputes the bit-reversal
/// permutation and per-stage twiddle tables, and its transforms are
/// bit-identical to the planless `fft_inplace`/`ifft_inplace`.
///
/// Loops that transform many buffers should also own a `Workspace` and call
/// the `_into` variants, which reuse the caller's buffers instead of
/// allocating fresh ones per transform (DESIGN.md Section 9).

namespace hyperear::dsp {

using Complex = std::complex<double>;

/// In-place forward FFT. Requires x.size() to be a power of two (>= 1).
void fft_inplace(std::vector<Complex>& x);

/// In-place inverse FFT (includes the 1/N normalization). Requires a
/// power-of-two size.
void ifft_inplace(std::vector<Complex>& x);

/// Precomputed radix-2 plan for one transform size: the bit-reversal
/// permutation plus forward/inverse twiddle tables. Immutable after
/// construction, so one plan can be shared read-only across threads.
/// The twiddles are generated with the same recurrence the planless FFT
/// evaluates on the fly, so planned transforms are bit-identical to
/// `fft_inplace`/`ifft_inplace` — results do not depend on whether a
/// caller went through a plan.
class FftPlan {
 public:
  /// `n` must be a power of two (>= 1).
  explicit FftPlan(std::size_t n);

  [[nodiscard]] std::size_t size() const { return n_; }

  /// In-place transforms; require x.size() == size().
  void forward(std::vector<Complex>& x) const { run(x, false); }
  void inverse(std::vector<Complex>& x) const { run(x, true); }

 private:
  void run(std::vector<Complex>& x, bool inverse) const;

  std::size_t n_ = 1;
  std::vector<std::size_t> bitrev_;  ///< swap partner of each index
  std::vector<Complex> forward_twiddles_;  ///< per-stage tables, concatenated
  std::vector<Complex> inverse_twiddles_;
};

/// Reusable scratch buffers for the FFT/convolution hot paths. A Workspace
/// is deliberately dumb: callers ask for a slot resized to the length they
/// need and must overwrite every element they read back. It is NOT
/// thread-safe — own one per call stack (the matched-filter detector builds
/// one per `detect` call, the ASP stage one per mic channel) and never share
/// it across threads. Repeated calls of one loop reuse the same capacity, so
/// the steady state of a block-convolution loop performs zero allocations.
class Workspace {
 public:
  static constexpr std::size_t kSlots = 2;

  /// Complex scratch buffer `slot`, resized to `size`; contents unspecified.
  [[nodiscard]] std::vector<Complex>& complex_scratch(std::size_t slot, std::size_t size);

  /// Real scratch buffer `slot`, resized to `size`; contents unspecified.
  [[nodiscard]] std::vector<double>& real_scratch(std::size_t slot, std::size_t size);

 private:
  std::array<std::vector<Complex>, kSlots> complex_;
  std::array<std::vector<double>, kSlots> real_;
};

/// Forward FFT of a real signal, zero-padded up to the next power of two of
/// `min_size` (or of x.size() when min_size == 0). Returns the full complex
/// spectrum of that padded length.
[[nodiscard]] std::vector<Complex> fft_real(std::span<const double> x, std::size_t min_size = 0);

/// `fft_real` into a caller-owned buffer (typically a Workspace slot): no
/// allocation once `out` has the capacity, and only the zero tail of the
/// padding is cleared (the signal itself is written, not zeroed then
/// copied). When `plan` is non-null and sized to the padded length it is
/// used; the result is bit-identical either way (FftPlan contract).
void fft_real_into(std::span<const double> x, std::size_t min_size,
                   std::vector<Complex>& out, const FftPlan* plan = nullptr);

/// Inverse FFT returning only the real parts (imaginary parts are expected
/// to be numerically negligible for conjugate-symmetric input).
[[nodiscard]] std::vector<double> ifft_to_real(std::vector<Complex> spectrum);

/// `ifft_to_real` transforming `spectrum` in place and extracting the real
/// parts into a caller-owned buffer — the allocation-free spelling for
/// loops. `spectrum` is clobbered.
void ifft_to_real_into(std::vector<Complex>& spectrum, std::vector<double>& out,
                       const FftPlan* plan = nullptr);

/// Linear convolution of two real signals via one monolithic FFT at the
/// next power of two covering the full result. Result length is
/// a.size() + b.size() - 1. Requires non-empty inputs.
///
/// This is the *reference* path: simple, allocation-heavy, and O(N log N)
/// in the padded length of the WHOLE signal. Long-signal/short-kernel
/// convolution (FIR filtering, matched-filter correlation) should go
/// through `OlsConvolver` (dsp/ols.hpp), which streams fixed-size blocks
/// through cached plans instead; `filter_same` and `correlate_valid` do so
/// automatically. bench_micro_dsp records the gap between the two.
[[nodiscard]] std::vector<double> fft_convolve(std::span<const double> a,
                                               std::span<const double> b);

}  // namespace hyperear::dsp
