#include "dsp/fft.hpp"

#include <cmath>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/math_util.hpp"
#include "common/units.hpp"

namespace hyperear::dsp {

namespace {

void fft_core(std::vector<Complex>& x, bool inverse) {
  const std::size_t n = x.size();
  require(is_pow2(n), "fft: size must be a power of two");
  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(x[i], x[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = (inverse ? 2.0 : -2.0) * kPi / static_cast<double>(len);
    const Complex wlen(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      Complex w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const Complex u = x[i + k];
        const Complex v = x[i + k + len / 2] * w;
        x[i + k] = u + v;
        x[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (auto& v : x) v *= inv_n;
  }
}

// Per-stage twiddle tables built with the same `w *= wlen` recurrence
// fft_core evaluates inline, so planned and planless transforms agree to
// the last bit.
std::vector<Complex> make_twiddles(std::size_t n, bool inverse) {
  std::vector<Complex> table;
  if (n >= 2) table.reserve(n - 1);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = (inverse ? 2.0 : -2.0) * kPi / static_cast<double>(len);
    const Complex wlen(std::cos(angle), std::sin(angle));
    Complex w(1.0, 0.0);
    for (std::size_t k = 0; k < len / 2; ++k) {
      table.push_back(w);
      w *= wlen;
    }
  }
  return table;
}

}  // namespace

FftPlan::FftPlan(std::size_t n) : n_(n) {
  HE_EXPECTS(n >= 1 && is_pow2(n));
  require(is_pow2(n), "FftPlan: size must be a power of two");
  bitrev_.resize(n);
  for (std::size_t i = 0; i < n; ++i) bitrev_[i] = i;
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    bitrev_[i] = j;
  }
  forward_twiddles_ = make_twiddles(n, false);
  inverse_twiddles_ = make_twiddles(n, true);
  // n-1 twiddles per direction (sum of len/2 over stages); a size mismatch
  // here means the stage indexing in run() would read out of bounds.
  HE_ENSURES(n < 2 || forward_twiddles_.size() == n - 1);
  HE_ENSURES(n < 2 || inverse_twiddles_.size() == n - 1);
}

void FftPlan::run(std::vector<Complex>& x, bool inverse) const {
  require(x.size() == n_, "FftPlan: input size does not match the plan");
  const std::size_t n = n_;
  for (std::size_t i = 1; i < n; ++i) {
    if (i < bitrev_[i]) std::swap(x[i], x[bitrev_[i]]);
  }
  const std::vector<Complex>& tw = inverse ? inverse_twiddles_ : forward_twiddles_;
  std::size_t stage = 0;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t k = 0; k < half; ++k) {
        const Complex u = x[i + k];
        const Complex v = x[i + k + half] * tw[stage + k];
        x[i + k] = u + v;
        x[i + k + half] = u - v;
      }
    }
    stage += half;
  }
  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (auto& v : x) v *= inv_n;
  }
}

void fft_inplace(std::vector<Complex>& x) { fft_core(x, false); }

void ifft_inplace(std::vector<Complex>& x) { fft_core(x, true); }

std::vector<Complex>& Workspace::complex_scratch(std::size_t slot, std::size_t size) {
  require(slot < kSlots, "Workspace: complex slot out of range");
  complex_[slot].resize(size);
  return complex_[slot];
}

std::vector<double>& Workspace::real_scratch(std::size_t slot, std::size_t size) {
  require(slot < kSlots, "Workspace: real slot out of range");
  real_[slot].resize(size);
  return real_[slot];
}

void fft_real_into(std::span<const double> x, std::size_t min_size,
                   std::vector<Complex>& out, const FftPlan* plan) {
  require(!x.empty(), "fft_real: empty input");
  const std::size_t target = next_pow2(std::max(x.size(), min_size));
  out.resize(target);
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = Complex(x[i], 0.0);
  for (std::size_t i = x.size(); i < target; ++i) out[i] = Complex(0.0, 0.0);
  if (plan != nullptr && plan->size() == target) {
    plan->forward(out);
  } else {
    fft_inplace(out);
  }
}

std::vector<Complex> fft_real(std::span<const double> x, std::size_t min_size) {
  std::vector<Complex> buf;
  fft_real_into(x, min_size, buf);
  return buf;
}

void ifft_to_real_into(std::vector<Complex>& spectrum, std::vector<double>& out,
                       const FftPlan* plan) {
  if (plan != nullptr && plan->size() == spectrum.size()) {
    plan->inverse(spectrum);
  } else {
    ifft_inplace(spectrum);
  }
  out.resize(spectrum.size());
  for (std::size_t i = 0; i < spectrum.size(); ++i) out[i] = spectrum[i].real();
}

std::vector<double> ifft_to_real(std::vector<Complex> spectrum) {
  std::vector<double> out;
  ifft_to_real_into(spectrum, out);
  return out;
}

std::vector<double> fft_convolve(std::span<const double> a, std::span<const double> b) {
  require(!a.empty() && !b.empty(), "fft_convolve: empty input");
  const std::size_t out_len = a.size() + b.size() - 1;
  const std::size_t n = next_pow2(out_len);
  std::vector<Complex> fa, fb;
  fft_real_into(a, n, fa);
  fft_real_into(b, n, fb);
  for (std::size_t i = 0; i < n; ++i) fa[i] *= fb[i];
  std::vector<double> full;
  ifft_to_real_into(fa, full);
  full.resize(out_len);
  return full;
}

}  // namespace hyperear::dsp
