#include "dsp/resample.hpp"

#include <algorithm>

#include "common/expects.hpp"
#include "dsp/fft.hpp"
#include "simd/simd.hpp"

namespace uwb::dsp {

std::size_t upsample_input_length(std::size_t n) {
  return std::max<std::size_t>(2, next_pow2(n));
}

void upsample_spectrum(const Complex* spec, std::size_t n, int factor,
                       Complex* padded) {
  UWB_EXPECTS(n >= 2 && n % 2 == 0);
  const std::size_t m = n * static_cast<std::size_t>(factor);
  std::fill(padded, padded + m, Complex{});
  // Copy positive frequencies [0, n/2) and negative frequencies (n/2, n).
  const std::size_t half = n / 2;
  for (std::size_t k = 0; k < half; ++k) padded[k] = spec[k];
  for (std::size_t k = half + 1; k < n; ++k) padded[m - n + k] = spec[k];
  // Split the Nyquist bin between the two halves to keep a real input real.
  padded[half] = spec[half] * 0.5;
  padded[m - half] = spec[half] * 0.5;
}

CVec upsample_fft(const CVec& x, int factor) {
  UWB_EXPECTS(!x.empty());
  UWB_EXPECTS(factor >= 1 && is_pow2(static_cast<std::size_t>(factor)));
  // Zero-pad to a power of two before FFT interpolation, because the
  // radix-2 transform takes no other length (the 1016-tap CIR becomes 1024
  // taps). The padding splices zeros at the window end only, leaving
  // interior peaks untouched.
  const std::size_t n = upsample_input_length(x.size());
  if (factor == 1) {
    CVec y(n, Complex{});
    std::copy(x.begin(), x.end(), y.begin());
    return y;
  }
  const std::size_t m = n * static_cast<std::size_t>(factor);
  CVec& spec = fft_scratch(0, n);
  std::fill(std::copy(x.begin(), x.end(), spec.begin()), spec.end(),
            Complex{});
  plan_for(n).transform_pow2(spec.data(), false);
  CVec y(m);
  upsample_spectrum(spec.data(), n, factor, y.data());
  plan_for(m).transform_pow2(y.data(), true);
  const double scale =
      static_cast<double>(factor) / static_cast<double>(m);
  simd::scale(reinterpret_cast<double*>(y.data()), scale, m);
  return y;
}

}  // namespace uwb::dsp
