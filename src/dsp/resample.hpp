// Band-limited resampling.
//
// Sect. IV step 1 of the paper upsamples the CIR "using fast Fourier
// transform in order to obtain a smoother signal"; `upsample_fft` is that
// operation: zero-padding in the frequency domain, which interpolates the
// band-limited signal exactly.
#pragma once

#include <cstddef>

#include "common/types.hpp"

namespace uwb::dsp {

/// Length an n-sample input is zero-padded to before FFT interpolation:
/// next_pow2(n), and at least 2, so the spectrum has a Nyquist bin.
std::size_t upsample_input_length(std::size_t n);

/// FFT interpolation by a power-of-two factor of `x` zero-padded to
/// upsample_input_length(x.size()) samples, which is also the output
/// length over `factor`. Sample i of the output corresponds to time
/// i * (Ts / factor), so the first x.size() * factor samples cover the
/// input window. A 1-sample input {v} is interpolated as {v, 0}.
CVec upsample_fft(const CVec& x, int factor);

/// Frequency-domain zero-stuffing: scatter the length-n spectrum `spec`
/// (n even, as upsample_input_length gives) into the length n*factor
/// buffer `padded`, splitting the Nyquist bin between the two halves so a
/// real input stays real. Building block of upsample_fft, exposed so the
/// detector can reuse the stuffed spectrum it already has instead of
/// re-transforming the upsampled signal.
void upsample_spectrum(const Complex* spec, std::size_t n, int factor,
                       Complex* padded);

}  // namespace uwb::dsp
