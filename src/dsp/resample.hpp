// Band-limited resampling.
//
// Sect. IV step 1 of the paper upsamples the CIR "using fast Fourier
// transform in order to obtain a smoother signal"; `upsample_fft` is that
// operation: zero-padding in the frequency domain, which interpolates the
// band-limited signal exactly.
#pragma once

#include "common/types.hpp"

namespace uwb::dsp {

/// FFT interpolation by a power-of-two factor of `x` zero-padded to
/// next_pow2(x.size()) samples. Returns next_pow2(x.size()) * factor
/// samples; sample i of the output corresponds to time i * (Ts / factor),
/// so the first x.size() * factor samples cover the input window.
CVec upsample_fft(const CVec& x, int factor);

/// Frequency-domain zero-stuffing: scatter the length-n spectrum `spec`
/// into the length n*factor buffer `padded` (Nyquist bin split for even n,
/// keeping real inputs real). Building block of upsample_fft, exposed so
/// the detector can reuse the stuffed spectrum it already has instead of
/// re-transforming the upsampled signal.
void upsample_spectrum(const Complex* spec, std::size_t n, int factor,
                       Complex* padded);

}  // namespace uwb::dsp
