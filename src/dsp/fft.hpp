// Discrete Fourier transforms.
//
// `fft`/`ifft` accept any length: power-of-two inputs use an iterative
// radix-2 Cooley-Tukey transform, everything else falls back to Bluestein's
// chirp-z algorithm (needed because the DW1000 CIR is 1016 taps long).
//
// Transforms execute against an `FftPlan`: precomputed bit-reversal tables,
// per-stage twiddle factors, and (for Bluestein lengths) the chirp and its
// kernel spectra. Plans are memoised per thread via `plan_for`, so repeated
// transforms of the hot lengths (1024/8192/16384 in the detection pipeline)
// never recompute trigonometry or reallocate workspace. Plans are not
// thread-safe: a plan must stay on the thread that built it, which the
// thread-local cache guarantees.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/types.hpp"

namespace uwb::dsp {

/// True if n is a power of two (n >= 1).
bool is_pow2(std::size_t n);

/// Smallest power of two >= n (n >= 1).
std::size_t next_pow2(std::size_t n);

/// Precomputed transform state for one length.
///
/// Power-of-two lengths hold a bit-reversal permutation plus contiguous
/// per-stage twiddle tables; other lengths hold the Bluestein chirp, the
/// forward/inverse kernel spectra, a nested plan for the padded
/// power-of-two convolution length, and a reusable scratch buffer.
class FftPlan {
 public:
  explicit FftPlan(std::size_t n);

  std::size_t size() const { return n_; }
  bool radix2() const { return pow2_; }

  /// In-place unscaled DFT of x[0..size()); requires radix2(). `inverse`
  /// selects the conjugate transform (no 1/N factor).
  void transform_pow2(Complex* x, bool inverse) const;

  /// Out-of-place unscaled DFT of any length: y[0..size()) = DFT(x).
  /// x and y may alias only for radix2() plans.
  void transform(const Complex* x, Complex* y, bool inverse) const;

  /// Final-stage twiddle table of a radix2() plan: e^{-2*pi*i*j/size()} for
  /// j < size()/2. Used to fuse zero-padded doubling transforms (a signal
  /// of length size()/2 padded to size(): even output bins are the
  /// half-length DFT, odd bins the half-length DFT of the input modulated
  /// by this table).
  const Complex* twiddle_half() const;

 private:
  template <bool Inverse>
  void run_pow2(Complex* x) const;
  template <bool Inverse>
  void run_bluestein(const Complex* x, Complex* y) const;

  std::size_t n_ = 0;
  bool pow2_ = false;
  // Radix-2 state: bit-reversal permutation and per-stage forward twiddles
  // (stage with butterfly span `len` starts at offset len/2 - 1; n-1 total).
  std::vector<std::uint32_t> rev_;
  CVec tw_;
  // Bluestein state: chirp w[k] = e^{+i*pi*k^2/n}, kernel spectra for both
  // directions at the padded length m_, nested pow-2 plan, and scratch.
  std::size_t m_ = 0;
  CVec chirp_;
  CVec kernel_fwd_;
  CVec kernel_inv_;
  std::unique_ptr<FftPlan> sub_;
  mutable CVec scratch_;
};

/// The calling thread's cached plan for length n (built on first use; the
/// reference stays valid for the thread's lifetime). Hits and misses count
/// into the calling thread's obs shard as `cache_fft_plan_hits`/
/// `cache_fft_plan_misses` (live in every build flavour).
const FftPlan& plan_for(std::size_t n);

/// Drop the calling thread's cached plans (tests / memory pressure).
void clear_fft_plan_cache();

/// Reusable per-thread scratch buffer for transform intermediates. The
/// returned buffer has size n and undefined contents; it is clobbered by
/// the next dsp call that requests the same slot, so finish with it before
/// calling back into routines that may share the slot (slots 0-1 are used
/// by upsample_fft, slots 2-3 by MatchedFilter).
CVec& fft_scratch(int slot, std::size_t n);

/// Forward DFT of arbitrary length. Returns X[k] = sum_n x[n] e^{-2pi i kn/N}.
CVec fft(const CVec& x);

/// Inverse DFT of arbitrary length (includes the 1/N factor).
CVec ifft(const CVec& x);

/// In-place radix-2 FFT; `x.size()` must be a power of two.
/// `inverse` selects the conjugate transform (without the 1/N factor).
void fft_pow2_inplace(CVec& x, bool inverse);

}  // namespace uwb::dsp
