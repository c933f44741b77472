// Discrete Fourier transforms.
//
// One algorithm: an iterative radix-2 Cooley-Tukey transform, so every
// length is a power of two. The detector zero-pads the 1016-tap DW1000 CIR
// to 1024 taps before anything is transformed (`upsample_fft`), so no
// round needs another length.
//
// Transforms execute against an `FftPlan`: a precomputed bit-reversal
// table and per-stage twiddle factors. Plans are memoised per thread via
// `plan_for`, so repeated transforms of the hot lengths (1024/8192/16384 in
// the detection pipeline) never recompute trigonometry. Plans are not
// thread-safe: a plan must stay on the thread that built it, which the
// thread-local cache guarantees.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace uwb::dsp {

/// True if n is a power of two (n >= 1).
bool is_pow2(std::size_t n);

/// Smallest power of two >= n (n >= 1).
std::size_t next_pow2(std::size_t n);

/// Precomputed radix-2 transform state for one power-of-two length: a
/// bit-reversal permutation plus contiguous per-stage twiddle tables.
class FftPlan {
 public:
  /// n must be a power of two.
  explicit FftPlan(std::size_t n);

  /// In-place unscaled DFT of x[0..n). `inverse` selects the conjugate
  /// transform (no 1/N factor).
  void transform_pow2(Complex* x, bool inverse) const;

  /// Final-stage twiddle table: e^{-2*pi*i*j/n} for j < n/2 (n >= 2).
  /// Used to fuse zero-padded doubling transforms (a signal of length n/2
  /// padded to n: even output bins are the half-length DFT, odd bins the
  /// half-length DFT of the input modulated by this table).
  const Complex* twiddle_half() const;

 private:
  template <bool Inverse>
  void run_pow2(Complex* x) const;

  std::size_t n_ = 0;
  // Bit-reversal permutation and per-stage forward twiddles (stage with
  // butterfly span `len` starts at offset len/2 - 1; n-1 total).
  std::vector<std::uint32_t> rev_;
  CVec tw_;
};

/// The calling thread's cached plan for the power-of-two length n (built
/// on first use; the reference stays valid for the thread's lifetime).
/// Hits and misses count into the calling thread's obs shard as
/// `cache_fft_plan_hits`/`cache_fft_plan_misses` (live in every build
/// flavour).
const FftPlan& plan_for(std::size_t n);

/// Drop the calling thread's cached plans (tests / memory pressure).
void clear_fft_plan_cache();

/// Reusable per-thread scratch buffer for transform intermediates. The
/// returned buffer has size n and undefined contents; it is clobbered by
/// the next dsp call that requests the same slot, so finish with it before
/// calling back into routines that may share the slot (slot 0 is used by
/// upsample_fft, slots 1-2 by MatchedFilter).
CVec& fft_scratch(int slot, std::size_t n);

/// In-place radix-2 FFT; `x.size()` must be a power of two.
/// `inverse` selects the conjugate transform (without the 1/N factor).
void fft_pow2_inplace(CVec& x, bool inverse);

}  // namespace uwb::dsp
