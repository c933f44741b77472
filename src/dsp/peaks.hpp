// Peak search and noise-floor estimation on CIR-like signals.
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.hpp"

namespace uwb::dsp {

/// A detected local maximum.
struct Peak {
  std::size_t index = 0;
  double magnitude = 0.0;
};

/// Index of the sample with the largest magnitude.
std::size_t argmax_abs(const CVec& x);

/// The first maximum of |y|^2 within one fixed block of a signal.
struct BlockMax {
  double norm = -1.0;
  std::size_t index = 0;
};

/// Samples per block of update_block_maxima (the last block of a signal
/// may be shorter).
inline constexpr std::size_t kMaxBlock = 256;

/// Recompute `blocks[b]` for every kMaxBlock-sample block b of `y` that
/// overlaps [lo, hi); `blocks` must hold ceil(y.size() / kMaxBlock)
/// entries. Lets a caller that changes `y` only inside a window keep its
/// per-block maxima current at the cost of that window.
void update_block_maxima(const CVec& y, std::size_t lo, std::size_t hi,
                         std::vector<BlockMax>& blocks);

/// The first of the largest block maxima (strict > scan): with every block
/// current, the first maximum of |y|^2 over the whole signal, the sample
/// simd::argmax_norm picks. `blocks` must not be empty.
BlockMax peak_of_block_maxima(const std::vector<BlockMax>& blocks);

/// All local maxima of |x| with magnitude >= threshold, at least
/// `min_distance` samples apart (greedy, strongest first).
std::vector<Peak> local_maxima(const CVec& x, double threshold,
                               std::size_t min_distance);

/// Estimate the per-component noise sigma of a complex signal whose samples
/// are mostly circular Gaussian noise, via the median of the Rayleigh
/// magnitudes (robust against a few strong signal taps).
double noise_sigma_estimate(const CVec& x);

/// Exactly `mag < factor * noise_sigma_estimate(x)` (factor > 0), decided
/// by counting instead of selecting the median: the threshold is monotone
/// in the median |x|^2 under IEEE rounding, so the test holds iff at least
/// n - n/2 samples have |x|^2 >= v*, the least double whose threshold
/// exceeds `mag`. One bisection over double bit patterns finds v*, then
/// one branch-free pass counts; no sqrt per sample, no selection.
bool below_noise_floor(const CVec& x, double mag, double factor);

}  // namespace uwb::dsp
