#include "dsp/peaks.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/expects.hpp"
#include "dsp/signal.hpp"
#include "simd/simd.hpp"

namespace uwb::dsp {

std::size_t argmax_abs(const CVec& x) {
  UWB_EXPECTS(!x.empty());
  // Comparing |x|^2 avoids a hypot per sample; the argmax is the same.
  std::size_t best = 0;
  double best_mag = std::norm(x[0]);
  for (std::size_t i = 1; i < x.size(); ++i) {
    const double m = std::norm(x[i]);
    if (m > best_mag) {
      best_mag = m;
      best = i;
    }
  }
  return best;
}

// uwb-hot-path: the detector refreshes the blocks a subtraction dirtied
// once per template per search-and-subtract iteration.
void update_block_maxima(const CVec& y, std::size_t lo, std::size_t hi,
                         std::vector<BlockMax>& blocks) {
  UWB_EXPECTS(hi <= y.size());
  UWB_EXPECTS(blocks.size() == (y.size() + kMaxBlock - 1) / kMaxBlock);
  if (lo >= hi) return;
  // argmax_norm breaks ties toward the lowest index at every SIMD level and
  // |y|^2 is elementwise bit-identical, so a block's first maximum and its
  // norm are the ones a full-length scan sees.
  const double* yd = reinterpret_cast<const double*>(y.data());
  for (std::size_t b = lo / kMaxBlock; b * kMaxBlock < hi; ++b) {
    const std::size_t start = b * kMaxBlock;
    const std::size_t idx =
        start + simd::argmax_norm(yd + 2 * start,
                                  std::min(kMaxBlock, y.size() - start));
    blocks[b] = {yd[2 * idx] * yd[2 * idx] + yd[2 * idx + 1] * yd[2 * idx + 1],
                 idx};
  }
}

BlockMax peak_of_block_maxima(const std::vector<BlockMax>& blocks) {
  UWB_EXPECTS(!blocks.empty());
  BlockMax best = blocks.front();
  for (const BlockMax& block : blocks)
    if (block.norm > best.norm) best = block;
  return best;
}

std::vector<Peak> local_maxima(const CVec& x, double threshold,
                               std::size_t min_distance) {
  UWB_EXPECTS(!x.empty());
  const RVec mag = magnitude(x);
  std::vector<Peak> candidates;
  for (std::size_t i = 0; i < mag.size(); ++i) {
    const bool left_ok = (i == 0) || mag[i] >= mag[i - 1];
    const bool right_ok = (i + 1 == mag.size()) || mag[i] > mag[i + 1];
    if (left_ok && right_ok && mag[i] >= threshold)
      candidates.push_back({i, mag[i]});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Peak& a, const Peak& b) { return a.magnitude > b.magnitude; });
  std::vector<Peak> accepted;
  for (const Peak& c : candidates) {
    const bool clash = std::any_of(
        accepted.begin(), accepted.end(), [&](const Peak& a) {
          const std::size_t d =
              c.index > a.index ? c.index - a.index : a.index - c.index;
          return d < min_distance;
        });
    if (!clash) accepted.push_back(c);
  }
  std::sort(accepted.begin(), accepted.end(),
            [](const Peak& a, const Peak& b) { return a.index < b.index; });
  return accepted;
}

namespace {

// Sigma from the median |x|^2: Rayleigh median = sigma * sqrt(2 ln 2).
// The one expression both the selecting and the counting test evaluate.
double sigma_from_median_norm(double median_norm) {
  return std::sqrt(median_norm) / std::sqrt(2.0 * std::log(2.0));
}

}  // namespace

double noise_sigma_estimate(const CVec& x) {
  UWB_EXPECTS(!x.empty());
  // Select the median of |x|^2 (same element as the median of |x|, one
  // sqrt instead of a hypot per sample) in a reused per-thread buffer:
  // per-CIR callers (timestamping, threshold detection, the exact detector
  // path) and the recorder's threshold payload call this repeatedly.
  thread_local RVec sq;
  sq.resize(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) sq[i] = std::norm(x[i]);
  const std::size_t mid = sq.size() / 2;
  std::nth_element(sq.begin(), sq.begin() + static_cast<std::ptrdiff_t>(mid),
                   sq.end());
  return sigma_from_median_norm(sq[mid]);
}

// uwb-hot-path: the search-and-subtract noise-floor stop runs once per
// detector iteration over the whole filter output.
bool below_noise_floor(const CVec& x, double mag, double factor) {
  UWB_EXPECTS(!x.empty());
  UWB_EXPECTS(factor > 0.0);
  // T(v) = factor * sigma_from_median_norm(v) is non-decreasing in v
  // (sqrt, division and multiplication by positive constants are
  // correctly rounded, hence monotone), so T(v) > mag exactly for v >= v*.
  // Non-negative doubles order like their bit patterns: bisect the bits of
  // [+0, +inf] for the least v with T(v) > mag (about 63 steps).
  const auto threshold_above = [&](std::uint64_t bits) {
    return factor * sigma_from_median_norm(std::bit_cast<double>(bits)) > mag;
  };
  std::uint64_t lo = 0;
  std::uint64_t hi = std::bit_cast<std::uint64_t>(
      std::numeric_limits<double>::infinity());
  // No threshold exceeds mag (mag is +inf or NaN): mag < T(median) is false.
  if (!threshold_above(hi)) return false;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (threshold_above(mid))
      hi = mid;
    else
      lo = mid + 1;
  }
  const double v_star = std::bit_cast<double>(lo);
  // The sorted |x|^2 at index n/2 (the selected median) is >= v* iff at
  // least n - n/2 samples are.
  std::size_t at_or_above = 0;
  for (std::size_t i = 0; i < x.size(); ++i)
    at_or_above += static_cast<std::size_t>(std::norm(x[i]) >= v_star);
  return at_or_above >= x.size() - x.size() / 2;
}

}  // namespace uwb::dsp
