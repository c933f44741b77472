#include "dsp/peaks.hpp"

#include <algorithm>
#include <cmath>

#include "common/expects.hpp"
#include "dsp/signal.hpp"

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

double noise_sigma_estimate(const CVec& x) {
  UWB_EXPECTS(!x.empty());
  // Select the median of |x|^2 (same element as the median of |x|, one
  // sqrt instead of a hypot per sample) in a reused per-thread buffer:
  // the detector calls this once per search-and-subtract iteration.
  thread_local RVec sq;
  sq.resize(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) sq[i] = std::norm(x[i]);
  const std::size_t mid = sq.size() / 2;
  std::nth_element(sq.begin(), sq.begin() + static_cast<std::ptrdiff_t>(mid),
                   sq.end());
  // Rayleigh median = sigma * sqrt(2 ln 2).
  return std::sqrt(sq[mid]) / std::sqrt(2.0 * std::log(2.0));
}

}  // namespace uwb::dsp
