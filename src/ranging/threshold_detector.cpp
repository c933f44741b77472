#include "ranging/threshold_detector.hpp"

#include <algorithm>
#include <cmath>

#include "common/expects.hpp"
#include "dsp/peaks.hpp"
#include "dsp/resample.hpp"
#include "dsp/signal.hpp"
#include "dw1000/pulse.hpp"

namespace uwb::ranging {

namespace {
// The scan threshold as a fraction of the strongest CIR tap (combined with
// the noise floor). This is precisely the amplitude dependence that makes
// the baseline fragile (challenge IV); search-and-subtract has no such
// threshold.
constexpr double kBaselineRelativeThreshold = 0.3;
}  // namespace

ThresholdDetector::ThresholdDetector(DetectorConfig config)
    : config_(std::move(config)) {
  detail::validate_detector_config(config_);
}

std::vector<DetectedResponse> ThresholdDetector::detect(const CVec& cir_taps,
                                                        double ts_s,
                                                        int max_responses) const {
  UWB_EXPECTS(!cir_taps.empty());
  UWB_EXPECTS(max_responses >= 1);
  const double ts_up = ts_s / config_.upsample_factor;
  const CVec up = dsp::upsample_fft(cir_taps, config_.upsample_factor);
  const RVec mag = dsp::magnitude(up);
  const double noise = dsp::noise_sigma_estimate(up);
  const double peak = *std::max_element(mag.begin(), mag.end());
  const double threshold =
      std::max(kNoiseThresholdFactor * noise,
               kBaselineRelativeThreshold * peak);

  // Np: the visible pulse duration in upsampled samples. Falsi et al. scan
  // the max over one pulse duration after a crossing; using the main lobe
  // (as the paper's Fig. 5 "pulse") rather than the full ring-out support,
  // which would swallow clearly separated neighbouring responses.
  const auto np = static_cast<std::size_t>(std::ceil(
      2.0 * dw::pulse_main_lobe_s(config_.shape_registers.front()) / ts_up));

  std::vector<DetectedResponse> found;
  std::size_t n = 0;
  while (n < mag.size() && static_cast<int>(found.size()) < max_responses) {
    if (mag[n] < threshold) {
      ++n;
      continue;
    }
    // Crossing: the maximum of the next Np samples is the response.
    const std::size_t end = std::min(mag.size(), n + np);
    std::size_t peak = n;
    for (std::size_t i = n + 1; i < end; ++i)
      if (mag[i] > mag[peak]) peak = i;
    DetectedResponse resp;
    resp.index_upsampled = static_cast<double>(peak);
    resp.tau_s = static_cast<double>(peak) * ts_up;
    resp.amplitude = up[peak];
    found.push_back(resp);
    // Re-arm only once the signal has dropped below the threshold again, so
    // the trailing ring of the detected pulse does not re-trigger.
    n = end;
    while (n < mag.size() && mag[n] >= threshold) ++n;
  }
  return found;  // already in ascending tau order by construction
}

}  // namespace uwb::ranging
