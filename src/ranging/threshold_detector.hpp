// Threshold-based response detection — the baseline of paper Sect. VI
// (after Falsi et al.): scan the CIR against a threshold; on each crossing
// take the maximum of the following pulse-duration window as a response,
// then continue scanning after the window.
//
// Works when responses are well separated; with overlapping responses the
// crossing window swallows both pulses, which is exactly the failure mode
// the paper quantifies (48% vs 92.6% success).
#pragma once

#include "ranging/detector.hpp"

namespace uwb::ranging {

class ThresholdDetector {
 public:
  /// Uses upsample_factor and the *first* shape register (for the window
  /// length) of the config; the threshold is kNoiseThresholdFactor noise
  /// sigmas (or a fraction of the peak).
  explicit ThresholdDetector(DetectorConfig config);

  std::vector<DetectedResponse> detect(const CVec& cir_taps, double ts_s,
                                       int max_responses) const;

  const DetectorConfig& config() const { return config_; }

 private:
  DetectorConfig config_;
};

}  // namespace uwb::ranging
