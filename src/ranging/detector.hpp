// Response detection types shared by the detectors (paper Sect. IV / VI).
//
// A detector takes the superposed CIR of a concurrent-ranging round and
// extracts the responses of the individual responders: their path delays,
// amplitudes, and — when a pulse-shape bank is configured (Sect. V) — the
// index of the pulse shape each responder transmitted with.
#pragma once

#include <cstdint>
#include <vector>

#include "common/constants.hpp"
#include "common/types.hpp"

namespace uwb::ranging {

/// One extracted responder response.
struct DetectedResponse {
  /// Peak time relative to the start of the CIR window [s].
  double tau_s = 0.0;
  /// Peak position on the upsampled grid (tau_s / (Ts / upsample_factor)).
  double index_upsampled = 0.0;
  /// Complex amplitude estimate in CIR units.
  Complex amplitude;
  /// Index into DetectorConfig::shape_registers of the best-matching pulse
  /// template; -1 when the detector does not classify shapes.
  int shape_index = -1;
};

/// Detection stops when the next peak falls below this multiple of the
/// noise sigma ...
inline constexpr double kNoiseThresholdFactor = 5.0;
/// ... or, in search-and-subtract, below this fraction of the strongest
/// detected peak. The amplitude-independence requirement (open challenge
/// IV) means this must stay small; it only rejects pure noise, never weak
/// responders.
inline constexpr double kRelativeStopFraction = 0.02;

struct DetectorConfig {
  /// FFT upsampling factor applied to the CIR (Sect. IV step 1): a power
  /// of two in [1, 64], since the radix-2 FFT is the only transform.
  int upsample_factor = 8;
  /// Pulse template bank: TC_PGDELAY values (Sect. V). One entry = plain
  /// detection; multiple entries = joint detection + shape classification.
  std::vector<std::uint8_t> shape_registers{k::tc_pgdelay_default};
};

namespace detail {
/// Precondition check shared by the detectors' constructors and the
/// sessions' validate_config (throws PreconditionError).
void validate_detector_config(const DetectorConfig& cfg);
}  // namespace detail

}  // namespace uwb::ranging
