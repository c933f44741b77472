// Channel impulse response estimation (accumulator model).
//
// The DW1000 estimates the CIR from the preamble: 1016 complex taps at
// T_s = 1.0016 ns for PRF 64 MHz. In a concurrent-ranging round every
// arriving preamble (each responder's every propagation path) adds its pulse
// shape into the same accumulator; this module performs that superposition
// plus the accumulator noise.
#pragma once

#include <cstdint>
#include <vector>

#include "common/constants.hpp"
#include "common/random.hpp"
#include "common/types.hpp"

namespace uwb::dw {

/// One pulse arriving at the receiver during CIR accumulation.
struct CirArrival {
  /// Pulse peak time relative to the start of the CIR window [s].
  double time_into_window_s = 0.0;
  /// Complex amplitude at the receiver.
  Complex amplitude;
  /// Pulse shape used by the transmitter (TC_PGDELAY).
  std::uint8_t tc_pgdelay = k::tc_pgdelay_default;
};

/// Accumulator configuration.
struct CirParams {
  int length = k::cir_len_prf64;
  double ts_s = k::cir_ts_s;
  /// Accumulator noise per complex component (relative to the unit-amplitude
  /// scale of CirArrival::amplitude).
  double noise_sigma = 0.004;
};

/// An estimated CIR as read back from the accumulator.
struct CirEstimate {
  CVec taps;
  double ts_s = k::cir_ts_s;
  /// Index the receiver reports as the first path of the frame it
  /// synchronised on (tap-space, fractional).
  double first_path_index = 0.0;
};

/// Accumulator noise for one CIR: params.length complex normals of sigma
/// params.noise_sigma, or none when the sigma is 0. The only random part of
/// a CIR estimate.
CVec draw_cir_noise(const CirParams& params, Rng& rng);

/// Superpose all arrivals (evaluating each pulse shape at fractional delays)
/// and add `noise` (from draw_cir_noise with the same params) tap by tap.
/// Draws nothing, so a receiver can draw its noise on reception and render
/// only when the CIR is read.
CirEstimate render_cir(const std::vector<CirArrival>& arrivals,
                       const CirParams& params, const CVec& noise);

/// render_cir(arrivals, params, draw_cir_noise(params, rng)).
CirEstimate synthesize_cir(const std::vector<CirArrival>& arrivals,
                           const CirParams& params, Rng& rng);

}  // namespace uwb::dw
