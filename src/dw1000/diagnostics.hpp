// Receive-quality diagnostics derived from the CIR — the software
// equivalent of the DW1000's RX_FQUAL/RX_TIME register fields.
//
// Real deployments use these figures to adapt PHY settings (the paper's
// ref. [7]) and to flag NLOS links: an attenuated direct path shows up as a
// low first-path-to-total-power ratio long before ranging breaks down.
#pragma once

#include "common/types.hpp"

namespace uwb::dw {

struct RxDiagnostics {
  /// Magnitude of the first-path tap (interpolated at the detected index).
  double first_path_amplitude = 0.0;
  /// First-path power relative to unit amplitude [dB].
  double first_path_power_db = 0.0;
  /// Total received power over the whole accumulator [dB].
  double total_power_db = 0.0;
  /// Estimated per-component noise sigma of the accumulator.
  double noise_sigma = 0.0;
  /// Peak signal-to-noise ratio [dB].
  double peak_snr_db = 0.0;
  /// First-path-to-total-power ratio [dB]; strongly negative values are the
  /// classic NLOS signature (energy arrives via reflections).
  double fp_to_total_db = 0.0;
  /// Fractional tap index of the detected first path.
  double first_path_index = 0.0;
};

/// Compute diagnostics from an estimated CIR.
RxDiagnostics analyze_cir(const CVec& cir_taps);

}  // namespace uwb::dw
