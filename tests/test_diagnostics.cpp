// Unit tests: RX diagnostics (first-path power, SNR, first-path-to-total ratio).
#include <gtest/gtest.h>

#include <cmath>

#include "common/constants.hpp"
#include "common/expects.hpp"
#include "dw1000/cir.hpp"
#include "dw1000/diagnostics.hpp"

namespace uwb::dw {
namespace {

CirEstimate make_cir(const std::vector<CirArrival>& arrivals,
                     double noise_sigma, std::uint64_t seed) {
  CirParams params;
  params.noise_sigma = noise_sigma;
  Rng rng(seed);
  return synthesize_cir(arrivals, params, rng);
}

CirArrival at(double tap, double amp) {
  CirArrival a;
  a.time_into_window_s = tap * k::cir_ts_s;
  a.amplitude = {amp, 0.0};
  return a;
}

TEST(DiagnosticsTest, CleanLosLink) {
  const auto cir = make_cir({at(64.0, 0.5)}, 0.004, 1);
  const RxDiagnostics diag = analyze_cir(cir.taps);
  EXPECT_NEAR(diag.first_path_amplitude, 0.5, 0.05);
  EXPECT_NEAR(diag.first_path_index, 62.0, 3.0);
  EXPECT_NEAR(diag.noise_sigma, 0.004, 0.001);
  EXPECT_GT(diag.peak_snr_db, 30.0);
  // Nearly all energy in the direct pulse: FP/total close to the pulse's
  // peak-to-energy ratio, far above the NLOS threshold.
  EXPECT_GT(diag.fp_to_total_db, -10.0);
}

TEST(DiagnosticsTest, NlosSignature) {
  // Weak direct path followed by strong reflections + a long tail.
  std::vector<CirArrival> arrivals{at(64.0, 0.05)};
  for (int i = 0; i < 30; ++i)
    arrivals.push_back(at(68.0 + 2.0 * i, 0.12 * std::exp(-i / 15.0)));
  const auto cir = make_cir(arrivals, 0.004, 2);
  const RxDiagnostics diag = analyze_cir(cir.taps);
  EXPECT_LT(diag.fp_to_total_db, -12.0);
}

TEST(DiagnosticsTest, SnrTracksAmplitude) {
  const auto strong = analyze_cir(make_cir({at(64.0, 0.8)}, 0.004, 3).taps);
  const auto weak = analyze_cir(make_cir({at(64.0, 0.08)}, 0.004, 4).taps);
  EXPECT_GT(strong.peak_snr_db, weak.peak_snr_db + 15.0);
}

TEST(DiagnosticsTest, NoiseOnlyCirHasLowSnr) {
  const auto cir = make_cir({}, 0.01, 5);
  const RxDiagnostics diag = analyze_cir(cir.taps);
  EXPECT_LT(diag.peak_snr_db, 18.0);  // max of Rayleigh noise over 1016 taps
}

TEST(DiagnosticsTest, EmptyCirThrows) {
  EXPECT_THROW(analyze_cir(CVec{}), PreconditionError);
}

}  // namespace
}  // namespace uwb::dw
