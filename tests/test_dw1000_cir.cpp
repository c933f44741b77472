// Unit tests: CIR synthesis, RX timestamping model, first-path detection,
// energy accounting, and CIR persistence.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "common/constants.hpp"
#include "common/expects.hpp"
#include "dsp/peaks.hpp"
#include "dsp/signal.hpp"
#include "dw1000/cir.hpp"
#include "dw1000/cir_io.hpp"
#include "dw1000/energy.hpp"
#include "dw1000/pulse.hpp"
#include "dw1000/timestamping.hpp"

namespace uwb::dw {
namespace {

CirParams noiseless() {
  CirParams p;
  p.noise_sigma = 0.0;
  return p;
}

TEST(CirTest, EmptyArrivalsGiveNoise) {
  CirParams params;
  params.noise_sigma = 0.01;
  Rng rng(1);
  const CirEstimate cir = synthesize_cir({}, params, rng);
  ASSERT_EQ(cir.taps.size(), static_cast<std::size_t>(k::cir_len_prf64));
  EXPECT_NEAR(dsp::noise_sigma_estimate(cir.taps), 0.01, 0.003);
}

TEST(CirTest, SinglePulsePeaksAtArrival) {
  Rng rng(2);
  CirArrival a;
  a.time_into_window_s = 100.0 * k::cir_ts_s;
  a.amplitude = {0.7, 0.0};
  const CirEstimate cir = synthesize_cir({a}, noiseless(), rng);
  const std::size_t peak = dsp::argmax_abs(cir.taps);
  EXPECT_EQ(peak, 100u);
  EXPECT_NEAR(std::abs(cir.taps[peak]), 0.7, 0.01);
}

TEST(CirTest, FractionalDelayShiftsEnergyBetweenTaps) {
  Rng rng(3);
  CirArrival a;
  a.amplitude = {1.0, 0.0};
  a.time_into_window_s = 50.0 * k::cir_ts_s;
  const CirEstimate on_grid = synthesize_cir({a}, noiseless(), rng);
  a.time_into_window_s = 50.5 * k::cir_ts_s;
  const CirEstimate off_grid = synthesize_cir({a}, noiseless(), rng);
  // On-grid: tap 50 carries the peak value; off-grid: taps 50 and 51 split.
  EXPECT_GT(std::abs(on_grid.taps[50]), std::abs(off_grid.taps[50]));
  EXPECT_GT(std::abs(off_grid.taps[51]), std::abs(on_grid.taps[51]));
}

TEST(CirTest, SuperpositionIsLinear) {
  Rng rng1(4), rng2(4), rng3(4);
  CirArrival a;
  a.time_into_window_s = 80.0 * k::cir_ts_s;
  a.amplitude = {0.5, 0.1};
  CirArrival b;
  b.time_into_window_s = 300.0 * k::cir_ts_s;
  b.amplitude = {0.0, -0.4};
  const CirEstimate both = synthesize_cir({a, b}, noiseless(), rng1);
  const CirEstimate only_a = synthesize_cir({a}, noiseless(), rng2);
  const CirEstimate only_b = synthesize_cir({b}, noiseless(), rng3);
  for (std::size_t i = 0; i < both.taps.size(); ++i)
    EXPECT_NEAR(std::abs(both.taps[i] - only_a.taps[i] - only_b.taps[i]), 0.0,
                1e-12);
}

TEST(CirTest, ArrivalOutsideWindowIgnored) {
  Rng rng(5);
  CirArrival a;
  a.time_into_window_s = 2000.0 * k::cir_ts_s;  // beyond the 1016-tap window
  a.amplitude = {1.0, 0.0};
  const CirEstimate cir = synthesize_cir({a}, noiseless(), rng);
  EXPECT_LT(dsp::energy(cir.taps), 1e-12);
}

TEST(CirTest, NegativeArrivalPartiallyClipped) {
  Rng rng(6);
  CirArrival a;
  a.time_into_window_s = -0.5 * pulse_duration_s(k::tc_pgdelay_default);
  a.amplitude = {1.0, 0.0};
  const CirEstimate cir = synthesize_cir({a}, noiseless(), rng);
  // Some trailing ring energy may land in the window, but far less than a
  // full pulse.
  EXPECT_LT(dsp::energy(cir.taps), 0.5);
}

TEST(CirTest, WiderPulseSpreadsMoreTaps) {
  Rng rng(7);
  CirArrival narrow;
  narrow.time_into_window_s = 200.0 * k::cir_ts_s;
  narrow.amplitude = {1.0, 0.0};
  narrow.tc_pgdelay = 0x93;
  CirArrival wide = narrow;
  wide.tc_pgdelay = 0xE6;
  const CirEstimate cn = synthesize_cir({narrow}, noiseless(), rng);
  const CirEstimate cw = synthesize_cir({wide}, noiseless(), rng);
  const auto count_significant = [](const CVec& taps) {
    int n = 0;
    for (const auto& v : taps)
      if (std::abs(v) > 0.05) ++n;
    return n;
  };
  EXPECT_GT(count_significant(cw.taps), count_significant(cn.taps));
}

// The synthesis in one pass, each tap's noise drawn in place after the
// pulse sum: the reference the noise-then-render split must reproduce bit
// for bit.
CirEstimate in_place_reference(const std::vector<CirArrival>& arrivals,
                               const CirParams& params, Rng& rng) {
  CirEstimate out;
  out.ts_s = params.ts_s;
  out.taps.assign(static_cast<std::size_t>(params.length), Complex{});
  for (const CirArrival& a : arrivals) {
    for (int n = 0; n < params.length; ++n) {
      const double t = n * params.ts_s - a.time_into_window_s;
      if (std::abs(t) > pulse_duration_s(a.tc_pgdelay) / 2.0 + params.ts_s)
        continue;
      out.taps[static_cast<std::size_t>(n)] +=
          a.amplitude * pulse_value(a.tc_pgdelay, t);
    }
  }
  if (params.noise_sigma > 0.0)
    for (auto& tap : out.taps) tap += rng.complex_normal(params.noise_sigma);
  return out;
}

TEST(CirTest, NoiseThenRenderEqualsInPlaceSynthesis) {
  Rng arrivals_rng(21);
  std::vector<CirArrival> arrivals;
  for (int i = 0; i < 40; ++i) {
    CirArrival a;
    a.time_into_window_s = arrivals_rng.uniform(-5.0, 1020.0) * k::cir_ts_s;
    a.amplitude = arrivals_rng.complex_normal(0.3);
    a.tc_pgdelay = i % 2 == 0 ? k::tc_pgdelay_default : 0xC8;
    arrivals.push_back(a);
  }
  for (const double sigma : {0.004, 0.0}) {
    CirParams params;
    params.noise_sigma = sigma;
    Rng reference_rng(77), whole(77), split(77);
    const CirEstimate reference =
        in_place_reference(arrivals, params, reference_rng);
    const CirEstimate synthesized = synthesize_cir(arrivals, params, whole);
    const CVec noise = draw_cir_noise(params, split);
    const std::size_t drawn =
        sigma > 0.0 ? static_cast<std::size_t>(params.length) : 0u;
    EXPECT_EQ(noise.size(), drawn);
    const CirEstimate rendered = render_cir(arrivals, params, noise);
    EXPECT_EQ(synthesized.taps, reference.taps) << "sigma " << sigma;
    EXPECT_EQ(rendered.taps, reference.taps) << "sigma " << sigma;
    EXPECT_EQ(rendered.ts_s, reference.ts_s);
    // The render draws nothing: all streams continue from the same state.
    const double next = reference_rng.uniform(0.0, 1.0);
    EXPECT_EQ(whole.uniform(0.0, 1.0), next);
    EXPECT_EQ(split.uniform(0.0, 1.0), next);
  }
}

TEST(CirTest, RenderRejectsNoiseOfAnotherLength) {
  const CirParams params;
  EXPECT_THROW(render_cir({}, params, CVec(10)), PreconditionError);
  EXPECT_NO_THROW(render_cir({}, params, CVec{}));
}

TEST(CirTest, InvalidParamsThrow) {
  Rng rng(8);
  CirParams bad;
  bad.length = 0;
  EXPECT_THROW(synthesize_cir({}, bad, rng), PreconditionError);
  bad = CirParams{};
  bad.noise_sigma = -1.0;
  EXPECT_THROW(synthesize_cir({}, bad, rng), PreconditionError);
}

TEST(TimestampingTest, SigmaGrowsWithPulseWidth) {
  TimestampModelParams params;
  const double s1 = rx_timestamp_sigma_s(params, 0x93);
  const double s3 = rx_timestamp_sigma_s(params, 0xE6);
  EXPECT_GT(s3, s1);
  EXPECT_NEAR(s1, params.base_jitter_s, 1e-15);
}

TEST(TimestampingTest, NoisyTimestampUnbiased) {
  TimestampModelParams params;
  Rng rng(9);
  const DwTimestamp truth(1'000'000'000);
  double sum = 0.0;
  const int n = 5000;
  for (int i = 0; i < n; ++i)
    sum += noisy_rx_timestamp(params, 0x93, truth, rng).diff_seconds(truth).value();
  EXPECT_NEAR(sum / n, 0.0, 5e-12);
}

TEST(TimestampingTest, NoisySpreadMatchesSigma) {
  TimestampModelParams params;
  Rng rng(10);
  const DwTimestamp truth(5'000'000);
  RVec errs;
  for (int i = 0; i < 5000; ++i)
    errs.push_back(
        noisy_rx_timestamp(params, 0x93, truth, rng).diff_seconds(truth).value());
  double sq = 0.0;
  for (double e : errs) sq += e * e;
  const double sigma = std::sqrt(sq / errs.size());
  EXPECT_NEAR(sigma, params.base_jitter_s, 0.15 * params.base_jitter_s);
}

TEST(TimestampingTest, FirstPathOnCleanPulse) {
  Rng rng(11);
  CirArrival a;
  a.time_into_window_s = 64.0 * k::cir_ts_s;
  a.amplitude = {0.5, 0.0};
  CirParams params;
  params.noise_sigma = 0.004;
  const CirEstimate cir = synthesize_cir({a}, params, rng);
  const double fp = detect_first_path(cir.taps);
  // The leading edge sits within a couple of taps before the peak.
  EXPECT_GT(fp, 58.0);
  EXPECT_LT(fp, 65.0);
}

TEST(TimestampingTest, FirstPathPrefersEarlierWeakerPath) {
  Rng rng(12);
  CirArrival early;
  early.time_into_window_s = 100.0 * k::cir_ts_s;
  early.amplitude = {0.3, 0.0};
  CirArrival late;
  late.time_into_window_s = 140.0 * k::cir_ts_s;
  late.amplitude = {0.9, 0.0};
  CirParams params;
  params.noise_sigma = 0.004;
  const CirEstimate cir = synthesize_cir({early, late}, params, rng);
  const double fp = detect_first_path(cir.taps);
  EXPECT_LT(fp, 105.0);  // locks to the early path, not the strong one
}

TEST(TimestampingTest, InvalidArgsThrow) {
  EXPECT_THROW(detect_first_path(CVec{}), PreconditionError);
  CVec x(16, Complex{1.0, 0.0});
  EXPECT_THROW(detect_first_path(x, 0.0), PreconditionError);
}

TEST(EnergyTest, AccumulatesChargeAndEnergy) {
  EnergyMeter meter;
  meter.add_tx(1.0);  // 1 s at 90 mA
  meter.add_rx(1.0);  // 1 s at 155 mA
  EXPECT_NEAR(meter.charge_c(), 0.245, 1e-9);
  EXPECT_NEAR(meter.energy_j(), 0.245 * 3.3, 1e-9);
  EXPECT_EQ(meter.tx_count(), 1);
  EXPECT_EQ(meter.rx_count(), 1);
}

TEST(EnergyTest, RxDominatesTxPerSecond) {
  // The premise of the paper's motivation: receiving costs more than
  // transmitting on the DW1000.
  EnergyMeter tx_only, rx_only;
  tx_only.add_tx(1.0);
  rx_only.add_rx(1.0);
  EXPECT_GT(rx_only.energy_j(), tx_only.energy_j());
}

TEST(EnergyTest, ResetClears) {
  EnergyMeter meter;
  meter.add_tx(0.5);
  meter.add_idle(100.0);
  meter.reset();
  EXPECT_DOUBLE_EQ(meter.charge_c(), 0.0);
  EXPECT_EQ(meter.tx_count(), 0);
}

TEST(EnergyTest, NegativeDurationThrows) {
  EnergyMeter meter;
  EXPECT_THROW(meter.add_tx(-1.0), PreconditionError);
  EXPECT_THROW(meter.add_rx(-1.0), PreconditionError);
  EXPECT_THROW(meter.add_idle(-1.0), PreconditionError);
}

TEST(EnergyTest, CustomParams) {
  EnergyModelParams params;
  params.tx_current_a = 0.1;
  params.supply_v = 3.0;
  EnergyMeter meter(params);
  meter.add_tx(2.0);
  EXPECT_NEAR(meter.energy_j(), 0.6, 1e-12);
}

TEST(CirIoTest, SaveLoadRoundTrip) {
  CirEstimate cir;
  cir.ts_s = k::cir_ts_s;
  cir.first_path_index = 64.25;
  Rng rng(1);
  cir.taps.resize(128);
  for (auto& t : cir.taps) t = rng.complex_normal(0.3);
  const std::string path = "/tmp/uwb_cir_io_test.csv";
  ASSERT_TRUE(save_cir_csv(cir, path));
  const auto loaded = load_cir_csv(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_DOUBLE_EQ(loaded->ts_s, cir.ts_s);
  EXPECT_DOUBLE_EQ(loaded->first_path_index, 64.25);
  ASSERT_EQ(loaded->taps.size(), cir.taps.size());
  for (std::size_t i = 0; i < cir.taps.size(); ++i)
    EXPECT_LT(std::abs(loaded->taps[i] - cir.taps[i]), 1e-9);
  std::remove(path.c_str());
}

TEST(CirIoTest, LoadRejectsGarbage) {
  const std::string path = "/tmp/uwb_cir_io_bad.csv";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("not a cir file\n", f);
    std::fclose(f);
  }
  EXPECT_FALSE(load_cir_csv(path).has_value());
  EXPECT_FALSE(load_cir_csv("/nonexistent/nowhere.csv").has_value());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace uwb::dw
