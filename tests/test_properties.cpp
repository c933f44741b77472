// Property-based sweeps (parameterised gtest): invariants that must hold
// across ranges of positions, amplitudes, registers, factors, and seeds.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "common/constants.hpp"
#include "common/expects.hpp"
#include "dsp/fft.hpp"
#include "dsp/resample.hpp"
#include "dsp/signal.hpp"
#include "dw1000/cir.hpp"
#include "dw1000/clock.hpp"
#include "dw1000/pulse.hpp"
#include "ranging/protocol.hpp"
#include "ranging/search_subtract.hpp"
#include "runner/monte_carlo.hpp"

namespace uwb {
namespace {

// --- upsampling: sample preservation across factors and lengths ------------

class UpsampleProperty
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

// The radix-2 upsample has no grid for a factor that is not a power of
// two: such factors (3 here) must be rejected rather than interpolated.
bool rejects_factor(const CVec& x, int factor) {
  if (dsp::is_pow2(static_cast<std::size_t>(factor))) return false;
  EXPECT_THROW(dsp::upsample_fft(x, factor), PreconditionError);
  return true;
}

TEST_P(UpsampleProperty, OriginalSamplesPreserved) {
  const auto [factor, n] = GetParam();
  Rng rng(n * 31 + static_cast<std::size_t>(factor));
  CVec x(n);
  for (auto& v : x) v = rng.complex_normal(1.0);
  if (rejects_factor(x, factor)) return;
  const CVec y = dsp::upsample_fft(x, factor);
  ASSERT_EQ(y.size(), dsp::next_pow2(n) * static_cast<std::size_t>(factor));
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_LT(std::abs(y[i * static_cast<std::size_t>(factor)] - x[i]), 1e-9);
}

TEST_P(UpsampleProperty, EnergyScalesWithFactor) {
  // Band-limited interpolation preserves the continuous-time signal, so
  // discrete energy grows by ~factor.
  const auto [factor, n] = GetParam();
  Rng rng(n * 17 + static_cast<std::size_t>(factor));
  CVec x(n);
  for (auto& v : x) v = rng.complex_normal(1.0);
  if (rejects_factor(x, factor)) return;
  const double ratio =
      dsp::energy(dsp::upsample_fft(x, factor)) / dsp::energy(x);
  // The split Nyquist bin sheds up to ~half of one bin's energy (~1/2N of
  // the total for white input), so the tolerance scales with 1/n.
  EXPECT_NEAR(ratio, static_cast<double>(factor),
              (0.02 + 2.0 / static_cast<double>(n)) * factor);
}

INSTANTIATE_TEST_SUITE_P(
    FactorsAndLengths, UpsampleProperty,
    ::testing::Combine(::testing::Values(2, 3, 4, 8, 16),
                       ::testing::Values<std::size_t>(16, 33, 128, 1016)));

// --- pulse family: monotonicity and normalisation over all registers --------

class PulseRegisterProperty : public ::testing::TestWithParam<int> {};

TEST_P(PulseRegisterProperty, PeakNearUnity) {
  const auto reg = static_cast<std::uint8_t>(GetParam());
  EXPECT_GT(dw::pulse_value(reg, 0.0), 0.85);
  EXPECT_LE(dw::pulse_value(reg, 0.0), 1.05);
}

TEST_P(PulseRegisterProperty, DurationCoversSupport) {
  const auto reg = static_cast<std::uint8_t>(GetParam());
  const double half = dw::pulse_duration_s(reg) / 2.0;
  EXPECT_LT(std::abs(dw::pulse_value(reg, half)), 5e-3);
  EXPECT_LT(std::abs(dw::pulse_value(reg, -half)), 5e-3);
  EXPECT_LT(dw::pulse_main_lobe_s(reg), dw::pulse_duration_s(reg));
}

TEST_P(PulseRegisterProperty, TemplateCentreIsGlobalPeak) {
  const auto reg = static_cast<std::uint8_t>(GetParam());
  const double ts = k::cir_ts_s / 8.0;
  const CVec tmpl = dw::sample_pulse_template(reg, ts);
  const std::size_t centre = dw::template_centre_index(reg, ts);
  for (const auto& v : tmpl)
    EXPECT_LE(std::abs(v), std::abs(tmpl[centre]) + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Registers, PulseRegisterProperty,
                         ::testing::Values(0x93, 0xA0, 0xB4, 0xC8, 0xD0, 0xE6,
                                           0xF0, 0xFF));

// --- detector: localisation accuracy across positions and amplitudes --------

class DetectorSweep
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(DetectorSweep, SinglePulseWithinEighthTap) {
  const auto [position_taps, amplitude] = GetParam();
  dw::CirParams params;
  params.noise_sigma = 0.003;
  Rng rng(static_cast<std::uint64_t>(position_taps * 100.0) +
          static_cast<std::uint64_t>(amplitude * 1000.0));
  dw::CirArrival a;
  a.time_into_window_s = position_taps * k::cir_ts_s;
  a.amplitude = rng.random_phase() * amplitude;
  const auto cir = dw::synthesize_cir({a}, params, rng);
  ranging::SearchSubtractDetector det{ranging::DetectorConfig{}};
  const auto found = det.detect(cir.taps, cir.ts_s, 1);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_NEAR(found[0].tau_s / k::cir_ts_s, position_taps, 0.15);
  EXPECT_NEAR(std::abs(found[0].amplitude), amplitude, 0.1 * amplitude + 0.01);
}

INSTANTIATE_TEST_SUITE_P(
    PositionsAmplitudes, DetectorSweep,
    ::testing::Combine(::testing::Values(70.0, 100.3, 256.77, 500.5, 900.25),
                       ::testing::Values(0.08, 0.3, 0.9)));

// --- two-pulse resolution sweep ---------------------------------------------

class ResolutionSweep : public ::testing::TestWithParam<double> {};

TEST_P(ResolutionSweep, ResolvesSeparationsDownToOneTap) {
  const double sep = GetParam();
  dw::CirParams params;
  params.noise_sigma = 0.003;
  Rng rng(static_cast<std::uint64_t>(sep * 10) + 5);
  dw::CirArrival a, b;
  a.time_into_window_s = 120.0 * k::cir_ts_s;
  a.amplitude = {0.5, 0.0};
  b.time_into_window_s = (120.0 + sep) * k::cir_ts_s;
  b.amplitude = {0.4, 0.1};
  const auto cir = dw::synthesize_cir({a, b}, params, rng);
  ranging::SearchSubtractDetector det{ranging::DetectorConfig{}};
  const auto found = det.detect(cir.taps, cir.ts_s, 2);
  ASSERT_EQ(found.size(), 2u);
  EXPECT_NEAR(found[1].tau_s / k::cir_ts_s - found[0].tau_s / k::cir_ts_s, sep,
              0.5);
}

INSTANTIATE_TEST_SUITE_P(Separations, ResolutionSweep,
                         ::testing::Values(1.0, 1.5, 2.0, 3.0, 5.0, 10.0,
                                           50.0, 300.0));

// --- classification across shape pairs ---------------------------------------

class ShapePairSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ShapePairSweep, TwoShapesClassified) {
  const auto [i, j] = GetParam();
  const std::vector<std::uint8_t> bank{0x93, 0xC8, 0xE6};
  dw::CirParams params;
  params.noise_sigma = 0.003;
  Rng rng(static_cast<std::uint64_t>(i * 10 + j));
  dw::CirArrival a, b;
  a.time_into_window_s = 100.0 * k::cir_ts_s;
  a.amplitude = {0.4, 0.0};
  a.tc_pgdelay = bank[static_cast<std::size_t>(i)];
  b.time_into_window_s = 300.0 * k::cir_ts_s;
  b.amplitude = {0.25, 0.1};
  b.tc_pgdelay = bank[static_cast<std::size_t>(j)];
  const auto cir = dw::synthesize_cir({a, b}, params, rng);
  ranging::DetectorConfig cfg;
  cfg.shape_registers = bank;
  ranging::SearchSubtractDetector det{cfg};
  const auto found = det.detect(cir.taps, cir.ts_s, 2);
  ASSERT_EQ(found.size(), 2u);
  EXPECT_EQ(found[0].shape_index, i);
  EXPECT_EQ(found[1].shape_index, j);
}

INSTANTIATE_TEST_SUITE_P(Pairs, ShapePairSweep,
                         ::testing::Values(std::make_tuple(0, 1),
                                           std::make_tuple(0, 2),
                                           std::make_tuple(1, 0),
                                           std::make_tuple(1, 2),
                                           std::make_tuple(2, 0),
                                           std::make_tuple(2, 1),
                                           std::make_tuple(0, 0),
                                           std::make_tuple(2, 2)));

// --- slot assignment bijectivity across configurations ----------------------

class SlotConfigSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SlotConfigSweep, AssignmentRoundTrips) {
  const auto [slots, shapes] = GetParam();
  ranging::ConcurrentRangingConfig cfg;
  cfg.num_slots = slots;
  cfg.slot_spacing_s = slots > 1 ? 150e-9 : 0.0;
  const std::vector<std::uint8_t> all{0x93, 0xC8, 0xE6};
  cfg.shape_registers.assign(all.begin(), all.begin() + shapes);
  for (int id = 0; id < cfg.max_responders(); ++id) {
    const auto a = ranging::assign_responder(id, cfg);
    EXPECT_EQ(ranging::responder_id_from(a.slot, a.shape_index, cfg), id);
    EXPECT_GE(a.slot, 0);
    EXPECT_LT(a.slot, slots);
    EXPECT_NEAR(a.extra_delay_s,
                slots > 1 ? a.slot * cfg.slot_spacing_s : 0.0, 1e-15);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SlotShapeGrid, SlotConfigSweep,
    ::testing::Combine(::testing::Values(1, 2, 4, 8, 15),
                       ::testing::Values(1, 2, 3)));

// --- clock model: invertibility across offsets and drifts -------------------

class ClockSweep : public ::testing::TestWithParam<std::tuple<double, double>> {
};

TEST_P(ClockSweep, GlobalTimeOfInverts) {
  const auto [epoch_s, ppm] = GetParam();
  const dw::ClockModel clock(SimTime::from_seconds(epoch_s), ppm);
  const SimTime now = SimTime::from_seconds(3.25);
  for (const double ahead_s : {1e-6, 290e-6, 0.01, 1.0}) {
    const dw::DwTimestamp target =
        clock.device_time(now).plus_seconds(Seconds(ahead_s));
    const SimTime when = clock.global_time_of(target, now);
    EXPECT_NEAR(clock.device_time(when).diff_seconds(target).value(), 0.0,
                2.0 * k::dw_tick_s)
        << "epoch " << epoch_s << " ppm " << ppm << " ahead " << ahead_s;
  }
}

INSTANTIATE_TEST_SUITE_P(
    OffsetsAndDrifts, ClockSweep,
    ::testing::Combine(::testing::Values(0.0, 1.2345, 16.9),
                       ::testing::Values(-20.0, -2.0, 0.0, 2.0, 20.0)));

// --- Monte-Carlo sweeps on the parallel runner -------------------------------
// The parameterised sweeps above check a handful of handpicked draws; these
// sample the parameter space randomly over many trials on the Monte-Carlo
// engine and assert the aggregate. Trials only record — all assertions run
// on the main thread after the pool drains (gtest assertions are not
// thread-safe inside workers).

TEST(RunnerSweep, DetectorLocalisesRandomPulsesInAggregate) {
  runner::MonteCarlo::Config cfg;
  cfg.base_seed = 3101;
  const auto result = runner::MonteCarlo(cfg).run(
      48, [](const runner::TrialContext& ctx, runner::TrialRecorder& rec) {
        Rng rng(ctx.seed);
        const double position_taps = rng.uniform(70.0, 900.0);
        const double amplitude = rng.uniform(0.1, 0.9);
        dw::CirParams params;
        params.noise_sigma = 0.003;
        dw::CirArrival a;
        a.time_into_window_s = position_taps * k::cir_ts_s;
        a.amplitude = rng.random_phase() * amplitude;
        const auto cir = dw::synthesize_cir({a}, params, rng);
        ranging::SearchSubtractDetector det{ranging::DetectorConfig{}};
        const auto found = det.detect(cir.taps, cir.ts_s, 1);
        if (found.size() != 1) return;
        rec.count("found");
        rec.sample("tau_err_taps",
                   found[0].tau_s / k::cir_ts_s - position_taps);
        rec.sample("amp_rel_err",
                   (std::abs(found[0].amplitude) - amplitude) / amplitude);
      });
  EXPECT_EQ(result.counter("found"), 48);
  const auto tau = result.summary("tau_err_taps");
  EXPECT_LT(std::abs(tau.mean), 0.05);
  EXPECT_LT(tau.max, 0.2);
  EXPECT_GT(tau.min, -0.2);
  const auto amp = result.summary("amp_rel_err");
  EXPECT_LT(std::abs(amp.mean), 0.1);
}

TEST(RunnerSweep, TwoPulseResolutionHoldsOverRandomSeparations) {
  runner::MonteCarlo::Config cfg;
  cfg.base_seed = 3102;
  const auto result = runner::MonteCarlo(cfg).run(
      32, [](const runner::TrialContext& ctx, runner::TrialRecorder& rec) {
        Rng rng(ctx.seed);
        const double sep = rng.uniform(1.5, 60.0);
        dw::CirParams params;
        params.noise_sigma = 0.003;
        dw::CirArrival a, b;
        a.time_into_window_s = 120.0 * k::cir_ts_s;
        a.amplitude = {0.5, 0.0};
        b.time_into_window_s = (120.0 + sep) * k::cir_ts_s;
        b.amplitude = {0.4, 0.1};
        const auto cir = dw::synthesize_cir({a, b}, params, rng);
        ranging::SearchSubtractDetector det{ranging::DetectorConfig{}};
        const auto found = det.detect(cir.taps, cir.ts_s, 2);
        if (found.size() != 2) return;
        rec.count("resolved");
        rec.sample("sep_err_taps",
                   (found[1].tau_s - found[0].tau_s) / k::cir_ts_s - sep);
      });
  EXPECT_EQ(result.counter("resolved"), 32);
  const auto s = result.summary("sep_err_taps");
  EXPECT_LT(std::abs(s.mean), 0.2);
  EXPECT_LT(s.max, 0.5);
  EXPECT_GT(s.min, -0.5);
}

TEST(RunnerSweep, SweepIsScheduleIndependent) {
  // Same sweep at 1 and 4 workers: the runner contract says every sample
  // comes back bit-identical regardless of scheduling.
  const auto sweep = [](int threads) {
    runner::MonteCarlo::Config cfg;
    cfg.threads = threads;
    cfg.base_seed = 3103;
    return runner::MonteCarlo(cfg).run(
        24, [](const runner::TrialContext& ctx, runner::TrialRecorder& rec) {
          Rng rng(ctx.seed);
          dw::CirParams params;
          params.noise_sigma = 0.005;
          dw::CirArrival a;
          a.time_into_window_s = rng.uniform(80.0, 800.0) * k::cir_ts_s;
          a.amplitude = rng.random_phase() * 0.5;
          const auto cir = dw::synthesize_cir({a}, params, rng);
          ranging::SearchSubtractDetector det{ranging::DetectorConfig{}};
          const auto found = det.detect(cir.taps, cir.ts_s, 1);
          if (!found.empty()) rec.sample("tau_s", found[0].tau_s);
        });
  };
  const auto serial = sweep(1);
  const auto parallel = sweep(4);
  const RVec& xs = serial.samples("tau_s");
  const RVec& ys = parallel.samples("tau_s");
  ASSERT_EQ(xs.size(), ys.size());
  for (std::size_t i = 0; i < xs.size(); ++i) EXPECT_EQ(xs[i], ys[i]);
}

}  // namespace
}  // namespace uwb
