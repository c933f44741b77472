// Unit tests: search-and-subtract detector (Sect. IV), threshold baseline
// (Sect. VI), and pulse-shape classification (Sect. V) on synthetic CIRs.
#include <gtest/gtest.h>

#include <cmath>

#include "common/constants.hpp"
#include "common/expects.hpp"
#include "dw1000/cir.hpp"
#include "dw1000/pulse.hpp"
#include "ranging/search_subtract.hpp"
#include "ranging/threshold_detector.hpp"

namespace uwb::ranging {
namespace {

dw::CirEstimate make_cir(const std::vector<dw::CirArrival>& arrivals,
                         double noise_sigma, std::uint64_t seed) {
  dw::CirParams params;
  params.noise_sigma = noise_sigma;
  Rng rng(seed);
  return dw::synthesize_cir(arrivals, params, rng);
}

dw::CirArrival arrival(double tap_pos, double amp, std::uint8_t reg = 0x93) {
  dw::CirArrival a;
  a.time_into_window_s = tap_pos * k::cir_ts_s;
  a.amplitude = {amp, 0.0};
  a.tc_pgdelay = reg;
  return a;
}

TEST(SearchSubtractTest, SinglePulseLocatedPrecisely) {
  const auto cir = make_cir({arrival(100.25, 0.5)}, 0.004, 1);
  SearchSubtractDetector det{DetectorConfig{}};
  const auto found = det.detect(cir.taps, cir.ts_s, 1);
  ASSERT_EQ(found.size(), 1u);
  // Upsampled-by-8 grid: peak within 1/8 tap of the true position.
  EXPECT_NEAR(found[0].tau_s / k::cir_ts_s, 100.25, 0.15);
  EXPECT_NEAR(std::abs(found[0].amplitude), 0.5, 0.03);
}

TEST(SearchSubtractTest, ThreeWellSeparatedResponses) {
  const auto cir = make_cir(
      {arrival(80.0, 0.5), arrival(120.0, 0.3), arrival(200.0, 0.15)}, 0.004, 2);
  SearchSubtractDetector det{DetectorConfig{}};
  const auto found = det.detect(cir.taps, cir.ts_s, 3);
  ASSERT_EQ(found.size(), 3u);
  // Ascending tau (paper step 7), independent of amplitude order.
  EXPECT_NEAR(found[0].tau_s / k::cir_ts_s, 80.0, 0.2);
  EXPECT_NEAR(found[1].tau_s / k::cir_ts_s, 120.0, 0.2);
  EXPECT_NEAR(found[2].tau_s / k::cir_ts_s, 200.0, 0.2);
}

TEST(SearchSubtractTest, AmplitudeIndependenceWeakFirst) {
  // The *weakest* response arrives first; detection must still report it
  // first (open challenge IV: no absolute power ordering).
  const auto cir = make_cir({arrival(90.0, 0.08), arrival(300.0, 0.6)}, 0.004, 3);
  SearchSubtractDetector det{DetectorConfig{}};
  const auto found = det.detect(cir.taps, cir.ts_s, 2);
  ASSERT_EQ(found.size(), 2u);
  EXPECT_NEAR(found[0].tau_s / k::cir_ts_s, 90.0, 0.3);
  EXPECT_LT(std::abs(found[0].amplitude), std::abs(found[1].amplitude));
}

TEST(SearchSubtractTest, StopsAtNoiseFloor) {
  const auto cir = make_cir({arrival(100.0, 0.5)}, 0.004, 4);
  SearchSubtractDetector det{DetectorConfig{}};
  // Asking for 5 responses must not hallucinate 4 extra ones from noise.
  const auto found = det.detect(cir.taps, cir.ts_s, 5);
  EXPECT_LE(found.size(), 2u);
  ASSERT_GE(found.size(), 1u);
  EXPECT_NEAR(found[0].tau_s / k::cir_ts_s, 100.0, 0.2);
}

TEST(SearchSubtractTest, OverlappingResponsesResolved) {
  // Two pulses 3 taps (~3 ns) apart: heavily overlapping but resolvable by
  // subtraction (paper Fig. 7).
  const auto cir = make_cir({arrival(100.0, 0.5), arrival(103.0, 0.45)}, 0.004, 5);
  SearchSubtractDetector det{DetectorConfig{}};
  const auto found = det.detect(cir.taps, cir.ts_s, 2);
  ASSERT_EQ(found.size(), 2u);
  EXPECT_NEAR(found[0].tau_s / k::cir_ts_s, 100.0, 0.5);
  EXPECT_NEAR(found[1].tau_s / k::cir_ts_s, 103.0, 0.5);
}

TEST(SearchSubtractTest, SubtractionRevealsWeakNeighbour) {
  // A weak response in the shadow of a strong one.
  const auto cir = make_cir({arrival(100.0, 0.6), arrival(104.0, 0.12)}, 0.003, 6);
  SearchSubtractDetector det{DetectorConfig{}};
  const auto found = det.detect(cir.taps, cir.ts_s, 2);
  ASSERT_EQ(found.size(), 2u);
  EXPECT_NEAR(found[1].tau_s / k::cir_ts_s, 104.0, 0.8);
}

TEST(SearchSubtractTest, ClassifiesPulseShapes) {
  // Two responders with different TC_PGDELAY shapes (paper Fig. 6).
  const auto cir = make_cir(
      {arrival(100.0, 0.4, 0x93), arrival(250.0, 0.25, 0xE6)}, 0.004, 7);
  DetectorConfig cfg;
  cfg.shape_registers = {0x93, 0xC8, 0xE6};
  SearchSubtractDetector det{cfg};
  const auto found = det.detect(cir.taps, cir.ts_s, 2);
  ASSERT_EQ(found.size(), 2u);
  EXPECT_EQ(found[0].shape_index, 0);  // s1 = 0x93
  EXPECT_EQ(found[1].shape_index, 2);  // s3 = 0xE6
}

TEST(SearchSubtractTest, SingleTemplateReportsNoShape) {
  const auto cir = make_cir({arrival(100.0, 0.4)}, 0.004, 8);
  SearchSubtractDetector det{DetectorConfig{}};
  const auto found = det.detect(cir.taps, cir.ts_s, 1);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].shape_index, -1);
}

TEST(SearchSubtractTest, MatchedFilterOutputPeaksAtResponse) {
  const auto cir = make_cir({arrival(150.0, 0.5)}, 0.002, 9);
  DetectorConfig cfg;
  SearchSubtractDetector det{cfg};
  const CVec y = det.matched_filter_output(cir.taps, cir.ts_s, 0);
  ASSERT_EQ(y.size(), cir.taps.size() * 8);
  std::size_t peak = 0;
  for (std::size_t i = 1; i < y.size(); ++i)
    if (std::abs(y[i]) > std::abs(y[peak])) peak = i;
  // Peak is the template *start*; peak + centre offset = 150 taps * 8.
  const auto centre = static_cast<double>(
      dw::template_centre_index(0x93, k::cir_ts_s / 8.0));
  EXPECT_NEAR(static_cast<double>(peak) + centre, 150.0 * 8.0, 2.0);
}

TEST(SearchSubtractTest, ConfigValidation) {
  DetectorConfig bad;
  bad.upsample_factor = 0;
  EXPECT_THROW(SearchSubtractDetector{bad}, PreconditionError);
  bad.upsample_factor = 3;  // not a power of two: no radix-2 grid
  EXPECT_THROW(SearchSubtractDetector{bad}, PreconditionError);
  EXPECT_THROW(ThresholdDetector{bad}, PreconditionError);
  bad = DetectorConfig{};
  bad.shape_registers = {};
  EXPECT_THROW(SearchSubtractDetector{bad}, PreconditionError);
}

TEST(SearchSubtractTest, EmptyCirThrows) {
  SearchSubtractDetector det{DetectorConfig{}};
  EXPECT_THROW(det.detect(CVec{}, k::cir_ts_s, 1), PreconditionError);
  const auto cir = make_cir({arrival(10.0, 0.5)}, 0.004, 10);
  EXPECT_THROW(det.detect(cir.taps, cir.ts_s, 0), PreconditionError);
}

TEST(ThresholdTest, WellSeparatedResponsesDetected) {
  const auto cir = make_cir(
      {arrival(80.0, 0.5), arrival(160.0, 0.3), arrival(300.0, 0.2)}, 0.004, 11);
  ThresholdDetector det{DetectorConfig{}};
  const auto found = det.detect(cir.taps, cir.ts_s, 3);
  ASSERT_EQ(found.size(), 3u);
  EXPECT_NEAR(found[0].tau_s / k::cir_ts_s, 80.0, 1.0);
  EXPECT_NEAR(found[1].tau_s / k::cir_ts_s, 160.0, 1.0);
  EXPECT_NEAR(found[2].tau_s / k::cir_ts_s, 300.0, 1.0);
}

TEST(ThresholdTest, MissesOverlappingResponses) {
  // Coincident responses merge into one crossing window — the failure mode
  // the paper quantifies in Sect. VI.
  const auto cir = make_cir({arrival(100.0, 0.5), arrival(101.0, 0.45)}, 0.004, 12);
  ThresholdDetector det{DetectorConfig{}};
  const auto found = det.detect(cir.taps, cir.ts_s, 2);
  // Only one peak inside the window; any further "response" would have to
  // come from noise beyond it.
  ASSERT_GE(found.size(), 1u);
  EXPECT_NEAR(found[0].tau_s / k::cir_ts_s, 100.0, 2.0);
  if (found.size() == 2u) {
    // If a second crossing fired, it is far from the true second response.
    EXPECT_GT(std::abs(found[1].tau_s / k::cir_ts_s - 101.0), 5.0);
  }
}

TEST(ThresholdTest, RespectsMaxResponses) {
  const auto cir = make_cir(
      {arrival(50.0, 0.5), arrival(150.0, 0.4), arrival(250.0, 0.3)}, 0.004, 13);
  ThresholdDetector det{DetectorConfig{}};
  EXPECT_EQ(det.detect(cir.taps, cir.ts_s, 2).size(), 2u);
}

TEST(ThresholdTest, PureNoiseYieldsNothing) {
  const auto cir = make_cir({}, 0.004, 14);
  ThresholdDetector det{DetectorConfig{}};
  EXPECT_TRUE(det.detect(cir.taps, cir.ts_s, 3).empty());
}

TEST(DetectorComparisonTest, SearchSubtractBeatsThresholdOnOverlap) {
  // Monte-Carlo comparison on identical CIRs (the Sect. VI experiment in
  // miniature): count trials where both true responses are recovered.
  int ss_ok = 0, th_ok = 0;
  const int trials = 60;
  SearchSubtractDetector ss{DetectorConfig{}};
  ThresholdDetector th{DetectorConfig{}};
  Rng offsets(99);
  for (int t = 0; t < trials; ++t) {
    const double offset = offsets.uniform(0.5, 2.0);  // 0.5-2 taps apart
    const auto cir = make_cir(
        {arrival(100.0, 0.5), arrival(100.0 + offset, 0.48)}, 0.004,
        static_cast<std::uint64_t>(t) + 1000);
    const auto check = [&](const std::vector<DetectedResponse>& found) {
      if (found.size() < 2) return false;
      const double tol = 1.5;
      const bool first_ok =
          std::abs(found[0].tau_s / k::cir_ts_s - 100.0) < tol;
      const bool second_ok =
          std::abs(found[1].tau_s / k::cir_ts_s - (100.0 + offset)) < tol;
      return first_ok && second_ok;
    };
    if (check(ss.detect(cir.taps, cir.ts_s, 2))) ++ss_ok;
    if (check(th.detect(cir.taps, cir.ts_s, 2))) ++th_ok;
  }
  EXPECT_GT(ss_ok, th_ok);
  EXPECT_GT(ss_ok, trials / 2);
}

}  // namespace
}  // namespace uwb::ranging
