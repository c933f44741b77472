// Integration tests: full concurrent-ranging rounds through the simulator,
// covering the paper's core scenarios (Sect. III-VIII).
#include <gtest/gtest.h>

#include <cmath>

#include "common/constants.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "ranging/session.hpp"

namespace uwb::ranging {
namespace {

ScenarioConfig hallway_scenario(std::uint64_t seed) {
  ScenarioConfig cfg;
  // Paper-like hallway with plasterboard-grade walls: side-wall reflections
  // stay well below the direct paths, as in the measured CIR of Fig. 4a.
  cfg.room = geom::Room::hallway(40.0, 2.4, /*reflection_loss_db=*/12.0);
  cfg.initiator_position = {2.0, 1.2};
  cfg.seed = seed;
  return cfg;
}

TEST(SessionTest, SingleResponderTwrAccuracy) {
  ScenarioConfig cfg = hallway_scenario(42);
  cfg.responders = {{0, {5.0, 1.2}}};  // 3 m away
  ConcurrentRangingScenario scenario(cfg);
  const RoundOutcome out = scenario.run_round();
  ASSERT_TRUE(out.completed);
  ASSERT_TRUE(out.payload_decoded);
  EXPECT_EQ(out.sync_responder_id, 0);
  EXPECT_NEAR(out.d_twr_m, 3.0, 0.15);
  ASSERT_GE(out.estimates.size(), 1u);
  EXPECT_NEAR(out.estimates.front().distance_m, 3.0, 0.15);
}

TEST(SessionTest, ThreeRespondersFig4Scenario) {
  // Paper Fig. 4: responders at 3, 6, and 10 m in a hallway. With the
  // hardware delayed-TX truncation active, each non-decoded response moves
  // by up to +-8 ns (paper Sect. III) => +-0.6 m one-way tolerance. The
  // seed picks a typical fading draw: adverse draws can hide the second
  // response behind first-responder multipath in this geometry.
  ScenarioConfig cfg = hallway_scenario(8);
  cfg.responders = {{0, {5.0, 1.2}}, {1, {8.0, 1.2}}, {2, {12.0, 1.2}}};
  ConcurrentRangingScenario scenario(cfg);
  const RoundOutcome out = scenario.run_round();
  ASSERT_TRUE(out.completed);
  ASSERT_TRUE(out.payload_decoded);
  EXPECT_EQ(out.frames_in_batch, 3);
  ASSERT_EQ(out.estimates.size(), 3u);
  // The detector orders responses by ascending distance (paper step 7).
  EXPECT_NEAR(out.estimates[0].distance_m, 3.0, 0.3);
  EXPECT_NEAR(out.estimates[1].distance_m, 6.0, 0.75);
  EXPECT_NEAR(out.estimates[2].distance_m, 10.0, 0.75);
}

TEST(SessionTest, OnlyTheInitiatorRendersItsCir) {
  // Responders act on the INIT's RX timestamp alone; the initiator is the
  // one reader of a CIR in a round. Every receiver still draws its noise.
  obs::MetricsRegistry::instance().reset();
  ScenarioConfig cfg = hallway_scenario(8);
  cfg.responders = {{0, {5.0, 1.2}}, {1, {8.0, 1.2}}, {2, {12.0, 1.2}}};
  ConcurrentRangingScenario scenario(cfg);
  constexpr int kRounds = 5;
  std::uint64_t read = 0;
  for (int i = 0; i < kRounds; ++i) {
    const RoundOutcome out = scenario.run_round();
    if (out.completed) {
      ++read;
      EXPECT_EQ(out.cir.taps.size(), static_cast<std::size_t>(cfg.cir.length));
    }
  }
  EXPECT_EQ(read, static_cast<std::uint64_t>(kRounds));
  const obs::Snapshot snap = obs::MetricsRegistry::instance().aggregate();
  const auto* rendered = snap.span("cir_synthesis");
  const auto* noise = snap.span("cir_noise");
  if (!obs::kEnabled) {
    EXPECT_EQ(rendered, nullptr);
    EXPECT_EQ(noise, nullptr);
    return;
  }
  ASSERT_NE(rendered, nullptr);
  ASSERT_NE(noise, nullptr);
  EXPECT_EQ(rendered->count, read);
  EXPECT_EQ(noise->count, (1 + cfg.responders.size()) * kRounds);
}

TEST(SessionTest, ThreeRespondersIdealTxTiming) {
  // Ablation: with ideal (un-truncated) delayed TX the concurrent distances
  // are centimetre-accurate, isolating the truncation as the error source.
  ScenarioConfig cfg = hallway_scenario(8);
  cfg.responders = {{0, {5.0, 1.2}}, {1, {8.0, 1.2}}, {2, {12.0, 1.2}}};
  cfg.delayed_tx_truncation = false;
  ConcurrentRangingScenario scenario(cfg);
  const RoundOutcome out = scenario.run_round();
  ASSERT_TRUE(out.payload_decoded);
  ASSERT_EQ(out.estimates.size(), 3u);
  EXPECT_NEAR(out.estimates[0].distance_m, 3.0, 0.1);
  EXPECT_NEAR(out.estimates[1].distance_m, 6.0, 0.1);
  EXPECT_NEAR(out.estimates[2].distance_m, 10.0, 0.1);
}

TEST(SessionTest, RepeatedRoundsAdvanceTime) {
  ScenarioConfig cfg = hallway_scenario(3);
  cfg.responders = {{0, {6.0, 1.2}}};
  ConcurrentRangingScenario scenario(cfg);
  const SimTime before = scenario.simulator().now();
  const RoundOutcome a = scenario.run_round();
  const SimTime mid = scenario.simulator().now();
  const RoundOutcome b = scenario.run_round();
  EXPECT_TRUE(a.completed);
  EXPECT_TRUE(b.completed);
  EXPECT_GT(mid, before);
  EXPECT_GT(scenario.simulator().now(), mid);
}

}  // namespace
}  // namespace uwb::ranging
