// Unit tests: Medium propagation details and the detector trace API.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>

#include "common/constants.hpp"
#include "dw1000/cir.hpp"
#include "ranging/search_subtract.hpp"
#include "sim/medium.hpp"
#include "sim/node.hpp"
#include "sim/simulator.hpp"

namespace uwb::sim {
namespace {

struct Bench {
  Simulator sim;
  std::unique_ptr<Medium> medium;

  explicit Bench(double detect_amp = 0.02, std::uint64_t seed = 1,
                 geom::Room room = geom::Room::rectangular(100.0, 50.0, 10.0),
                 channel::ChannelModelParams ch = {}) {
    MediumParams mp;
    mp.detection_threshold_amp = detect_amp;
    medium = std::make_unique<Medium>(
        sim, channel::ChannelModel(std::move(room), ch), mp, Rng(seed));
  }
};

NodeConfig node_cfg(int id, geom::Vec2 pos) {
  NodeConfig nc;
  nc.id = id;
  nc.position = pos;
  return nc;
}

TEST(MediumTest, PropagationDelayMatchesDistance) {
  Bench bench;
  channel::ChannelModelParams ch;
  Node tx(bench.sim, *bench.medium, node_cfg(0, {10.0, 25.0}), Rng(2));
  Node rx(bench.sim, *bench.medium, node_cfg(1, {40.0, 25.0}), Rng(3));
  std::optional<RxResult> got;
  rx.set_rx_handler([&](const RxResult& r) { got = r; });
  rx.enter_rx();
  dw::MacFrame f;
  f.type = dw::FrameType::Init;
  SimTime tx_time;
  bench.sim.after(SimTime::from_micros(5.0), [&] {
    tx_time = bench.sim.now();
    tx.transmit_now(f);
  });
  bench.sim.run();
  ASSERT_TRUE(got.has_value());
  // Completion = frame end arrival + processing margin; frame end is the
  // TX start + air time + propagation (30 m ~= 100 ns).
  const double airtime = rx.phy().frame_duration_s(f.payload_bytes());
  const double expected_completion =
      tx_time.seconds() + airtime + 30.0 / k::c_air;
  EXPECT_NEAR(got->completed_at.seconds(), expected_completion, 3e-6);
}

TEST(MediumTest, HighThresholdDropsWeakFrames) {
  // With an absurd detection threshold nothing is ever delivered.
  Bench bench(/*detect_amp=*/10.0);
  Node tx(bench.sim, *bench.medium, node_cfg(0, {10.0, 25.0}), Rng(2));
  Node rx(bench.sim, *bench.medium, node_cfg(1, {12.0, 25.0}), Rng(3));
  std::optional<RxResult> got;
  rx.set_rx_handler([&](const RxResult& r) { got = r; });
  rx.enter_rx();
  dw::MacFrame f;
  bench.sim.after(SimTime::from_micros(5.0), [&] { tx.transmit_now(f); });
  bench.sim.run();
  EXPECT_FALSE(got.has_value());
  rx.exit_rx();
}

TEST(MediumTest, ChannelRedrawnPerFrame) {
  // Two consecutive receptions draw fresh fading: the CIRs differ.
  Bench bench(0.02, 7);
  Node tx(bench.sim, *bench.medium, node_cfg(0, {10.0, 25.0}), Rng(2));
  Node rx(bench.sim, *bench.medium, node_cfg(1, {20.0, 25.0}), Rng(3));
  std::vector<CVec> cirs;
  rx.set_rx_handler(
      [&](const RxResult& r) { cirs.push_back(r.render_cir().taps); });
  dw::MacFrame f;
  for (int i = 0; i < 2; ++i) {
    bench.sim.after(SimTime::from_micros(5.0), [&] {
      rx.enter_rx();
    });
    bench.sim.after(SimTime::from_micros(10.0), [&] { tx.transmit_now(f); });
    bench.sim.run();
  }
  ASSERT_EQ(cirs.size(), 2u);
  double diff = 0.0;
  for (std::size_t i = 0; i < cirs[0].size(); ++i)
    diff += std::abs(cirs[0][i] - cirs[1][i]);
  EXPECT_GT(diff, 0.1);
}

TEST(MediumTest, ObstructedDirectPathLocksToReflection) {
  // Bury the direct path: the receiver's first detectable path is a wall
  // reflection, so the reported ToF is biased long.
  geom::Room room = geom::Room::rectangular(30.0, 10.0, 3.0);
  room.add_obstacle({{{15.0, 4.0}, {15.0, 6.0}}, 40.0, "vault door"});
  channel::ChannelModelParams ch;
  ch.specular_fading_db = 0.0;
  ch.enable_diffuse = false;
  Bench bench(0.02, 9, room, ch);
  Node tx(bench.sim, *bench.medium, node_cfg(0, {10.0, 5.0}), Rng(2));
  Node rx(bench.sim, *bench.medium, node_cfg(1, {20.0, 5.0}), Rng(3));
  std::optional<RxResult> got;
  rx.set_rx_handler([&](const RxResult& r) { got = r; });
  rx.enter_rx();
  dw::MacFrame f;
  dw::DwTimestamp tx_ts;
  bench.sim.after(SimTime::from_micros(5.0), [&] { tx_ts = tx.transmit_now(f); });
  bench.sim.run();
  ASSERT_TRUE(got.has_value());
  const double tof = got->rx_timestamp.diff_seconds(tx_ts).value();
  // Direct path is 10 m; the shortest reflection is noticeably longer.
  EXPECT_GT(tof, 10.5 / k::c_air);
}

TEST(DetectorTraceTest, TraceMatchesDetect) {
  dw::CirParams params;
  params.noise_sigma = 0.004;
  Rng rng(11);
  std::vector<dw::CirArrival> arrivals;
  for (int i = 0; i < 3; ++i) {
    dw::CirArrival a;
    a.time_into_window_s = (80.0 + 60.0 * i) * k::cir_ts_s;
    a.amplitude = {0.4 - 0.1 * i, 0.0};
    arrivals.push_back(a);
  }
  const auto cir = dw::synthesize_cir(arrivals, params, rng);
  ranging::SearchSubtractDetector det{ranging::DetectorConfig{}};
  const auto plain = det.detect(cir.taps, cir.ts_s, 3);
  const auto trace = det.detect_with_trace(cir.taps, cir.ts_s, 3);
  ASSERT_EQ(plain.size(), trace.responses.size());
  for (std::size_t i = 0; i < plain.size(); ++i)
    EXPECT_DOUBLE_EQ(plain[i].tau_s, trace.responses[i].tau_s);
  // One matched-filter snapshot per accepted iteration (or one more if the
  // stop check rejected a candidate after recording it).
  EXPECT_GE(trace.mf_outputs.size(), plain.size());
  EXPECT_LE(trace.mf_outputs.size(), plain.size() + 1);
  EXPECT_GT(trace.ts_up, 0.0);
  // Successive residual peaks are non-increasing.
  double prev_peak = 1e9;
  for (const auto& y : trace.mf_outputs) {
    double peak = 0.0;
    for (const auto& v : y) peak = std::max(peak, std::abs(v));
    EXPECT_LE(peak, prev_peak + 1e-9);
    prev_peak = peak;
  }
}

}  // namespace
}  // namespace uwb::sim
