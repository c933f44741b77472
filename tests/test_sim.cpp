// Unit tests: discrete-event kernel, medium propagation, node TX/RX paths.
#include <gtest/gtest.h>

#include <vector>

#include "common/constants.hpp"
#include "common/expects.hpp"
#include "sim/medium.hpp"
#include "sim/node.hpp"
#include "sim/simulator.hpp"

namespace uwb::sim {
namespace {

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.at(SimTime::from_micros(30.0), [&] { order.push_back(3); });
  sim.at(SimTime::from_micros(10.0), [&] { order.push_back(1); });
  sim.at(SimTime::from_micros(20.0), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.dispatched(), 3u);
}

TEST(SimulatorTest, TiesBreakInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  const SimTime t = SimTime::from_micros(5.0);
  for (int i = 0; i < 10; ++i) sim.at(t, [&order, i] { order.push_back(i); });
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SimulatorTest, NowAdvancesWithEvents) {
  Simulator sim;
  SimTime seen;
  sim.at(SimTime::from_micros(42.0), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, SimTime::from_micros(42.0));
  EXPECT_EQ(sim.now(), SimTime::from_micros(42.0));
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator sim;
  int fired = 0;
  sim.at(SimTime::from_micros(1.0), [&] {
    sim.after(SimTime::from_micros(1.0), [&] { ++fired; });
  });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), SimTime::from_micros(2.0));
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.at(SimTime::from_micros(10.0), [&] { ++fired; });
  sim.at(SimTime::from_micros(30.0), [&] { ++fired; });
  sim.run_until(SimTime::from_micros(20.0));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), SimTime::from_micros(20.0));
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, SchedulingInPastThrows) {
  Simulator sim;
  sim.at(SimTime::from_micros(10.0), [] {});
  sim.run();
  EXPECT_THROW(sim.at(SimTime::from_micros(5.0), [] {}), PreconditionError);
}

// --- Node/Medium integration ------------------------------------------------

struct TestBench {
  Simulator sim;
  std::unique_ptr<Medium> medium;
  std::unique_ptr<Node> a;
  std::unique_ptr<Node> b;

  explicit TestBench(double distance_m = 10.0, std::uint64_t seed = 1,
                     double drift_a = 0.0, double drift_b = 0.0) {
    channel::ChannelModelParams ch;
    ch.enable_diffuse = false;
    ch.specular_fading_db = 0.0;
    ch.max_reflection_order = 0;
    medium = std::make_unique<Medium>(
        sim, channel::ChannelModel(geom::Room::rectangular(100.0, 50.0), ch),
        MediumParams{}, Rng(seed));
    NodeConfig ca;
    ca.id = 0;
    ca.position = {10.0, 25.0};
    ca.drift_ppm = drift_a;
    NodeConfig cb;
    cb.id = 1;
    cb.position = {10.0 + distance_m, 25.0};
    cb.drift_ppm = drift_b;
    a = std::make_unique<Node>(sim, *medium, ca, Rng(seed + 1));
    b = std::make_unique<Node>(sim, *medium, cb, Rng(seed + 2));
  }
};

TEST(NodeTest, DuplicateIdsRejected) {
  Simulator sim;
  channel::ChannelModelParams ch;
  Medium medium(sim, channel::ChannelModel(geom::Room::rectangular(10.0, 10.0), ch),
                MediumParams{}, Rng(1));
  NodeConfig cfg;
  cfg.id = 5;
  cfg.position = {1.0, 1.0};
  Node first(sim, medium, cfg, Rng(2));
  cfg.position = {2.0, 2.0};
  EXPECT_THROW(Node(sim, medium, cfg, Rng(3)), PreconditionError);
}

TEST(NodeTest, BasicFrameDelivery) {
  TestBench bench;
  std::optional<RxResult> got;
  bench.b->set_rx_handler([&](const RxResult& r) { got = r; });
  bench.b->enter_rx();
  dw::MacFrame f;
  f.type = dw::FrameType::Init;
  f.src = 0;
  bench.sim.after(SimTime::from_micros(10.0), [&] { bench.a->transmit_now(f); });
  bench.sim.run();
  ASSERT_TRUE(got.has_value());
  ASSERT_TRUE(got->frame.has_value());
  EXPECT_EQ(got->frame->type, dw::FrameType::Init);
  EXPECT_EQ(got->sync_tx_node_id, 0);
  EXPECT_EQ(got->frames_in_batch, 1);
  EXPECT_FALSE(bench.b->in_rx());  // auto-exits after a reception
}

TEST(NodeTest, RxTimestampReflectsPropagation) {
  TestBench bench(15.0);  // 15 m -> ~50 ns of flight
  std::optional<RxResult> got;
  bench.b->set_rx_handler([&](const RxResult& r) { got = r; });
  bench.b->enter_rx();
  dw::MacFrame f;
  f.type = dw::FrameType::Init;
  dw::DwTimestamp tx_time;
  bench.sim.after(SimTime::from_micros(10.0),
                  [&] { tx_time = bench.a->transmit_now(f); });
  bench.sim.run();
  ASSERT_TRUE(got.has_value());
  // Same-epoch clocks: RX - TX = time of flight (within jitter).
  const double tof = got->rx_timestamp.diff_seconds(tx_time).value();
  EXPECT_NEAR(tof, 15.0 / k::c_air, 1e-9);
}

TEST(NodeTest, NotListeningMeansNoDelivery) {
  TestBench bench;
  std::optional<RxResult> got;
  bench.b->set_rx_handler([&](const RxResult& r) { got = r; });
  dw::MacFrame f;
  f.type = dw::FrameType::Init;
  bench.sim.after(SimTime::from_micros(10.0), [&] { bench.a->transmit_now(f); });
  bench.sim.run();
  EXPECT_FALSE(got.has_value());
}

TEST(NodeTest, EnterRxAfterPreambleMissesFrame) {
  TestBench bench;
  std::optional<RxResult> got;
  bench.b->set_rx_handler([&](const RxResult& r) { got = r; });
  dw::MacFrame f;
  f.type = dw::FrameType::Init;
  bench.sim.after(SimTime::from_micros(10.0), [&] { bench.a->transmit_now(f); });
  // Preamble starts arriving at ~10 us; RX turned on at 50 us.
  bench.sim.after(SimTime::from_micros(50.0), [&] { bench.b->enter_rx(); });
  bench.sim.run();
  EXPECT_FALSE(got.has_value());
  bench.b->exit_rx();
}

TEST(NodeTest, DelayedTxHitsRequestedDeviceTime) {
  TestBench bench(5.0, 3, /*drift_a=*/2.0, /*drift_b=*/-1.5);
  std::optional<RxResult> got;
  bench.a->set_rx_handler([&](const RxResult& r) { got = r; });

  dw::MacFrame f;
  f.type = dw::FrameType::Resp;
  bench.sim.after(SimTime::from_micros(10.0), [&] {
    const dw::DwTimestamp target =
        bench.b->device_now().plus_seconds(Seconds(400e-6));
    const dw::DwTimestamp actual = bench.b->delayed_tx_time(target);
    f.tx_timestamp = actual;
    ASSERT_TRUE(bench.b->schedule_delayed_tx(f, actual));
    bench.a->enter_rx();
  });
  bench.sim.run();
  ASSERT_TRUE(got.has_value());
  // Truncation moves the TX at most 512 ticks (~8 ns) earlier.
  const auto requested = got->frame->tx_timestamp;
  EXPECT_EQ(requested.ticks() & 0x1FF, 0u);
}

TEST(NodeTest, UntruncatedDelayedTxWhenDisabled) {
  TestBench bench;
  bench.a->exit_rx();
  NodeConfig cfg;
  cfg.id = 99;
  cfg.position = {50.0, 25.0};
  cfg.delayed_tx_truncation = false;
  Node c(bench.sim, *bench.medium, cfg, Rng(9));
  const dw::DwTimestamp target(123456789);  // not 512-aligned
  EXPECT_EQ(c.delayed_tx_time(target), target);
}

TEST(NodeTest, ConcurrentFramesFormOneBatch) {
  // Three transmitters, one receiver: overlapping preambles must superpose
  // into a single RxResult with frames_in_batch == 3.
  Simulator sim;
  channel::ChannelModelParams ch;
  ch.enable_diffuse = false;
  ch.max_reflection_order = 0;
  Medium medium(sim,
                channel::ChannelModel(geom::Room::rectangular(100.0, 50.0), ch),
                MediumParams{}, Rng(11));
  NodeConfig rc;
  rc.id = 0;
  rc.position = {10.0, 25.0};
  Node rx(sim, medium, rc, Rng(12));
  std::vector<std::unique_ptr<Node>> txs;
  for (int i = 1; i <= 3; ++i) {
    NodeConfig tc;
    tc.id = i;
    tc.position = {10.0 + 3.0 * i, 25.0};
    txs.push_back(std::make_unique<Node>(sim, medium, tc, Rng(12 + i)));
  }
  std::optional<RxResult> got;
  rx.set_rx_handler([&](const RxResult& r) { got = r; });
  rx.enter_rx();
  dw::MacFrame f;
  f.type = dw::FrameType::Resp;
  for (auto& tx : txs)
    sim.at(SimTime::from_micros(10.0), [&tx, f] { tx->transmit_now(f); });
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->frames_in_batch, 3);
  // Sync on the earliest (closest) transmitter.
  EXPECT_EQ(got->sync_tx_node_id, 1);
}

TEST(NodeTest, EnergyAccountingPerOperation) {
  TestBench bench;
  dw::MacFrame f;
  f.type = dw::FrameType::Init;
  std::optional<RxResult> got;
  bench.b->set_rx_handler([&](const RxResult& r) { got = r; });
  bench.b->enter_rx();
  bench.sim.after(SimTime::from_micros(10.0), [&] { bench.a->transmit_now(f); });
  bench.sim.run();
  EXPECT_EQ(bench.a->energy().tx_count(), 1);
  EXPECT_GT(bench.a->energy().tx_time_s(), 150e-6);  // whole frame air time
  EXPECT_EQ(bench.b->energy().rx_count(), 1);
  EXPECT_GT(bench.b->energy().rx_time_s(), 150e-6);
  EXPECT_GT(bench.b->energy().energy_j(), bench.a->energy().energy_j());
}

TEST(NodeTest, CarrierOffsetEstimateTracksDrift) {
  TestBench bench(5.0, 21, /*drift_a=*/+4.0, /*drift_b=*/-3.0);
  std::optional<RxResult> got;
  bench.b->set_rx_handler([&](const RxResult& r) { got = r; });
  bench.b->enter_rx();
  dw::MacFrame f;
  f.type = dw::FrameType::Init;
  bench.sim.after(SimTime::from_micros(10.0), [&] { bench.a->transmit_now(f); });
  bench.sim.run();
  ASSERT_TRUE(got.has_value());
  // Remote(+4) minus local(-3) = +7 ppm.
  EXPECT_NEAR(got->carrier_offset_ppm, 7.0, 0.3);
}

TEST(NodeTest, OutOfRangeFrameNotDelivered) {
  // With the log-distance model and the default detection threshold, a node
  // 3 km away produces no detectable path.
  Simulator sim;
  channel::ChannelModelParams ch;
  ch.enable_diffuse = false;
  ch.max_reflection_order = 0;
  Medium medium(sim,
                channel::ChannelModel(geom::Room::rectangular(5000.0, 50.0), ch),
                MediumParams{}, Rng(31));
  NodeConfig ca;
  ca.id = 0;
  ca.position = {1.0, 25.0};
  NodeConfig cb;
  cb.id = 1;
  cb.position = {3001.0, 25.0};
  Node a(sim, medium, ca, Rng(32));
  Node b(sim, medium, cb, Rng(33));
  std::optional<RxResult> got;
  b.set_rx_handler([&](const RxResult& r) { got = r; });
  b.enter_rx();
  dw::MacFrame f;
  f.type = dw::FrameType::Init;
  sim.after(SimTime::from_micros(10.0), [&] { a.transmit_now(f); });
  sim.run();
  EXPECT_FALSE(got.has_value());
  b.exit_rx();
}

// The receiver draws its CIR noise on reception and renders the pulses
// only when a handler reads the CIR, so a handler that never reads it
// leaves every draw of the node's stream where a reading handler does.
TEST(NodeTest, UnreadCirLeavesEveryDrawUnchanged) {
  constexpr std::uint64_t kSeed = 11;
  const auto receive_twice = [](bool read_cir) {
    TestBench bench(10.0, kSeed);
    std::vector<RxResult> got;
    bench.b->set_rx_handler([&](const RxResult& r) {
      if (read_cir) (void)r.render_cir();
      got.push_back(r);
    });
    dw::MacFrame f;
    for (int i = 0; i < 2; ++i) {
      bench.sim.after(SimTime::from_micros(5.0), [&] { bench.b->enter_rx(); });
      bench.sim.after(SimTime::from_micros(10.0),
                      [&] { bench.a->transmit_now(f); });
      bench.sim.run();
    }
    return got;
  };
  const std::vector<RxResult> reader = receive_twice(true);
  const std::vector<RxResult> skipper = receive_twice(false);
  ASSERT_EQ(reader.size(), 2u);
  ASSERT_EQ(skipper.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(reader[i].rx_timestamp, skipper[i].rx_timestamp);
    EXPECT_EQ(reader[i].carrier_offset_ppm, skipper[i].carrier_offset_ppm);
    EXPECT_EQ(reader[i].cir_noise, skipper[i].cir_noise);
    EXPECT_EQ(reader[i].render_cir().taps, skipper[i].render_cir().taps);
  }
  // The second reception drew fresh noise: the stream moved on.
  EXPECT_NE(reader[0].cir_noise, reader[1].cir_noise);
  // The noise is the first draw of the receiver's stream (TestBench seeds
  // node b with seed + 2), taken before the timestamp and CFO draws, so
  // the first CIR is the one synthesize_cir draws from a fresh stream.
  Rng fresh(kSeed + 2);
  EXPECT_EQ(reader[0].render_cir().taps,
            dw::synthesize_cir(reader[0].cir_arrivals, reader[0].cir_params,
                               fresh)
                .taps);
  EXPECT_EQ(reader[0].render_cir().first_path_index,
            reader[0].cir_first_path_index);
}

TEST(NodeTest, TransmitWhileListeningThrows) {
  TestBench bench;
  bench.a->enter_rx();
  dw::MacFrame f;
  EXPECT_THROW(bench.a->transmit_now(f), PreconditionError);
  bench.a->exit_rx();
}

}  // namespace
}  // namespace uwb::sim
