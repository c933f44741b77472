#include "ranging/network.hpp"

#include "common/expects.hpp"
#include "ranging/round.hpp"

namespace uwb::ranging {

namespace {
/// Per-node crystal drift is drawn from N(0, sigma) [ppm].
constexpr double kClockDriftSigmaPpm = 1.0;
}  // namespace

Status NetworkRangingSession::validate_config(const NetworkConfig& config) {
  const auto invalid = [](std::string message) {
    return Status::error(ErrorCode::kInvalidConfig, std::move(message));
  };
  try {
    config.ranging.validate();
  } catch (const PreconditionError& e) {
    return invalid(e.what());
  }
  if (config.node_positions.size() < 2)
    return invalid("network needs at least 2 nodes, got " +
                   std::to_string(config.node_positions.size()));
  const int responders = static_cast<int>(config.node_positions.size()) - 1;
  if (responders > config.ranging.max_responders())
    return invalid(std::to_string(config.node_positions.size()) +
                   " nodes need " + std::to_string(responders) +
                   " responder ids per round but the slot/shape plan only " +
                   "addresses " +
                   std::to_string(config.ranging.max_responders()));
  return Status::success();
}

NetworkRangingSession::NetworkRangingSession(NetworkConfig config)
    : config_(std::move(config)), rng_(config_.seed),
      detector_(DetectorConfig{config_.ranging.shape_registers}) {
  config_.ranging.validate();
  UWB_EXPECTS(config_.node_positions.size() >= 2);
  UWB_EXPECTS(static_cast<int>(config_.node_positions.size()) - 1 <=
              config_.ranging.max_responders());

  medium_ = std::make_unique<sim::Medium>(
      sim_, channel::ChannelModel(config_.room, channel::ChannelModelParams{}),
      sim::MediumParams{}, rng_.fork());

  for (std::size_t i = 0; i < config_.node_positions.size(); ++i) {
    sim::NodeConfig nc;
    nc.id = static_cast<int>(i);
    nc.position = config_.node_positions[i];
    nodes_.push_back(
        make_session_node(sim_, *medium_, nc, kClockDriftSigmaPpm, rng_));
  }
}

NetworkRangingSession::~NetworkRangingSession() = default;

sim::Node& NetworkRangingSession::node(int index) {
  UWB_EXPECTS(index >= 0 && index < node_count());
  return *nodes_[static_cast<std::size_t>(index)];
}

Meters NetworkRangingSession::true_distance(int i, int j) const {
  UWB_EXPECTS(i >= 0 && i < static_cast<int>(config_.node_positions.size()));
  UWB_EXPECTS(j >= 0 && j < static_cast<int>(config_.node_positions.size()));
  return Meters(
      geom::distance(config_.node_positions[static_cast<std::size_t>(i)],
                     config_.node_positions[static_cast<std::size_t>(j)]));
}

NetworkRound NetworkRangingSession::run_round(int initiator_index) {
  UWB_EXPECTS(initiator_index >= 0 && initiator_index < node_count());

  // Every other node responds; responder ids count up in node order,
  // skipping the initiator.
  std::vector<AttemptResponder> responders;
  responders.reserve(static_cast<std::size_t>(node_count() - 1));
  for (int i = 0; i < node_count(); ++i) {
    if (i == initiator_index) continue;
    const int rid = static_cast<int>(responders.size());
    sim::Node& responder = node(i);
    responder.set_tc_pgdelay(
        assign_responder(rid, config_.ranging).shape_register);
    responders.push_back({&responder, rid});
  }

  AttemptSettings settings;
  settings.ranging = &config_.ranging;
  settings.detector = &detector_;
  settings.max_responses = 2 * (node_count() - 1);
  settings.cfo_correction = true;
  settings.slot_aware_selection = true;
  const RangingAttempt attempt =
      run_ranging_attempt(sim_, node(initiator_index), responders, settings);

  // Leave every responder idle for the next round.
  for (const AttemptResponder& r : responders) r.node->exit_rx();

  NetworkRound round;
  round.initiator = initiator_index;
  round.completed = attempt.out.payload_decoded;
  round.frames_in_batch = attempt.out.frames_in_batch;
  round.distances.assign(static_cast<std::size_t>(node_count()), std::nullopt);
  for (const ResponderEstimate& est : attempt.out.estimates) {
    if (est.responder_id < 0 || est.responder_id >= node_count() - 1) continue;
    const sim::Node& responder =
        *responders[static_cast<std::size_t>(est.responder_id)].node;
    auto& slot = round.distances[static_cast<std::size_t>(responder.id())];
    if (!slot.has_value()) slot = est.distance_m;
  }
  return round;
}

NetworkSweep NetworkRangingSession::run_full_sweep() {
  NetworkSweep sweep;
  const double start_s = sim_.now().seconds();
  sweep.matrix.assign(
      static_cast<std::size_t>(node_count()),
      std::vector<std::optional<double>>(static_cast<std::size_t>(node_count())));
  for (int i = 0; i < node_count(); ++i) {
    const NetworkRound round = run_round(i);
    if (round.completed) ++sweep.completed_rounds;
    sweep.matrix[static_cast<std::size_t>(i)] = round.distances;
  }
  sweep.duration_s = sim_.now().seconds() - start_s;
  for (const auto& n : nodes_) sweep.total_energy_j += n->energy().energy_j();
  return sweep;
}

}  // namespace uwb::ranging
