#include "ranging/session.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/constants.hpp"
#include "common/expects.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/obs.hpp"
#include "ranging/round.hpp"

namespace uwb::ranging {

namespace {
constexpr int kInitiatorId = -1;
/// derive_seed stream tag separating the fault injector's RNG streams from
/// every simulation stream (which fork from Rng(config.seed) directly).
constexpr std::uint64_t kFaultSeedStream = 0xFA170001u;
/// Stream tag of the attack injector: disjoint from the fault and
/// simulation streams so an attack plan perturbs neither.
constexpr std::uint64_t kAttackSeedStream = 0xA77AC001u;
}  // namespace

const char* to_string(RangingStatus status) {
  switch (status) {
    case RangingStatus::kOk: return "ok";
    case RangingStatus::kNoPreamble: return "no_preamble";
    case RangingStatus::kCrcError: return "crc_error";
    case RangingStatus::kLateTxAbort: return "late_tx_abort";
    case RangingStatus::kTimedOut: return "timed_out";
    case RangingStatus::kSuspect: return "suspect";
  }
  return "unknown";
}

void ResilienceConfig::validate() const {
  UWB_EXPECTS(max_retries >= 0);
}

Status ConcurrentRangingScenario::validate_config(const ScenarioConfig& config) {
  const auto invalid = [](std::string message) {
    return Status::error(ErrorCode::kInvalidConfig, std::move(message));
  };
  try {
    config.ranging.validate();
    config.resilience.validate();
    config.fault.validate();
    config.attack.validate();
    config.attack_detector.validate();
  } catch (const PreconditionError& e) {
    return invalid(e.what());
  }
  if (config.responders.empty()) return invalid("no responders configured");
  std::set<int> ids;
  for (const ResponderSpec& spec : config.responders) {
    if (spec.id < 0 || spec.id > 255)
      return invalid("responder id " + std::to_string(spec.id) +
                     " outside [0, 255]");
    if (spec.id >= config.ranging.max_responders())
      return invalid("responder id " + std::to_string(spec.id) +
                     " exceeds the " +
                     std::to_string(config.ranging.max_responders()) +
                     " addressable ids of " +
                     std::to_string(config.ranging.num_slots) + " slots x " +
                     std::to_string(config.ranging.num_pulse_shapes()) +
                     " pulse shapes");
    if (!ids.insert(spec.id).second)
      return invalid("duplicate responder id " + std::to_string(spec.id));
  }
  // A compromised node must exist to be compromised: every attacker id has
  // to name a configured responder.
  for (const fault::AttackSpec& spec : config.attack.specs)
    if (ids.count(spec.attacker_id) == 0)
      return invalid("attacker id " + std::to_string(spec.attacker_id) +
                     " is not a configured responder");
  return Status::success();
}

Result<std::unique_ptr<ConcurrentRangingScenario>>
ConcurrentRangingScenario::create(ScenarioConfig config) {
  Status status = validate_config(config);
  if (!status.ok()) return status;
  return std::make_unique<ConcurrentRangingScenario>(std::move(config));
}

ConcurrentRangingScenario::ConcurrentRangingScenario(ScenarioConfig config)
    : config_(std::move(config)), rng_(config_.seed),
      detector_(DetectorConfig{config_.ranging.shape_registers}) {
  config_.ranging.validate();
  config_.resilience.validate();
  UWB_EXPECTS(!config_.responders.empty());

  medium_ = std::make_unique<sim::Medium>(
      sim_, channel::ChannelModel(config_.room, config_.channel),
      config_.medium, rng_.fork());

  // The injector never touches rng_: its streams derive from the scenario
  // seed through an independent splitmix64 stream, so an inert plan leaves
  // every simulation draw — and therefore every result — byte-identical.
  if (config_.fault.active()) {
    injector_ = std::make_unique<fault::FaultInjector>(
        config_.fault, derive_seed(config_.seed, kFaultSeedStream));
    medium_->set_fault_injector(injector_.get());
  }

  // Same contract as the fault injector: attack streams derive from the
  // scenario seed through a disjoint tag, so an inert plan (and the inert
  // default) stays byte-identical — including every CIR tap.
  if (config_.attack.active()) {
    attacker_ = std::make_unique<fault::AttackInjector>(
        config_.attack, derive_seed(config_.seed, kAttackSeedStream));
    medium_->set_attack_injector(attacker_.get());
  }
  if (config_.attack_detector.enabled)
    attack_detector_ = std::make_unique<AttackDetector>(config_.attack_detector);

  const auto make_node_config = [&](int id, geom::Vec2 pos) {
    sim::NodeConfig nc;
    nc.id = id;
    nc.position = pos;
    nc.phy = config_.phy;
    nc.cir = config_.cir;
    nc.timestamping = config_.timestamping;
    nc.delayed_tx_truncation = config_.delayed_tx_truncation;
    return nc;
  };

  // The initiator forks its own stream before its clock draws, the order
  // this scenario has always drawn in (see NodeDrawOrder).
  initiator_ = make_session_node(
      sim_, *medium_,
      make_node_config(kInitiatorId, config_.initiator_position),
      config_.clock_drift_sigma_ppm, rng_, NodeDrawOrder::kStreamFirst);

  for (const ResponderSpec& spec : config_.responders) {
    UWB_EXPECTS(spec.id >= 0 && spec.id <= 255);
    auto nc = make_node_config(spec.id, spec.position);
    nc.phy.tc_pgdelay =
        assign_responder(spec.id, config_.ranging).shape_register;
    auto node = make_session_node(sim_, *medium_, nc,
                                  config_.clock_drift_sigma_ppm, rng_);
    const bool inserted = responders_.emplace(spec.id, std::move(node)).second;
    UWB_EXPECTS(inserted);
  }
  // Ascending id: the fault injector's per-responder draw order.
  for (const auto& [id, node] : responders_)
    attempt_responders_.push_back({node.get(), id});
}

ConcurrentRangingScenario::~ConcurrentRangingScenario() = default;

sim::Node& ConcurrentRangingScenario::responder_node(int responder_id) {
  const auto it = responders_.find(responder_id);
  UWB_EXPECTS(it != responders_.end());
  return *it->second;
}

Meters ConcurrentRangingScenario::true_distance(int responder_id) const {
  const auto it = responders_.find(responder_id);
  UWB_EXPECTS(it != responders_.end());
  return Meters(
      geom::distance(config_.initiator_position, it->second->position()));
}

void ConcurrentRangingScenario::set_initiator_position(geom::Vec2 position) {
  config_.initiator_position = position;
  initiator_->set_position(position);
}

RoundOutcome ConcurrentRangingScenario::run_round() {
  UWB_OBS_SPAN("session_round");
  // Every event recorded while this round runs carries (scenario seed,
  // round index); the context clock starts at the current simulated time
  // and follows the simulator's dispatch loop from there.
  UWB_FR_SESSION_SCOPE(config_.seed, static_cast<std::uint32_t>(stats_.rounds));
  UWB_FR_SET_TIME(sim_.now());
  AttemptSettings settings;
  settings.ranging = &config_.ranging;
  settings.detector = &detector_;
  settings.max_responses = config_.detect_max_responses > 0
                               ? config_.detect_max_responses
                               : static_cast<int>(responders_.size());
  settings.cfo_correction = config_.cfo_correction;
  settings.slot_aware_selection = config_.slot_aware_selection;
  settings.injector = injector_.get();
  settings.attacker = attacker_.get();
  settings.attack_detector = attack_detector_.get();

  const int max_attempts = 1 + config_.resilience.max_retries;
  RangingAttempt last;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    if (attempt > 1) {
      // Deterministic exponential backoff in simulated time before the
      // next attempt: backoff * factor^(k-1) for retry k.
      const Seconds backoff =
          kRetryBackoff * std::pow(kBackoffFactor, attempt - 2);
      sim_.run_until(sim_.now() + to_sim_time(backoff));
      ++stats_.retry_attempts;
      UWB_OBS_COUNT("session_retry_attempts", 1);
    }
    UWB_FR_EVENT(.kind = obs::FrKind::kStatus, .name = "attempt_begin",
                 .node = kInitiatorId,
                 .v0 = {"attempt", static_cast<double>(attempt)});
    last = run_ranging_attempt(sim_, *initiator_, attempt_responders_,
                               settings);
    last.out.attempts = attempt;
    if (last.out.payload_decoded) break;
  }

  RoundOutcome& out = last.out;
  if (UWB_FR_ACTIVE()) {
    // Terminal event of every responder's chain this round: the status the
    // caller sees. explain_session.py anchors its narratives here.
    for (const ResponderReport& rep : out.responder_reports) {
      UWB_FR_EVENT(.kind = obs::FrKind::kStatus, .name = "responder_status",
                   .node = rep.id, .peer = kInitiatorId,
                   .detail = to_string(rep.status),
                   .v0 = {"attempts", static_cast<double>(out.attempts)});
    }
    UWB_FR_EVENT(.kind = obs::FrKind::kStatus, .name = "round_summary",
                 .chain = last.sync_chain,
                 .node = kInitiatorId,
                 .peer = out.payload_decoded ? out.sync_responder_id
                                             : obs::kFrNoNode,
                 .detail = out.payload_decoded  ? "decoded"
                           : out.completed      ? "no_payload"
                                                : "no_batch",
                 .v0 = {"d_twr_m", out.d_twr_m},
                 .v1 = {"frames_in_batch",
                        static_cast<double>(out.frames_in_batch)},
                 .v2 = {"attempts", static_cast<double>(out.attempts)});
  }
  ++stats_.rounds;
  const auto suspects = static_cast<std::uint64_t>(
      std::count_if(out.responder_reports.begin(), out.responder_reports.end(),
                    [](const ResponderReport& r) {
                      return r.status == RangingStatus::kSuspect;
                    }));
  if (suspects > 0) {
    stats_.suspect_reports += suspects;
    ++stats_.suspect_rounds;
    UWB_OBS_COUNT("session_suspect_reports", suspects);
  }
  if (out.degraded) {
    ++stats_.degraded_rounds;
    UWB_OBS_COUNT("session_degraded_rounds", 1);
  }
  if (!out.payload_decoded) {
    ++stats_.failed_rounds;
    UWB_OBS_COUNT("session_failed_rounds", 1);
  }
  return std::move(out);
}

}  // namespace uwb::ranging
