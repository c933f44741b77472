// One concurrent-ranging attempt (Sect. III-IV): INIT broadcast, concurrent
// delayed RESPs in their RPM slots and pulse shapes, search-and-subtract on
// the superposed CIR, then Eq. 2 and Eq. 4. Internal to uwb_ranging:
// ConcurrentRangingScenario runs it once per attempt, NetworkRangingSession
// once per initiator of its sweep.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "ranging/session.hpp"

namespace uwb::ranging {

/// Where a node's own RNG stream is forked relative to its clock draws.
/// Only the scenario's initiator forks first, as it always has.
enum class NodeDrawOrder { kClockFirst, kStreamFirst };

/// Builds a session node from `nc` and the session RNG. This is the one
/// place the seed-to-node draws happen: clock epoch offset uniform(0, 17) s
/// (the 40-bit counter's ~17.2 s period), crystal drift N(0, sigma) ppm,
/// and the node's own RNG stream (rng.fork()), in `order`.
std::unique_ptr<sim::Node> make_session_node(
    sim::Simulator& sim, sim::Medium& medium, sim::NodeConfig nc,
    double drift_sigma_ppm, Rng& rng,
    NodeDrawOrder order = NodeDrawOrder::kClockFirst);

/// A responder of one attempt: its radio and the ID that selects its RPM
/// slot and pulse shape (assign_responder).
struct AttemptResponder {
  sim::Node* node = nullptr;
  int id = -1;
};

/// Settings of one attempt. The pointers must outlive the attempt; the
/// injectors and the attack detector are optional (null = inert).
struct AttemptSettings {
  const ConcurrentRangingConfig* ranging = nullptr;
  const SearchSubtractDetector* detector = nullptr;
  /// Responses the detector extracts from the CIR.
  int max_responses = 0;
  /// Apply the receiver's CFO estimate to Eq. 2.
  bool cfo_correction = true;
  bool slot_aware_selection = false;
  fault::FaultInjector* injector = nullptr;
  fault::AttackInjector* attacker = nullptr;
  const AttackDetector* attack_detector = nullptr;
};

/// What one attempt leaves behind.
struct RangingAttempt {
  /// Everything but `attempts`, which is the caller's.
  RoundOutcome out;
  /// Causal chain of the sync frame (0: no batch).
  std::uint64_t sync_chain = 0;
};

/// Runs one attempt with `initiator` initiating and `responders` (ascending
/// id) answering, advancing `sim` to the initiator's RX deadline. The RX
/// handlers it installs are removed before it returns. The responders stay
/// in whatever radio state the attempt left them.
RangingAttempt run_ranging_attempt(sim::Simulator& sim, sim::Node& initiator,
                                   std::span<const AttemptResponder> responders,
                                   const AttemptSettings& settings);

}  // namespace uwb::ranging
