#include "sim/node.hpp"

#include <algorithm>
#include <cmath>

#include "common/expects.hpp"
#include "common/units.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/obs.hpp"

namespace uwb::sim {

dw::CirEstimate RxResult::render_cir() const {
  UWB_OBS_SPAN("cir_synthesis");
  dw::CirEstimate cir = dw::render_cir(cir_arrivals, cir_params, cir_noise);
  cir.first_path_index = cir_first_path_index;
  return cir;
}

namespace {
/// Processing margin after the last sample of a frame before the receiver
/// reports the result.
const SimTime kFinalizeMargin = SimTime::from_micros(2.0);
}  // namespace

Node::Node(Simulator& simulator, Medium& medium, NodeConfig config, Rng rng)
    : sim_(simulator), medium_(medium), config_(config),
      clock_(config.clock_epoch_offset, config.drift_ppm), rng_(std::move(rng)) {
  config_.phy.validate();
  UWB_EXPECTS(config_.cir_anchor_taps >= 0 &&
              config_.cir_anchor_taps < config_.cir.length);
  medium_.register_node(*this);
}

SimTime Node::local_duration(Seconds local) const {
  return SimTime::from_seconds(local.value() / (1.0 + config_.drift_ppm * 1e-6));
}

dw::DwTimestamp Node::device_now() const { return clock_.device_time(sim_.now()); }

void Node::enter_rx() {
  UWB_EXPECTS(!rx_enabled_);
  rx_enabled_ = true;
  rx_since_ = sim_.now();
  pending_.clear();
}

void Node::exit_rx() {
  if (!rx_enabled_) return;
  energy_.add_rx((sim_.now() - rx_since_).seconds());
  rx_enabled_ = false;
  if (UWB_FR_ACTIVE()) {
    // Frames still pending when the protocol turns the radio off never
    // finalize — record where each chain died.
    for (const AirFrame& af : pending_) {
      UWB_FR_EVENT(.kind = obs::FrKind::kRx, .name = "rx_abandoned",
                   .chain = af.chain, .node = config_.id,
                   .peer = af.tx_node_id);
    }
  }
  pending_.clear();
}

void Node::transmit_at(const dw::MacFrame& frame, SimTime preamble_start_global) {
  const Seconds shr_global =
      to_seconds(local_duration(Seconds(config_.phy.shr_duration_s())));
  const Seconds frame_global = to_seconds(local_duration(
      Seconds(config_.phy.frame_duration_s(frame.payload_bytes()))));
  // The wave leaves the antenna half the antenna delay after the digital
  // timestamp reference (the other half applies on reception).
  const SimTime radiated =
      preamble_start_global + to_sim_time(config_.antenna_delay / 2.0);
  medium_.transmit(config_.id, frame, config_.phy.tc_pgdelay, radiated,
                   shr_global, frame_global, config_.drift_ppm);
  energy_.add_tx(frame_global.value());
}

dw::DwTimestamp Node::transmit_now(const dw::MacFrame& frame) {
  UWB_EXPECTS(!rx_enabled_);
  const SimTime preamble_start = sim_.now();
  transmit_at(frame, preamble_start);
  const SimTime rmarker =
      preamble_start + local_duration(Seconds(config_.phy.shr_duration_s()));
  return clock_.device_time(rmarker);
}

dw::DwTimestamp Node::delayed_tx_time(dw::DwTimestamp rmarker_target) const {
  if (!config_.delayed_tx_truncation) return rmarker_target;
  return dw::quantize_delayed_tx(rmarker_target);
}

void Node::apply_clock_glitch(double drift_step_ppm, double epoch_jump_s) {
  clock_ = dw::ClockModel(
      clock_.epoch_offset() + SimTime::from_seconds(epoch_jump_s),
      clock_.drift_ppm() + drift_step_ppm);
  // local_duration() and the medium's CFO ground truth read config_, which
  // must stay consistent with the clock model.
  config_.drift_ppm = clock_.drift_ppm();
}

bool Node::schedule_delayed_tx(dw::MacFrame frame,
                               dw::DwTimestamp quantized_rmarker) {
  UWB_EXPECTS(quantized_rmarker == delayed_tx_time(quantized_rmarker));
  const SimTime rmarker_global =
      clock_.global_time_of(quantized_rmarker, sim_.now());
  const SimTime preamble_start =
      rmarker_global - local_duration(Seconds(config_.phy.shr_duration_s()));
  // The target (minus the preamble lead-in) is already in the past: the
  // hardware raises HPDWARN and the firmware aborts the transmission — a
  // runtime condition, not a precondition violation.
  if (preamble_start < sim_.now()) {
    UWB_FR_EVENT(.kind = obs::FrKind::kTx, .name = "delayed_tx_abort",
                 .node = config_.id, .detail = "target_in_past");
    return false;
  }
  fault::FaultInjector* injector = medium_.fault_injector();
  if (injector != nullptr && injector->abort_delayed_tx(config_.id))
    return false;
  sim_.at(preamble_start, [this, frame = std::move(frame), preamble_start]() {
    transmit_at(frame, preamble_start);
  });
  return true;
}

void Node::on_air_frame(AirFrame af) {
  if (!rx_enabled_ || sim_.now() < rx_since_) {
    UWB_FR_EVENT(.kind = obs::FrKind::kRx, .name = "rx_radio_off",
                 .chain = af.chain, .node = config_.id, .peer = af.tx_node_id);
    return;
  }
  if (pending_.empty()) {
    // An injected preamble miss on a would-be leader means the receiver
    // never locks: the frame is lost outright (its energy superposes only
    // when another frame already holds the lock). The injector already
    // recorded the fault event for this chain.
    if (af.preamble_missed) return;
    // Batch leader: the receiver locks on and reports once the frame ends.
    UWB_FR_EVENT(.kind = obs::FrKind::kRx, .name = "rx_batch_lead",
                 .chain = af.chain, .node = config_.id, .peer = af.tx_node_id,
                 .v0 = {"first_path_amp", af.first_path_amplitude});
    sim_.at(af.frame_end_arrival + kFinalizeMargin, [this]() { finalize_batch(); });
    // clear() keeps capacity, so pending_ reallocates only while ramping
    // to the largest batch seen; steady state is allocation-free.
    pending_.push_back(std::move(af));  // uwb-lint: allow(hot-path-alloc)
    return;
  }
  // Later frames join the batch only if their preamble overlaps the
  // leader's synchronisation header; otherwise the radio is busy and the
  // frame is lost.
  if (af.preamble_start_arrival <= pending_.front().rmarker_arrival) {
    UWB_FR_EVENT(.kind = obs::FrKind::kRx, .name = "rx_batch_join",
                 .chain = af.chain, .node = config_.id, .peer = af.tx_node_id,
                 .v0 = {"batch_size", static_cast<double>(pending_.size() + 1)});
    // Same steady-state-capacity argument as the batch-leader push above.
    pending_.push_back(std::move(af));  // uwb-lint: allow(hot-path-alloc)
  } else {
    UWB_FR_EVENT(.kind = obs::FrKind::kRx, .name = "rx_late_for_batch",
                 .chain = af.chain, .node = config_.id, .peer = af.tx_node_id);
  }
}

void Node::finalize_batch() {
  if (!rx_enabled_ || pending_.empty()) return;

  // Sync selection: earliest detectable preamble wins unless a much
  // stronger overlapping frame captures the correlator. Frames whose
  // preamble detection was faulted out can never take the lock (the leader
  // is guaranteed un-missed by on_air_frame).
  const AirFrame* sync = &pending_.front();
  for (const AirFrame& af : pending_) {
    if (af.preamble_missed) continue;
    if (af.first_path_amplitude >
        sync->first_path_amplitude * config_.capture_amplitude_ratio)
      sync = &af;
  }

  // Superpose every tap of every batch frame into the CIR window anchored
  // `cir_anchor_taps` before the sync frame's first path.
  const double window_start_s =
      sync->preamble_start_arrival.seconds() -
      static_cast<double>(config_.cir_anchor_taps) * config_.cir.ts_s;
  std::vector<dw::CirArrival> arrivals;
  std::size_t n_taps = 0;
  for (const AirFrame& af : pending_) n_taps += af.taps.size();
  arrivals.reserve(n_taps);
  for (const AirFrame& af : pending_) {
    const double tx_ref_s =
        af.preamble_start_arrival.seconds() - af.first_detectable_delay.value();
    for (const channel::Tap& tap : af.taps) {
      dw::CirArrival a;
      a.time_into_window_s = tx_ref_s + tap.delay_s - window_start_s;
      a.amplitude = tap.amplitude;
      a.tc_pgdelay = af.tc_pgdelay;
      arrivals.push_back(a);
    }
  }

  RxResult result;
  {
    // The noise is drawn on reception, before the timestamp and CFO draws,
    // so every later draw of rng_ is the same whether or not a handler
    // reads the CIR; the pulse render waits for a reader
    // (RxResult::render_cir).
    UWB_OBS_SPAN("cir_noise");
    result.cir_noise = dw::draw_cir_noise(config_.cir, rng_);
  }
  result.cir_arrivals = std::move(arrivals);
  result.cir_params = config_.cir;
  result.cir_first_path_index = static_cast<double>(config_.cir_anchor_taps);
  result.rx_timestamp =
      dw::noisy_rx_timestamp(config_.timestamping, sync->tc_pgdelay,
                             clock_.device_time(sync->rmarker_arrival), rng_)
          .plus_seconds(config_.antenna_delay / 2.0);
  result.carrier_offset_ppm = sync->tx_drift_ppm - config_.drift_ppm +
                              rng_.normal(0.0, config_.cfo_noise_ppm);
  result.frames_in_batch = static_cast<int>(pending_.size());
  result.sync_tx_node_id = sync->tx_node_id;
  result.sync_chain = sync->chain;
  result.batch_tx_node_ids.reserve(pending_.size());
  for (const AirFrame& af : pending_)
    result.batch_tx_node_ids.push_back(af.tx_node_id);
  result.completed_at = sim_.now();

  // Payload decode: the sync frame survives if its first-path power clears
  // the configured SIR against the strongest other frame. (Concurrent RESP
  // payloads are chip-offset copies, so corruption is dominated by the
  // strongest colliding frame rather than the incoherent sum — consistent
  // with the paper's observation that one payload stays decodable even with
  // several equal-power responders.)
  const auto frame_power = [](const AirFrame& af) {
    double p = 0.0;
    for (const channel::Tap& tap : af.taps) p += std::norm(tap.amplitude);
    return p;
  };
  double interference = 0.0;
  for (const AirFrame& af : pending_) {
    if (&af == sync) continue;
    interference = std::max(interference, frame_power(af));
  }
  const double sync_power = frame_power(*sync);
  const double sir_db = interference == 0.0
                            ? 0.0
                            : linear_to_db(sync_power / interference);
  bool decodable =
      interference == 0.0 || sir_db >= config_.decode_min_sir_db;
  if (!decodable) {
    UWB_FR_EVENT(.kind = obs::FrKind::kRx, .name = "rx_decode_failed",
                 .chain = sync->chain, .node = config_.id,
                 .peer = sync->tx_node_id, .detail = "low_sir",
                 .v0 = {"sir_db", sir_db},
                 .v1 = {"min_sir_db", config_.decode_min_sir_db});
  }
  // Injected CRC fault: the payload demodulates but its FCS fails, so the
  // MAC discards it. Either failure path surfaces as crc_error.
  fault::FaultInjector* injector = medium_.fault_injector();
  if (decodable && injector != nullptr &&
      injector->corrupt_crc(config_.id, sync->chain))
    decodable = false;
  if (decodable)
    result.frame = sync->frame;
  else
    result.crc_error = true;

  UWB_FR_EVENT(.kind = obs::FrKind::kRx, .name = "rx_batch_complete",
               .chain = sync->chain, .node = config_.id,
               .peer = sync->tx_node_id,
               .detail = decodable ? "decoded" : "crc_error",
               .v0 = {"frames_in_batch",
                      static_cast<double>(result.frames_in_batch)});

  energy_.add_rx((sim_.now() - rx_since_).seconds());
  rx_enabled_ = false;
  pending_.clear();

  if (rx_handler_) {
    // Events recorded while the protocol reacts to this reception (delayed
    // TX arming, fault decisions, detection) inherit the sync chain.
    UWB_FR_CHAIN_SCOPE(result.sync_chain);
    rx_handler_(result);
  }
}

}  // namespace uwb::sim
