#include "ranging/round.hpp"

#include <algorithm>
#include <optional>
#include <set>

#include "obs/flight_recorder.hpp"
#include "obs/obs.hpp"
#include "ranging/twr.hpp"

namespace uwb::ranging {

namespace {

/// What the attempt's RX handlers write while the simulator runs.
struct AttemptState {
  sim::Simulator& sim;
  sim::Node& initiator;
  const AttemptSettings& settings;
  std::optional<sim::RxResult> rx;
  dw::DwTimestamp t_tx_init;
  std::vector<ResponderTruth> truths;
  std::set<int> muted;
  std::set<int> late_aborted;
};

/// Removes the attempt's RX handlers when it ends, also when a handler
/// throws, so that none outlives the AttemptState it writes.
struct HandlerScope {
  sim::Node& initiator;
  std::span<const AttemptResponder> responders;
  ~HandlerScope() {
    initiator.set_rx_handler(nullptr);
    for (const AttemptResponder& r : responders)
      r.node->set_rx_handler(nullptr);
  }
};

/// A responder's answer to the INIT: the delayed RESP in its RPM slot, and
/// the ground truth of when it left the antenna.
void reply(AttemptState& st, const AttemptResponder& responder,
           const sim::RxResult& r) {
  if (!r.frame || r.frame->type != dw::FrameType::Init) return;
  const AttemptSettings& s = st.settings;
  sim::Node& node = *responder.node;
  const SlotAssignment a = assign_responder(responder.id, *s.ranging);
  // Injected MCU scheduling jitter perturbs the programmed reply delay
  // before the hardware quantisation, like a slow interrupt handler would.
  const double jitter_s =
      s.injector != nullptr ? s.injector->reply_jitter_s(responder.id) : 0.0;
  const dw::DwTimestamp target = r.rx_timestamp.plus_seconds(
      Seconds(s.ranging->response_delay_s + a.extra_delay_s + jitter_s));
  const dw::DwTimestamp actual = node.delayed_tx_time(target);

  dw::MacFrame resp;
  resp.type = dw::FrameType::Resp;
  resp.src = static_cast<std::uint16_t>(node.id());
  resp.responder_id = static_cast<std::uint8_t>(responder.id);
  resp.rx_timestamp = r.rx_timestamp;
  resp.tx_timestamp = actual;
  if (s.attacker != nullptr) {
    // Clock-skew attack: a compromised responder reports a forged TX
    // timestamp. Only the *payload* lies — the frame still leaves the
    // antenna at `actual`, so truths and arrivals are untouched.
    const double bias_s = s.attacker->reply_timestamp_bias_s(responder.id);
    if (bias_s != 0.0)
      resp.tx_timestamp = actual.plus_seconds(Seconds(bias_s));
  }
  if (!node.schedule_delayed_tx(resp, actual)) {
    // HPDWARN late abort (natural or injected): no frame leaves the
    // antenna; the round degrades instead of the run aborting.
    st.late_aborted.insert(responder.id);
    return;
  }

  ResponderTruth truth;
  truth.id = responder.id;
  truth.true_distance_m =
      geom::distance(st.initiator.position(), node.position());
  truth.resp_tx_rmarker = node.clock().global_time_of(actual, st.sim.now());
  truth.resp_arrival =
      truth.resp_tx_rmarker +
      to_sim_time(tof_from_distance(Meters(truth.true_distance_m)));
  st.truths.push_back(truth);
}

/// The initiator's side of a received batch: Eq. 2 on the decoded RESP,
/// search-and-subtract on the CIR, Eq. 4 for every detected response.
void process_batch(AttemptState& st,
                   std::span<const AttemptResponder> responders,
                   RoundOutcome& out) {
  const AttemptSettings& s = st.settings;
  const ConcurrentRangingConfig& ranging = *s.ranging;
  sim::RxResult& r = *st.rx;
  out.completed = true;
  out.cir = r.render_cir();
  out.frames_in_batch = r.frames_in_batch;
  out.crc_error = r.crc_error;

  if (!r.frame || r.frame->type != dw::FrameType::Resp) return;
  out.payload_decoded = true;
  out.sync_responder_id = r.frame->responder_id;

  // TWR math and CIR detection below are consequences of the sync frame's
  // reception — their events belong to its chain.
  UWB_FR_CHAIN_SCOPE(r.sync_chain);

  TwrTimestamps ts;
  ts.t_tx_init = st.t_tx_init;
  ts.t_rx_resp = r.frame->rx_timestamp;
  ts.t_tx_resp = r.frame->tx_timestamp;
  ts.t_rx_init = r.rx_timestamp;
  out.d_twr_m =
      ss_twr_distance(ts, s.cfo_correction ? r.carrier_offset_ppm : 0.0)
          .value();

  {
    UWB_OBS_SPAN("detect");
    out.detections =
        s.detector->detect(out.cir.taps, out.cir.ts_s, s.max_responses);
  }
  const SlotAssignment sync = assign_responder(out.sync_responder_id, ranging);
  {
    UWB_OBS_SPAN("interpret_responses");
    out.estimates =
        interpret_responses(out.detections, ranging, out.d_twr_m, sync.slot);
  }
  if (s.attack_detector != nullptr) {
    // Cross-check the round before slot-aware selection collapses the
    // estimates: the detector needs the uncollapsed 1:1 detection/estimate
    // pairing. Runs inside the sync chain scope, so verdict events land on
    // the chain explain_session.py walks for this round.
    UWB_OBS_SPAN("attack_detect");
    std::set<int> configured_ids;
    for (const AttemptResponder& responder : responders)
      configured_ids.insert(responder.id);
    RoundView view;
    view.cfo_ppm = r.carrier_offset_ppm;
    view.reply_s = ts.t_tx_resp.diff_seconds(ts.t_rx_resp).value();
    view.programmed_reply_s = ranging.response_delay_s + sync.extra_delay_s;
    view.sync_responder_id = out.sync_responder_id;
    view.cir = &out.cir;
    view.detections = &out.detections;
    view.estimates = &out.estimates;
    view.ranging = &ranging;
    view.configured_ids = &configured_ids;
    out.verdicts = s.attack_detector->detect(view);
  }
  if (s.slot_aware_selection)
    out.estimates = select_slot_responses(out.estimates, ranging);
}

/// Per-responder status of the attempt, and its degraded flag.
void fill_reports(const AttemptState& st,
                  std::span<const AttemptResponder> responders,
                  RoundOutcome& out) {
  const auto transmitted = [&out](int id) {
    return std::any_of(out.truths.begin(), out.truths.end(),
                       [id](const ResponderTruth& t) { return t.id == id; });
  };
  const auto in_batch = [&st](int id) {
    if (!st.rx) return false;
    const auto& ids = st.rx->batch_tx_node_ids;
    return std::find(ids.begin(), ids.end(), id) != ids.end();
  };

  out.responder_reports.reserve(responders.size());
  for (const AttemptResponder& responder : responders) {
    const int id = responder.id;
    ResponderReport rep;
    rep.id = id;
    if (st.muted.count(id) != 0) {
      rep.status = RangingStatus::kTimedOut;  // radio off: silence, timeout
    } else if (st.late_aborted.count(id) != 0) {
      rep.status = RangingStatus::kLateTxAbort;
    } else if (!transmitted(id)) {
      rep.status = RangingStatus::kNoPreamble;  // missed the INIT preamble
    } else if (!out.completed) {
      rep.status = RangingStatus::kTimedOut;  // initiator RX window expired
    } else if (!in_batch(id)) {
      rep.status = RangingStatus::kNoPreamble;  // RESP lost at the initiator
    } else if (!out.payload_decoded) {
      rep.status = RangingStatus::kCrcError;  // sync payload corrupted
    } else if (std::any_of(out.verdicts.begin(), out.verdicts.end(),
                           [id](const AttackVerdict& v) {
                             return v.responder_id == id;
                           })) {
      rep.status = RangingStatus::kSuspect;  // indicted by a detector check
    } else {
      rep.status = RangingStatus::kOk;
    }
    out.responder_reports.push_back(rep);
  }

  out.degraded =
      out.payload_decoded &&
      std::any_of(out.responder_reports.begin(), out.responder_reports.end(),
                  [](const ResponderReport& r) {
                    return r.status != RangingStatus::kOk;
                  });
}

}  // namespace

DetectorConfig detector_config_for(const ConcurrentRangingConfig& ranging) {
  DetectorConfig det = ranging.detector;
  det.shape_registers = ranging.shape_registers;
  return det;
}

std::unique_ptr<sim::Node> make_session_node(sim::Simulator& sim,
                                             sim::Medium& medium,
                                             sim::NodeConfig nc,
                                             double drift_sigma_ppm, Rng& rng,
                                             NodeDrawOrder order) {
  std::optional<Rng> stream;
  if (order == NodeDrawOrder::kStreamFirst) stream = rng.fork();
  nc.clock_epoch_offset = SimTime::from_seconds(rng.uniform(0.0, 17.0));
  nc.drift_ppm = rng.normal(0.0, drift_sigma_ppm);
  if (!stream) stream = rng.fork();
  return std::make_unique<sim::Node>(sim, medium, nc, std::move(*stream));
}

RangingAttempt run_ranging_attempt(sim::Simulator& sim, sim::Node& initiator,
                                   std::span<const AttemptResponder> responders,
                                   const AttemptSettings& settings) {
  AttemptState st{sim, initiator, settings, {}, {}, {}, {}, {}};

  if (settings.attacker != nullptr) settings.attacker->begin_round();
  if (settings.injector != nullptr) {
    fault::FaultInjector& injector = *settings.injector;
    injector.begin_round();
    // Clock anomalies strike at round boundaries: drift steps perturb the
    // CFO/Eq. 2 correction, epoch jumps exercise the wrap-aware timestamp
    // arithmetic. Initiator first, then responders in ascending id order
    // (deterministic draw order).
    const auto apply_glitch = [&injector](int id, sim::Node& node) {
      const fault::FaultInjector::ClockGlitch g = injector.clock_glitch(id);
      if (g.drift_step_ppm != 0.0 || g.epoch_jump_s != 0.0)
        node.apply_clock_glitch(g.drift_step_ppm, g.epoch_jump_s);
    };
    apply_glitch(initiator.id(), initiator);
    for (const AttemptResponder& r : responders) {
      apply_glitch(r.id, *r.node);
      if (injector.responder_muted(r.id)) st.muted.insert(r.id);
    }
  }

  {
    const ConcurrentRangingConfig& ranging = *settings.ranging;
    const HandlerScope handlers{initiator, responders};
    initiator.set_rx_handler([&st](const sim::RxResult& r) { st.rx = r; });
    for (const AttemptResponder& r : responders)
      r.node->set_rx_handler(
          [&st, &r](const sim::RxResult& rx) { reply(st, r, rx); });

    const SimTime t0 = sim.now() + SimTime::from_micros(50.0);
    for (const AttemptResponder& r : responders) {
      sim::Node* n = r.node;
      if (st.muted.count(r.id) != 0) {
        // Mute window: the radio is off for the whole round.
        sim.at(t0, [n]() {
          if (n->in_rx()) n->exit_rx();
        });
        continue;
      }
      sim.at(t0, [n]() {
        if (!n->in_rx()) n->enter_rx();
      });
    }

    dw::MacFrame init;
    init.type = dw::FrameType::Init;
    init.src = static_cast<std::uint16_t>(initiator.id());
    const double init_airtime =
        initiator.phy().frame_duration_s(init.payload_bytes());

    const SimTime t_tx = t0 + SimTime::from_micros(20.0);
    sim.at(t_tx, [&st, init]() {
      st.initiator.exit_rx();
      st.t_tx_init = st.initiator.transmit_now(init);
    });
    sim.at(t_tx + SimTime::from_seconds(init_airtime) +
               SimTime::from_micros(5.0),
           [&initiator]() { initiator.enter_rx(); });

    const double max_extra =
        ranging.num_slots > 1
            ? (ranging.num_slots - 1) * ranging.slot_spacing_s
            : 0.0;
    // Kept as a separate SimTime conversion (not folded into the double
    // sum): with the default rx_extra_listen this reproduces the historical
    // deadline bit for bit.
    const SimTime deadline =
        t_tx + SimTime::from_seconds(ranging.response_delay_s + max_extra) +
        to_sim_time(settings.rx_extra_listen);
    sim.run_until(deadline);
  }

  RangingAttempt attempt;
  RoundOutcome& out = attempt.out;
  std::sort(st.truths.begin(), st.truths.end(),
            [](const ResponderTruth& a, const ResponderTruth& b) {
              return a.resp_arrival < b.resp_arrival;
            });
  out.truths = std::move(st.truths);
  if (st.rx) {
    attempt.sync_chain = st.rx->sync_chain;
    process_batch(st, responders, out);
  } else {
    initiator.exit_rx();
  }
  fill_reports(st, responders, out);
  return attempt;
}

}  // namespace uwb::ranging
