#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>

#include "channel/channel_model.hpp"
#include "common/hash.hpp"
#include "common/random.hpp"
#include "dw1000/cir.hpp"
#include "dw1000/cir_io.hpp"
#include "ranging/protocol.hpp"
#include "runner/monte_carlo.hpp"
#include "sim/floorplan.hpp"

namespace perfbench {

using namespace uwb;

namespace {

// Receiver defaults the session leaves untouched (sim::NodeConfig); the
// CIR-synthesis replay rebuilds each batch's arrival window with them.
const sim::NodeConfig kNodeDefaults{};

/// Recorded CIRs in the cir_replay corpus.
constexpr int kCorpusSize = 128;
/// Trials of the hallway_fig4 determinism sample (1 vs 2 workers).
constexpr int kHallwaySample = 16;
/// Trials of the building_n200 culled-vs-reference sample.
constexpr int kBuildingSample = 2;

// --- scenarios ------------------------------------------------------------

/// Paper Fig. 4: three responders at 3, 6 and 10 m in the 40 m hallway
/// (bench_util's hallway_scenario: 2.4 m corridor, 15 dB walls).
ranging::ScenarioConfig hallway_fig4(std::uint64_t seed) {
  ranging::ScenarioConfig cfg;
  cfg.room = geom::Room::hallway(40.0, 2.4, /*reflection_loss_db=*/15.0);
  cfg.initiator_position = {2.0, 1.0};
  cfg.responders = {{0, {5.0, 1.0}}, {1, {8.0, 1.0}}, {2, {12.0, 1.0}}};
  cfg.seed = seed;
  return cfg;
}

/// bench_ext_scale's culled session: an initiator at the building centre,
/// 200 responders one per room, steep through-building channel.
ranging::ScenarioConfig building_n200(std::uint64_t seed, bool culling) {
  constexpr int kResponders = 200;
  const sim::FloorPlan plan = sim::make_floor_plan(
      sim::plan_for_nodes(kResponders + 1, /*nodes_per_room=*/1.0));
  const auto positions = sim::place_nodes(plan, kResponders + 1, seed);
  ranging::ScenarioConfig cfg;
  cfg.room = plan.room;
  cfg.channel.path_loss_exponent = 3.5;
  cfg.channel.max_reflection_order = 0;
  cfg.medium.culling_enabled = culling;
  cfg.medium.detection_threshold_amp = 0.05;
  cfg.initiator_position = plan.center();
  for (int i = 0; i < kResponders; ++i)
    cfg.responders.push_back({i, positions[static_cast<std::size_t>(i)]});
  cfg.ranging.num_slots = 64;
  cfg.ranging.slot_spacing_s = 150e-9;
  cfg.ranging.shape_registers = {0x93, 0xB8, 0xC8, 0xE0};
  cfg.detect_max_responses = 12;
  cfg.slot_aware_selection = true;
  cfg.seed = seed;
  return cfg;
}

/// Paper Fig. 8: nine responders, 4 RPM slots x 3 pulse shapes, in a
/// 16 x 10 m room.
ranging::ScenarioConfig fig8_room(std::uint64_t seed) {
  ranging::ScenarioConfig cfg;
  cfg.room = geom::Room::rectangular(16.0, 10.0, 10.0);
  cfg.initiator_position = {1.0, 5.0};
  cfg.ranging.num_slots = 4;
  cfg.ranging.slot_spacing_s = 150e-9;
  cfg.ranging.shape_registers = {0x93, 0xC8, 0xE6};
  cfg.responders = {
      {0, {4.0, 5.0}},  {1, {6.5, 3.0}},  {2, {9.0, 7.0}},
      {3, {11.0, 4.0}}, {4, {5.5, 7.5}},  {5, {8.0, 2.5}},
      {6, {12.5, 6.5}}, {7, {14.0, 5.0}}, {8, {7.0, 5.5}},
  };
  cfg.seed = seed;
  return cfg;
}

int max_responses(const ranging::ScenarioConfig& cfg) {
  return cfg.detect_max_responses > 0
             ? cfg.detect_max_responses
             : static_cast<int>(cfg.responders.size());
}

/// Estimates carry usable responder ids only when every configured
/// responder has its own (slot, shape) pair; otherwise (e.g. the anonymous
/// single-slot, single-shape hallway) every id decodes to 0 and scoring
/// falls back to distance alone.
bool ids_decodable(const ranging::ScenarioConfig& cfg) {
  const int capacity = cfg.ranging.max_responders();
  if (capacity <= 1) return false;
  return std::all_of(cfg.responders.begin(), cfg.responders.end(),
                     [capacity](const ranging::ResponderSpec& r) {
                       return r.id < capacity;
                     });
}

// --- digests --------------------------------------------------------------

/// Everything observable about a round (bench_ext_scale's outcome digest).
std::uint64_t outcome_digest(const ranging::RoundOutcome& out) {
  std::uint64_t h = kDigestSeed;
  h = hash_combine(h, out.completed ? 1 : 0);
  h = hash_combine(h, out.payload_decoded ? 1 : 0);
  h = hash_combine(h, static_cast<std::uint64_t>(
                          static_cast<std::uint32_t>(out.sync_responder_id)));
  h = hash_combine(h, double_bits(out.d_twr_m));
  h = hash_combine(h, out.estimates.size());
  for (const auto& e : out.estimates) h = hash_combine(h, double_bits(e.distance_m));
  for (const auto& r : out.responder_reports)
    h = hash_combine(h, static_cast<std::uint64_t>(r.status));
  for (const auto& c : out.cir.taps) {
    h = hash_combine(h, double_bits(c.real()));
    h = hash_combine(h, double_bits(c.imag()));
  }
  return h;
}

/// Detector and protocol outputs of one CIR, every field bit for bit.
std::uint64_t detection_digest(
    const std::vector<ranging::DetectedResponse>& detections,
    const std::vector<ranging::ResponderEstimate>& estimates) {
  std::uint64_t h = kDigestSeed;
  h = hash_combine(h, detections.size());
  for (const auto& d : detections) {
    h = hash_combine(h, double_bits(d.tau_s));
    h = hash_combine(h, double_bits(d.index_upsampled));
    h = hash_combine(h, double_bits(d.amplitude.real()));
    h = hash_combine(h, double_bits(d.amplitude.imag()));
    h = hash_combine(h, static_cast<std::uint64_t>(d.shape_index + 1));
  }
  h = hash_combine(h, estimates.size());
  for (const auto& e : estimates) {
    h = hash_combine(h, double_bits(e.distance_m));
    h = hash_combine(h, static_cast<std::uint64_t>(e.slot + 1));
    h = hash_combine(h, static_cast<std::uint64_t>(e.shape_index + 1));
    h = hash_combine(h, static_cast<std::uint64_t>(e.responder_id + 1));
    h = hash_combine(h, double_bits(e.amplitude));
    h = hash_combine(h, double_bits(e.tau_rel_s));
  }
  return h;
}

// --- scoring --------------------------------------------------------------

/// Score `estimates` 1:1 against the true distances of the responders that
/// sent a RESP this round; `reached` lists those whose RESP reached the
/// initiator (for the missed count).
void score(const std::vector<RangePoint>& truths,
           const std::vector<ranging::ResponderEstimate>& estimates,
           bool use_ids, const std::vector<int>& reached, RoundRecord& rec) {
  std::vector<RangePoint> guesses;
  guesses.reserve(estimates.size());
  for (const auto& e : estimates)
    guesses.push_back({use_ids ? e.responder_id : -1, e.distance_m});
  const std::vector<RangeMatch> matches = assign_one_to_one(guesses, truths);
  std::vector<bool> truth_matched(truths.size(), false);
  for (const RangeMatch& m : matches) {
    truth_matched[m.truth] = true;
    rec.abs_error_m.push_back(std::abs(m.error_m));
  }
  rec.has_estimate = !estimates.empty();
  rec.responders = static_cast<int>(truths.size());
  rec.matched = static_cast<int>(matches.size());
  rec.spurious = static_cast<int>(estimates.size() - matches.size());
  for (std::size_t t = 0; t < truths.size(); ++t)
    if (!truth_matched[t] &&
        std::find(reached.begin(), reached.end(), truths[t].id) != reached.end())
      ++rec.missed;
}

/// True distances of the responders that sent a RESP in `out`.
std::vector<RangePoint> sent_truths(const ranging::RoundOutcome& out) {
  std::vector<RangePoint> truths;
  truths.reserve(out.truths.size());
  for (const auto& t : out.truths) truths.push_back({t.id, t.true_distance_m});
  return truths;
}

std::vector<int> reached_ids(const ranging::RoundOutcome& out) {
  std::vector<int> reached;
  for (const auto& rep : out.responder_reports)
    if (rep.status == ranging::RangingStatus::kOk) reached.push_back(rep.id);
  return reached;
}

// --- traced replay ----------------------------------------------------------

struct Delivery {
  int rx = 0;
  sim::AirFrame frame;
};

/// Span builder for one traced round.
class SpanLog {
 public:
  explicit SpanLog(std::uint64_t round) : round_(round) {}
  int add(const char* name, std::int64_t start, std::int64_t end, int parent) {
    spans_.push_back({name, start, end, parent, round_});
    return static_cast<int>(spans_.size()) - 1;
  }
  std::vector<SpanRecord> take() { return std::move(spans_); }

 private:
  std::uint64_t round_;
  std::vector<SpanRecord> spans_;
};

/// Directed links realized by the medium this round: every transmission
/// (the initiator's INIT, each responder's RESP) paired with every other
/// node in its 3x3 grid neighborhood, or with every other node when
/// culling is inactive. The channel seed of a transmission is read off any
/// of its delivered frames; a transmission nobody received gets a stand-in.
struct Link {
  geom::Vec2 tx;
  geom::Vec2 rx;
  std::uint64_t seed = 0;
};

std::vector<Link> realized_links(ranging::ConcurrentRangingScenario& scenario,
                                 const ranging::RoundOutcome& out,
                                 const std::vector<Delivery>& deliveries,
                                 std::uint64_t round_seed) {
  const ranging::ScenarioConfig& cfg = scenario.config();
  // Node registry order of the medium: ascending id, initiator (-1) first.
  std::vector<std::pair<int, geom::Vec2>> nodes;
  nodes.emplace_back(-1, cfg.initiator_position);
  for (const auto& r : cfg.responders) nodes.emplace_back(r.id, r.position);
  std::sort(nodes.begin(), nodes.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  const auto position_of = [&nodes](int id) {
    for (const auto& n : nodes)
      if (n.first == id) return n.second;
    return geom::Vec2{};
  };

  std::vector<int> transmitters = {-1};
  for (const auto& t : out.truths) transmitters.push_back(t.id);

  sim::Medium& medium = scenario.medium();
  const bool culling = medium.culling_active();
  std::vector<std::int32_t> candidates;
  std::vector<Link> links;
  for (const int tx : transmitters) {
    std::uint64_t chain = derive_seed(round_seed, static_cast<std::uint64_t>(tx + 1));
    for (const Delivery& d : deliveries)
      if (d.frame.tx_node_id == tx) {
        chain = d.frame.chain;
        break;
      }
    const geom::Vec2 tx_pos = position_of(tx);
    candidates.clear();
    if (culling) {
      medium.spatial_index().neighborhood(tx_pos, candidates);
    } else {
      for (std::size_t i = 0; i < nodes.size(); ++i)
        candidates.push_back(static_cast<std::int32_t>(i));
    }
    for (const std::int32_t idx : candidates) {
      const auto& [rx, rx_pos] = nodes[static_cast<std::size_t>(idx)];
      if (rx == tx) continue;
      // The medium's per-(link, frame) stream: tx and rx ids packed into
      // the two 32-bit lanes of the stream index.
      const std::uint64_t lane =
          (static_cast<std::uint64_t>(static_cast<std::uint32_t>(tx)) << 32) |
          static_cast<std::uint64_t>(static_cast<std::uint32_t>(rx));
      links.push_back({tx_pos, rx_pos, derive_seed(chain, lane)});
    }
  }
  return links;
}

/// Each receiver's first arrival batch, as sim::Node forms it: the earliest
/// non-faulted frame leads, later frames whose preamble starts before the
/// leader's RMARKER join, and the radio turns off once the batch completes
/// (no handler in the session re-enters RX within a round). Returns the
/// arrival lists handed to dw::synthesize_cir, one per receiver.
std::vector<std::vector<dw::CirArrival>> arrival_batches(
    const std::vector<Delivery>& deliveries, double ts_s) {
  std::map<int, std::vector<const sim::AirFrame*>> by_rx;
  for (const Delivery& d : deliveries) by_rx[d.rx].push_back(&d.frame);
  std::vector<std::vector<dw::CirArrival>> batches;
  for (auto& [rx, frames] : by_rx) {
    (void)rx;
    std::stable_sort(frames.begin(), frames.end(),
                     [](const sim::AirFrame* a, const sim::AirFrame* b) {
                       return a->preamble_start_arrival < b->preamble_start_arrival;
                     });
    std::vector<const sim::AirFrame*> batch;
    for (const sim::AirFrame* f : frames) {
      if (batch.empty()) {
        if (!f->preamble_missed) batch.push_back(f);
      } else if (f->preamble_start_arrival <= batch.front()->rmarker_arrival) {
        batch.push_back(f);
      }
    }
    if (batch.empty()) continue;
    const sim::AirFrame* sync = batch.front();
    for (const sim::AirFrame* f : batch)
      if (!f->preamble_missed &&
          f->first_path_amplitude >
              sync->first_path_amplitude * kNodeDefaults.capture_amplitude_ratio)
        sync = f;
    const double window_start_s =
        sync->preamble_start_arrival.seconds() -
        static_cast<double>(kNodeDefaults.cir_anchor_taps) * ts_s;
    std::vector<dw::CirArrival> arrivals;
    for (const sim::AirFrame* f : batch) {
      const double tx_ref_s = f->preamble_start_arrival.seconds() -
                              f->first_detectable_delay.value();
      for (const channel::Tap& tap : f->taps)
        arrivals.push_back({tx_ref_s + tap.delay_s - window_start_s,
                            tap.amplitude, f->tc_pgdelay});
    }
    batches.push_back(std::move(arrivals));
  }
  return batches;
}

std::vector<ranging::ResponderEstimate> protocol_math(
    const std::vector<ranging::DetectedResponse>& detections,
    const ranging::ScenarioConfig& cfg, double d_twr_m, int sync_slot) {
  std::vector<ranging::ResponderEstimate> estimates =
      ranging::interpret_responses(detections, cfg.ranging, d_twr_m, sync_slot);
  if (cfg.slot_aware_selection)
    estimates = ranging::select_slot_responses(estimates, cfg.ranging);
  return estimates;
}

}  // namespace

// --- workload plumbing ------------------------------------------------------

std::optional<WorkloadKind> parse_workload(std::string_view name) {
  if (name == "hallway_fig4") return WorkloadKind::kHallwayFig4;
  if (name == "building_n200") return WorkloadKind::kBuildingN200;
  if (name == "cir_replay") return WorkloadKind::kCirReplay;
  return std::nullopt;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One recorded CIR with what the session made of it.
struct CorpusEntry {
  dw::CirEstimate cir;
  double d_twr_m = 0.0;
  int sync_slot = 0;
  /// Responders that sent a RESP in the recorded round, and those whose
  /// RESP reached the initiator.
  std::vector<RangePoint> sent;
  std::vector<int> reached;
  std::uint64_t digest = 0;
};

struct Workload::Corpus {
  ranging::ScenarioConfig config;
  std::vector<CorpusEntry> entries;
  std::unique_ptr<ranging::SearchSubtractDetector> detector;
};

Workload::Workload(WorkloadKind kind, std::uint64_t seed, std::string scratch_dir)
    : kind_(kind), seed_(seed), scratch_dir_(std::move(scratch_dir)) {}

Workload::~Workload() = default;

int Workload::workers() const {
  return kind_ == WorkloadKind::kBuildingN200 ? 2 : 1;
}

int Workload::capacity(double seconds) const {
  // About four times the rounds/s measured when the benchmark was defined.
  const double max_rate = kind_ == WorkloadKind::kHallwayFig4    ? 1000.0
                          : kind_ == WorkloadKind::kBuildingN200 ? 150.0
                                                                 : 2000.0;
  return static_cast<int>(seconds * max_rate) + 64;
}

double Workload::setup(bool* ok) {
  *ok = true;
  constexpr int kWarmupRounds = 2;
  if (kind_ == WorkloadKind::kCirReplay) {
    // Record the corpus: decoded Fig. 8 rounds, each CIR written through
    // dw1000/cir_io and read back as a recorded trace would be.
    corpus_ = std::make_unique<Corpus>();
    corpus_->config = fig8_room(seed_);
    for (int attempt = 0;
         static_cast<int>(corpus_->entries.size()) < kCorpusSize &&
         attempt < 4 * kCorpusSize;
         ++attempt) {
      ranging::ScenarioConfig cfg =
          fig8_room(derive_seed(seed_, 0xC0A9u + static_cast<std::uint64_t>(attempt)));
      ranging::ConcurrentRangingScenario scenario(cfg);
      const ranging::RoundOutcome out = scenario.run_round();
      if (!corpus_->detector) {
        corpus_->detector = std::make_unique<ranging::SearchSubtractDetector>(
            scenario.detector().config());
      }
      if (!out.payload_decoded) continue;
      const std::string path = scratch_dir_ + "/cir_" +
                               std::to_string(corpus_->entries.size()) + ".csv";
      std::optional<dw::CirEstimate> loaded;
      if (dw::save_cir_csv(out.cir, path)) loaded = dw::load_cir_csv(path);
      std::remove(path.c_str());
      if (!loaded || loaded->taps != out.cir.taps ||
          double_bits(loaded->ts_s) != double_bits(out.cir.ts_s)) {
        std::fprintf(stderr, "corpus CIR %zu did not survive save/load\n",
                     corpus_->entries.size());
        *ok = false;
        return 0.0;
      }
      CorpusEntry e;
      e.cir = std::move(*loaded);
      e.d_twr_m = out.d_twr_m;
      e.sync_slot = ranging::assign_responder(out.sync_responder_id, cfg.ranging).slot;
      e.sent = sent_truths(out);
      e.reached = reached_ids(out);
      e.digest = detection_digest(out.detections, out.estimates);
      corpus_->entries.push_back(std::move(e));
    }
    if (static_cast<int>(corpus_->entries.size()) < kCorpusSize) {
      std::fprintf(stderr, "corpus: only %zu decoded rounds\n",
                   corpus_->entries.size());
      *ok = false;
      return 0.0;
    }
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < kWarmupRounds; ++i) (void)replay_round(i, false);
    return static_cast<double>(now_ns() - t0) / 1e6 / kWarmupRounds;
  }
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < kWarmupRounds; ++i)
    (void)scenario_round(derive_seed(seed_, 0x3A93u + static_cast<std::uint64_t>(i)),
                         false, true);
  return static_cast<double>(now_ns() - t0) / 1e6 / kWarmupRounds;
}

RoundRecord Workload::run_round(int index, std::uint64_t round_seed,
                                bool traced) const {
  if (kind_ == WorkloadKind::kCirReplay) return replay_round(index, traced);
  return scenario_round(round_seed, traced, true);
}

RoundRecord Workload::scenario_round(std::uint64_t round_seed, bool traced,
                                     bool culling) const {
  ranging::ScenarioConfig cfg = kind_ == WorkloadKind::kHallwayFig4
                                    ? hallway_fig4(round_seed)
                                    : building_n200(round_seed, culling);
  RoundRecord rec;
  std::vector<Delivery> deliveries;

  rec.start_ns = now_ns();
  ranging::ConcurrentRangingScenario scenario(std::move(cfg));
  const std::int64_t constructed = now_ns();
  if (traced)
    scenario.medium().set_delivery_probe(
        [&deliveries](int rx, const sim::AirFrame& af) {
          deliveries.push_back({rx, af});
        });
  const ranging::RoundOutcome out = scenario.run_round();
  rec.end_ns = now_ns();

  const ranging::ScenarioConfig& config = scenario.config();
  const sim::MediumStats& stats = scenario.medium().stats();
  rec.frames_transmitted = static_cast<std::uint32_t>(stats.frames_transmitted);
  rec.frames_delivered = static_cast<std::uint32_t>(stats.frames_delivered);
  rec.channels_realized = static_cast<std::uint32_t>(stats.channels_realized);
  rec.receivers_culled = static_cast<std::uint32_t>(stats.receivers_culled);

  score(sent_truths(out), out.estimates, ids_decodable(config), reached_ids(out), rec);
  rec.digest = outcome_digest(out);
  if (!traced) return rec;

  // Replay each layer's public call on this round's inputs.
  SpanLog log(round_seed);
  const int round = log.add("round", rec.start_ns, rec.end_ns, -1);
  log.add("session.construct", rec.start_ns, constructed, round);
  const int run = log.add("session.run_round", constructed, rec.end_ns, round);
  rec.trace = std::make_unique<RoundTrace>();
  LayerCounts& n = rec.trace->counts;

  std::int64_t t = 0;
  {
    const std::vector<Link> links =
        realized_links(scenario, out, deliveries, round_seed);
    const channel::ChannelModel& model = scenario.medium().channel_model();
    t = now_ns();
    for (const Link& link : links) {
      Rng rng(link.seed);
      n.realized_taps += static_cast<std::int64_t>(
          model.realize(link.tx, link.rx, rng).taps.size());
    }
    log.add("replay.channel", t, now_ns(), run);
    n.realize_calls = static_cast<std::int64_t>(links.size());
    n.realize_count_mismatch =
        static_cast<std::uint64_t>(n.realize_calls) != stats.channels_realized;
  }
  {
    const auto batches = arrival_batches(deliveries, config.cir.ts_s);
    Rng rng(derive_seed(round_seed, 0xC1Bu));
    t = now_ns();
    for (const auto& arrivals : batches)
      (void)dw::synthesize_cir(arrivals, config.cir, rng);
    log.add("replay.cir", t, now_ns(), run);
    n.cir_synthesized = static_cast<std::int64_t>(batches.size());
    n.cir_read = out.completed ? 1 : 0;
  }
  if (out.payload_decoded) {
    t = now_ns();
    const auto detections =
        scenario.detector().detect(out.cir.taps, out.cir.ts_s, max_responses(config));
    log.add("replay.detect", t, now_ns(), run);
    n.detect_calls = 1;
    n.detections = static_cast<std::int64_t>(detections.size());

    t = now_ns();
    const int sync_slot =
        ranging::assign_responder(out.sync_responder_id, config.ranging).slot;
    const auto estimates = protocol_math(detections, config, out.d_twr_m, sync_slot);
    log.add("replay.protocol", t, now_ns(), run);
    if (detection_digest(detections, estimates) !=
        detection_digest(out.detections, out.estimates))
      ++rec.mismatches;
  }
  rec.trace->spans = log.take();
  return rec;
}

RoundRecord Workload::replay_round(int index, bool traced) const {
  const Corpus& c = *corpus_;
  const CorpusEntry& e =
      c.entries[static_cast<std::size_t>(index) % c.entries.size()];
  RoundRecord rec;
  // A traced round also brackets the layers this workload leaves idle (no
  // session is built, no channel realized, no CIR synthesized), so their
  // time is measured -- one clock read -- like every other layer's rather
  // than assumed to be zero.
  std::int64_t idle[6] = {};
  rec.start_ns = now_ns();
  if (traced)
    for (std::int64_t& t : idle) t = now_ns();
  const std::int64_t detect_start = now_ns();
  const auto detections = c.detector->detect(e.cir.taps, e.cir.ts_s,
                                             max_responses(c.config));
  const std::int64_t detected = now_ns();
  const auto estimates = protocol_math(detections, c.config, e.d_twr_m, e.sync_slot);
  rec.end_ns = now_ns();

  score(e.sent, estimates, ids_decodable(c.config), e.reached, rec);
  rec.digest = detection_digest(detections, estimates);
  if (rec.digest != e.digest) ++rec.mismatches;
  if (!traced) return rec;

  SpanLog log(static_cast<std::uint64_t>(index));
  const int round = log.add("round", rec.start_ns, rec.end_ns, -1);
  log.add("session.construct", idle[0], idle[1], round);
  log.add("replay.channel", idle[2], idle[3], round);
  log.add("replay.cir", idle[4], idle[5], round);
  log.add("replay.detect", detect_start, detected, round);
  log.add("replay.protocol", detected, rec.end_ns, round);
  rec.trace = std::make_unique<RoundTrace>();
  rec.trace->counts.detect_calls = 1;
  rec.trace->counts.detections = static_cast<std::int64_t>(detections.size());
  rec.trace->spans = log.take();
  return rec;
}

int Workload::check(std::uint64_t base_seed, const std::vector<RoundRecord>& timed,
                    std::uint64_t* outcome_digest_out) const {
  int mismatches = 0;
  const auto timed_digest = [&timed](int i) -> std::optional<std::uint64_t> {
    if (i < static_cast<int>(timed.size()) && timed[static_cast<std::size_t>(i)].done)
      return timed[static_cast<std::size_t>(i)].digest;
    return std::nullopt;
  };
  for (const RoundRecord& r : timed)
    if (r.done) mismatches += r.mismatches;

  if (kind_ == WorkloadKind::kCirReplay) {
    // Replayed detections and estimates equal the session's, bit for bit.
    std::vector<std::uint64_t> digests;
    for (const CorpusEntry& e : corpus_->entries) {
      const auto detections = corpus_->detector->detect(
          e.cir.taps, e.cir.ts_s, max_responses(corpus_->config));
      const auto estimates =
          protocol_math(detections, corpus_->config, e.d_twr_m, e.sync_slot);
      if (detection_digest(detections, estimates) != e.digest) ++mismatches;
      digests.push_back(e.digest);
    }
    *outcome_digest_out = fold_digests(digests);
    return mismatches;
  }

  // Sample trials 0..k-1 of the timed seed stream, re-run outside timing.
  const bool hallway = kind_ == WorkloadKind::kHallwayFig4;
  const int k = hallway ? kHallwaySample : kBuildingSample;
  const auto sample = [&](int threads, bool culling) {
    std::vector<std::uint64_t> digests(static_cast<std::size_t>(k));
    runner::MonteCarlo::Config mc;
    mc.threads = threads;
    mc.base_seed = base_seed;
    runner::MonteCarlo(mc).run(k, [&](const runner::TrialContext& ctx,
                                      runner::TrialRecorder&) {
      digests[static_cast<std::size_t>(ctx.trial_index)] =
          scenario_round(ctx.seed, false, culling).digest;
    });
    return digests;
  };
  const std::vector<std::uint64_t> reference = sample(1, true);
  // hallway_fig4: identical at 1 and 2 workers. building_n200: the culled
  // medium is identical to the unculled O(N^2) reference.
  const std::vector<std::uint64_t> other = hallway ? sample(2, true) : sample(1, false);
  for (int i = 0; i < k; ++i) {
    const std::size_t s = static_cast<std::size_t>(i);
    if (other[s] != reference[s]) ++mismatches;
    const auto t = timed_digest(i);
    if (t && *t != reference[s]) ++mismatches;
  }
  *outcome_digest_out = fold_digests(reference);
  return mismatches;
}

TimedRun run_timed(const Workload& workload, std::uint64_t base_seed,
                   double seconds, bool trace_odd, int capacity) {
  TimedRun run;
  run.workers = workload.workers();
  run.rounds.resize(static_cast<std::size_t>(capacity));
  runner::MonteCarlo::Config mc;
  mc.threads = run.workers;
  mc.base_seed = base_seed;
  mc.chunk = 1;
  run.start_ns = now_ns();
  const std::int64_t deadline =
      run.start_ns + static_cast<std::int64_t>(seconds * 1e9);
  runner::MonteCarlo(mc).run(capacity, [&](const runner::TrialContext& ctx,
                                           runner::TrialRecorder&) {
    const std::int64_t start = now_ns();
    if (start >= deadline) return;
    RoundRecord& r = run.rounds[static_cast<std::size_t>(ctx.trial_index)];
    r = workload.run_round(ctx.trial_index, ctx.seed,
                           trace_odd && ctx.trial_index % 2 == 1);
    r.trial_start_ns = start;
    r.trial_end_ns = now_ns();
    r.done = true;
  });
  run.drained_ns = now_ns();
  for (const RoundRecord& r : run.rounds)
    if (r.done) run.last_end_ns = std::max(run.last_end_ns, r.trial_end_ns);
  return run;
}

std::uint64_t sample_digest(WorkloadKind kind, std::uint64_t seed,
                            const std::string& scratch_dir) {
  Workload w(kind, seed, scratch_dir);
  bool ok = false;
  w.setup(&ok);
  if (!ok) return 0;
  std::uint64_t digest = 0;
  w.check(derive_seed(seed, kTimedStream), {}, &digest);
  return digest;
}

}  // namespace perfbench
