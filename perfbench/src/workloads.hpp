// The benchmark's workloads and the closed loop that times them.
//
// A round is one Monte-Carlo trial, as in bench_util::run_rounds: build a
// ConcurrentRangingScenario from the trial seed and call run_round() once
// (hallway_fig4, building_n200), or run detection and the protocol math on
// one recorded CIR (cir_replay). Rounds run on runner::MonteCarlo in a
// closed loop: each worker starts its next trial when its previous one
// ends, until the deadline passes.
//
// Traced rounds additionally record spans around scenario construction and
// run_round(), capture every delivered AirFrame through
// Medium::set_delivery_probe, and afterwards replay each layer's public call
// on that round's own inputs (ChannelModel::realize on the realized links,
// dw::synthesize_cir on the receivers' arrival batches, detect() on the
// round's CIR, the protocol math on its detections). The replay spans are
// children of the run_round span, so run_round's self time is the time of
// the simulation glue (event dispatch, medium, nodes) alone.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "helpers.hpp"
#include "ranging/session.hpp"

namespace perfbench {

enum class WorkloadKind { kHallwayFig4, kBuildingN200, kCirReplay };

std::optional<WorkloadKind> parse_workload(std::string_view name);

/// Monotonic clock [ns] (CLOCK_MONOTONIC, the clock run.py stamps the
/// process start with).
std::int64_t now_ns();

/// Work counts of one traced round's replayed layers.
struct LayerCounts {
  std::int64_t realize_calls = 0;
  std::int64_t realized_taps = 0;
  std::int64_t cir_synthesized = 0;
  /// CIRs whose result a protocol handler consumes (the initiator's).
  std::int64_t cir_read = 0;
  std::int64_t detect_calls = 0;
  std::int64_t detections = 0;
  /// Replayed realizations differ in count from the medium's
  /// channels_realized delta (the link reconstruction missed something).
  bool realize_count_mismatch = false;
};

/// What a traced round records beyond an untraced one.
struct RoundTrace {
  std::vector<SpanRecord> spans;
  LayerCounts counts;
};

/// Everything measured about one round. Kept small: a run preallocates one
/// per possible trial, and that memory counts in peak_rss_mb.
struct RoundRecord {
  bool done = false;
  /// The round proper: construction + run_round(), or detect + protocol.
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// The whole trial function (round + scoring + digest).
  std::int64_t trial_start_ns = 0;
  std::int64_t trial_end_ns = 0;

  std::uint64_t digest = 0;
  /// The round produced at least one range estimate.
  bool has_estimate = false;
  /// 1:1 scoring against the responders that sent a RESP this round.
  int responders = 0;
  int matched = 0;
  int spurious = 0;
  /// Responders whose RESP reached the initiator (status ok, or recorded
  /// as ok in the corpus) but that no estimate matched.
  int missed = 0;
  std::vector<double> abs_error_m;
  /// Output mismatches found by this round's own checks (cir_replay
  /// digest against the recording; traced replay of detect/protocol).
  int mismatches = 0;

  /// Medium traffic of the round (scenario workloads).
  std::uint32_t frames_transmitted = 0;
  std::uint32_t frames_delivered = 0;
  std::uint32_t channels_realized = 0;
  std::uint32_t receivers_culled = 0;

  /// Traced rounds only.
  std::unique_ptr<RoundTrace> trace;
};

/// One workload with its inputs prepared. run_round() may be called
/// concurrently from the runner's workers for the scenario workloads;
/// cir_replay shares one detector and must run on the setup thread (it is
/// a 1-worker workload, which the runner executes inline).
class Workload {
 public:
  /// `scratch_dir` holds the recorded CIR corpus (cir_replay).
  Workload(WorkloadKind kind, std::uint64_t seed, std::string scratch_dir);
  ~Workload();
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  int workers() const;
  /// Trials a run of `seconds` preallocates: a fixed multiple of today's
  /// round rate, independent of the machine, so the harness's own memory
  /// is the same on every run.
  int capacity(double seconds) const;

  /// Build the corpus (cir_replay) and run untimed warm-up rounds that fill
  /// the pulse, template-bank and FFT-plan caches of the calling thread.
  /// Returns the mean warm-up round time [ms]. False in `ok` when the
  /// corpus could not be recorded or did not survive its CSV round trip.
  double setup(bool* ok);

  RoundRecord run_round(int index, std::uint64_t round_seed, bool traced) const;

  /// Correctness checks outside the timed section. `timed` holds the timed
  /// rounds (indexed by trial) run from `base_seed`; returns the number of
  /// mismatches and sets the workload's outcome digest.
  int check(std::uint64_t base_seed, const std::vector<RoundRecord>& timed,
            std::uint64_t* outcome_digest) const;

 private:
  struct Corpus;

  RoundRecord scenario_round(std::uint64_t round_seed, bool traced,
                             bool culling) const;
  RoundRecord replay_round(int index, bool traced) const;

  WorkloadKind kind_;
  std::uint64_t seed_;
  std::string scratch_dir_;
  std::unique_ptr<Corpus> corpus_;
};

/// A closed-loop timed run.
struct TimedRun {
  std::vector<RoundRecord> rounds;  // indexed by trial; !done = not run
  int workers = 1;
  std::int64_t start_ns = 0;
  /// End of the last completed round's trial.
  std::int64_t last_end_ns = 0;
  /// Return of the runner (all workers drained).
  std::int64_t drained_ns = 0;
};

/// Run trials seeded from `base_seed` on `workload.workers()` workers until
/// `seconds` have passed (trials that would start later are skipped).
/// With `trace_odd`, odd-numbered trials are traced. `capacity` bounds the
/// number of trials.
TimedRun run_timed(const Workload& workload, std::uint64_t base_seed,
                   double seconds, bool trace_odd, int capacity);

/// Fold of the check-sample digests for `seed`: identical for the same
/// seed, different across seeds. Exposed for the benchmark's own tests.
std::uint64_t sample_digest(WorkloadKind kind, std::uint64_t seed,
                            const std::string& scratch_dir);

/// Seed stream of the timed rounds (and of the check sample).
inline constexpr std::uint64_t kTimedStream = 0x7143D;

}  // namespace perfbench
