// Reproduces paper Fig. 7 / Sect. VI: detection of overlapping responses.
// Two responders at the same distance d1 = d2 = 4 m; 2000 rounds in the
// paper (default here: 500). Only trials whose responses actually overlap
// are evaluated (the +-8 ns TX truncation spreads them otherwise), exactly
// as the paper does. Both algorithms run on identical CIRs.
//
// Paper result: search-and-subtract 92.6% vs threshold-based 48%.
#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "common/constants.hpp"
#include "ranging/threshold_detector.hpp"

namespace {

using namespace uwb;

// True peak positions of both responses in CIR-window time.
std::vector<double> true_taus(const ranging::RoundOutcome& out) {
  std::vector<double> taus;
  const double t0 = out.truths.front().resp_arrival.seconds();
  for (const auto& t : out.truths)
    taus.push_back(out.cir.first_path_index * k::cir_ts_s +
                   (t.resp_arrival.seconds() - t0));
  return taus;
}

// Both true responses matched by distinct detections within tolerance.
bool both_detected(const std::vector<ranging::DetectedResponse>& dets,
                   const std::vector<double>& truths, double tol_s) {
  if (dets.size() < truths.size()) return false;
  std::vector<bool> used(dets.size(), false);
  for (const double truth : truths) {
    double best = tol_s;
    int best_i = -1;
    for (std::size_t i = 0; i < dets.size(); ++i) {
      if (used[i]) continue;
      const double err = std::abs(dets[i].tau_s - truth);
      if (err < best) {
        best = err;
        best_i = static_cast<int>(i);
      }
    }
    if (best_i < 0) return false;
    used[static_cast<std::size_t>(best_i)] = true;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace uwb;
  const auto opts = bench::parse_options(argc, argv, 500);
  bench::JsonReport report("fig7_overlap", opts.trials);
  bench::heading("Fig. 7 / Sect. VI — overlapping responses (d1 = d2 = 4 m)");
  std::printf("(%d rounds; paper used 2000)\n", opts.trials);

  // "Actually overlapping" (paper Sect. VI): the two pulse extents overlap.
  // The +-8 ns TX truncation jitter spreads the rest further apart; those
  // trials are excluded exactly as in the paper.
  const double overlap_window_s = 6.0e-9;
  const double tol_s = 2.0e-9;  // a detection counts if this close to truth
  report.param("overlap_window_ns", overlap_window_s * 1e9);
  report.param("tolerance_ns", tol_s * 1e9);

  const ranging::DetectorConfig det_cfg{
      bench::hallway_scenario(0).ranging.shape_registers};
  const auto result = bench::run_rounds(
      opts, 707, opts.trials,
      [](std::uint64_t seed) {
        ranging::ScenarioConfig cfg = bench::hallway_scenario(seed);
        cfg.responders = {{0, bench::hallway_at(4.0)},
                          {1, {2.0 + 4.0, 1.001}}};
        return cfg;
      },
      [&](const ranging::ConcurrentRangingScenario&,
          const ranging::RoundOutcome& out, runner::TrialRecorder& rec) {
        if (!out.completed || out.truths.size() != 2) return;
        rec.count("completed");
        const double offset = std::abs((out.truths[1].resp_arrival -
                                        out.truths[0].resp_arrival)
                                           .seconds());
        if (offset > overlap_window_s) return;  // paper keeps overlapping only
        rec.count("overlapping");
        const auto truths = true_taus(out);
        if (both_detected(out.detections, truths, tol_s)) rec.count("ss_ok");
        const ranging::ThresholdDetector threshold{det_cfg};
        if (both_detected(threshold.detect(out.cir.taps, out.cir.ts_s, 2),
                          truths, tol_s))
          rec.count("th_ok");
      });

  const auto completed = result.counter("completed");
  const auto overlapping = result.counter("overlapping");
  const auto ss_ok = result.counter("ss_ok");
  const auto th_ok = result.counter("th_ok");

  std::printf("\ncompleted rounds            : %lld\n",
              static_cast<long long>(completed));
  std::printf("actually overlapping rounds : %lld (|offset| < %.1f ns)\n",
              static_cast<long long>(overlapping), overlap_window_s * 1e9);
  if (overlapping == 0) {
    std::printf("no overlapping trials — increase --trials\n");
    return 1;
  }
  const double ss_pct = 100.0 * static_cast<double>(ss_ok) /
                        static_cast<double>(overlapping);
  const double th_pct = 100.0 * static_cast<double>(th_ok) /
                        static_cast<double>(overlapping);
  std::printf("\n%-28s %-12s %s\n", "algorithm", "success", "paper");
  std::printf("%-28s %6.1f %%     92.6 %%\n", "search and subtract (ours)",
              ss_pct);
  std::printf("%-28s %6.1f %%     48.0 %%\n", "threshold-based (Falsi et al.)",
              th_pct);
  std::printf("(%.1f ms on %d threads)\n", result.wall_ms(),
              result.threads_used());
  std::printf(
      "\npaper check: search-and-subtract resolves both overlapping\n"
      "responses in the large majority of trials, the threshold baseline in\n"
      "roughly half or fewer — the crossing window swallows the second pulse.\n");

  report.metric("completed", static_cast<double>(completed));
  report.metric("overlapping", static_cast<double>(overlapping));
  report.metric("search_subtract_pct", ss_pct);
  report.metric("threshold_pct", th_pct);
  report.runner_metrics(result);
  return report.write_if_requested(opts) ? 0 : 1;
}
