// Reproduces paper Fig. 6: CIR and matched-filter bank output when two
// responders reply with different pulse shapes — responder 1 at 4 m with
// s1 (0x93) and responder 2 at 10 m with s3 (0xE6).
#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "common/constants.hpp"
#include "dw1000/pulse.hpp"

int main(int argc, char** argv) {
  using namespace uwb;
  const auto opts = bench::parse_options(argc, argv, 1);
  bench::JsonReport report("fig6_pulse_id", opts.trials);
  bench::heading("Fig. 6 — two responders with different pulse shapes");

  ranging::ScenarioConfig cfg = bench::hallway_scenario(606);
  cfg.ranging.shape_registers = {0x93, 0xC8, 0xE6};
  // IDs pick the shapes: with one slot, shape = ID (0 -> s1, 2 -> s3).
  cfg.responders = {{0, bench::hallway_at(4.0)}, {2, bench::hallway_at(10.0)}};
  ranging::ConcurrentRangingScenario scenario(cfg);
  const auto out = scenario.run_round();
  if (!out.payload_decoded) {
    std::printf("round failed\n");
    return 1;
  }

  bench::subheading("(a) CIR, responder 1 (4 m, s1) + responder 2 (10 m, s3)");
  const double anchor = out.cir.first_path_index;
  std::vector<double> xs, ys;
  double peak = 0.0;
  for (const auto& tap : out.cir.taps) peak = std::max(peak, std::abs(tap));
  for (int i = 50; i < 140; ++i) {
    xs.push_back(out.d_twr_m +
                 k::c_air * (i - anchor) * k::cir_ts_s / 2.0);
    ys.push_back(std::abs(out.cir.taps[static_cast<std::size_t>(i)]) / peak);
  }
  bench::ascii_profile(xs, ys, "m", 44);

  bench::subheading("(b) matched filter bank outputs y_i at the two responses");
  // Evaluate each template's filter output at the detected peak locations.
  const auto& det = scenario.detector();
  std::printf("%-26s %-12s %s\n", "", "response 1", "response 2");
  for (int shape = 0; shape < 3; ++shape) {
    const std::uint8_t reg =
        cfg.ranging.shape_registers[static_cast<std::size_t>(shape)];
    const CVec y = det.matched_filter_output(out.cir.taps, out.cir.ts_s, shape);
    const int up = ranging::kUpsampleFactor;
    // The filter output indexes template *starts*; shift by this template's
    // centre so the search window sits on the response peak.
    const auto tmpl_centre = static_cast<std::ptrdiff_t>(
        dw::template_centre_index(reg, k::cir_ts_s / up));
    std::printf("template s%-2d (0x%02X)      ", shape + 1, reg);
    for (const auto& est : out.estimates) {
      const auto peak_pos = static_cast<std::ptrdiff_t>(
          ((out.detections.front().tau_s + est.tau_rel_s) / k::cir_ts_s) * up);
      const std::ptrdiff_t centre = peak_pos - tmpl_centre;
      double best = 0.0;
      for (std::ptrdiff_t d = -4 * up; d <= 4 * up; ++d) {
        const std::ptrdiff_t idx = centre + d;
        if (idx >= 0 && idx < static_cast<std::ptrdiff_t>(y.size()))
          best = std::max(best, std::abs(y[static_cast<std::size_t>(idx)]));
      }
      std::printf("%-12.4f ", best);
    }
    std::printf("\n");
  }

  bench::subheading("classified responses");
  std::printf("%-10s %-14s %-12s %-14s %s\n", "response", "est. dist [m]",
              "shape", "decoded ID", "true");
  const char* expect[] = {"s1 -> id 0", "s3 -> id 2"};
  const int expect_id[] = {0, 2};
  int ids_correct = 0;
  for (std::size_t i = 0; i < out.estimates.size(); ++i) {
    const auto& est = out.estimates[i];
    if (i < 2 && est.responder_id == expect_id[i]) ++ids_correct;
    std::printf("%-10zu %-14.3f s%-11d %-14d %s\n", i + 1, est.distance_m,
                est.shape_index + 1, est.responder_id,
                i < 2 ? expect[i] : "?");
  }
  report.param("seed", 606.0);
  report.metric("ids_correct", static_cast<double>(ids_correct));
  report.metric("responses", static_cast<double>(out.estimates.size()));
  std::printf(
      "\npaper check: each response peaks highest under its own template, so\n"
      "the initiator decodes the responder identity from the CIR alone.\n");
  return report.write_if_requested(opts) ? 0 : 1;
}
