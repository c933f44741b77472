// Equivalence tests: the shared-spectrum + incremental fast detection path
// against the exact per-iteration recompute path that detect_with_trace()
// runs (DESIGN.md Sect. 8) — on every exit of the search and on the
// flight-recorder payloads of its peak decisions — the spectrum-reusing
// matched-filter entry point against the self-contained one, and
// bit-identical Monte-Carlo detection across thread counts.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/constants.hpp"
#include "common/random.hpp"
#include "dsp/fft.hpp"
#include "dsp/matched_filter.hpp"
#include "dsp/peaks.hpp"
#include "dw1000/cir.hpp"
#include "dw1000/pulse.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "ranging/search_subtract.hpp"
#include "runner/monte_carlo.hpp"

namespace uwb::ranging {
namespace {

constexpr std::uint8_t kShapeBank[] = {0x93, 0xB5, 0xE6};

dw::CirEstimate random_cir(std::uint64_t seed, int min_arrivals,
                           int max_arrivals) {
  Rng rng(seed);
  const auto n = static_cast<int>(rng.uniform_int(min_arrivals, max_arrivals));
  std::vector<dw::CirArrival> arrivals;
  double pos = rng.uniform(40.0, 120.0);
  for (int i = 0; i < n; ++i) {
    dw::CirArrival a;
    a.time_into_window_s = pos * k::cir_ts_s;
    a.amplitude = Complex(rng.uniform(0.1, 0.7), 0.0) * rng.random_phase();
    a.tc_pgdelay =
        kShapeBank[static_cast<std::size_t>(rng.uniform_int(0, 2))];
    arrivals.push_back(a);
    pos += rng.uniform(6.0, 180.0);
  }
  dw::CirParams params;
  params.noise_sigma = 0.004;
  return dw::synthesize_cir(arrivals, params, rng);
}

DetectorConfig multi_shape_config() {
  DetectorConfig cfg;
  cfg.shape_registers.assign(std::begin(kShapeBank), std::end(kShapeBank));
  return cfg;
}

void expect_same_responses(const std::vector<DetectedResponse>& fast,
                           const std::vector<DetectedResponse>& exact,
                           std::uint64_t seed) {
  ASSERT_EQ(fast.size(), exact.size()) << "seed=" << seed;
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_EQ(fast[i].shape_index, exact[i].shape_index)
        << "seed=" << seed << " i=" << i;
    EXPECT_NEAR(fast[i].index_upsampled, exact[i].index_upsampled, 1e-6)
        << "seed=" << seed << " i=" << i;
    EXPECT_NEAR(fast[i].tau_s, exact[i].tau_s, 1e-6 * k::cir_ts_s)
        << "seed=" << seed << " i=" << i;
    EXPECT_NEAR(std::abs(fast[i].amplitude - exact[i].amplitude), 0.0, 1e-9)
        << "seed=" << seed << " i=" << i;
  }
}

TEST(FastPathEquivalence, MatchesExactOnRandomMultiResponderCirs) {
  SearchSubtractDetector det{multi_shape_config()};
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const auto cir = random_cir(seed, 2, 5);
    expect_same_responses(det.detect(cir.taps, cir.ts_s, 6),
                          det.detect_with_trace(cir.taps, cir.ts_s, 6).responses,
                          seed);
  }
}

TEST(FastPathEquivalence, MatchesExactWithSingleTemplateBank) {
  SearchSubtractDetector det{DetectorConfig{}};
  for (std::uint64_t seed = 100; seed <= 106; ++seed) {
    const auto cir = random_cir(seed, 1, 4);
    expect_same_responses(det.detect(cir.taps, cir.ts_s, 5),
                          det.detect_with_trace(cir.taps, cir.ts_s, 5).responses,
                          seed);
  }
}

TEST(FastPathEquivalence, TracedDetectEqualsExactPath) {
  // Tracing always runs the exact path: its responses are the fast path's
  // to roundoff, and it records one filter output per iteration.
  SearchSubtractDetector det{multi_shape_config()};
  const auto cir = random_cir(7, 3, 3);
  const auto fast = det.detect(cir.taps, cir.ts_s, 4);
  const auto trace = det.detect_with_trace(cir.taps, cir.ts_s, 4);
  expect_same_responses(fast, trace.responses, 7);
  // One filter output per iteration, including the final rejected one when
  // the search stopped at the noise floor before max_responses.
  EXPECT_GE(trace.mf_outputs.size(), trace.responses.size());
  EXPECT_LE(trace.mf_outputs.size(), trace.responses.size() + 1);
}

// How a search-and-subtract run ended.
enum class Exit { kNoiseFloor, kRelativeStop, kMaxResponses };

const char* exit_name(Exit e) {
  switch (e) {
    case Exit::kNoiseFloor: return "noise floor";
    case Exit::kRelativeStop: return "relative stop";
    case Exit::kMaxResponses: return "max_responses";
  }
  return "?";
}

// The exit the exact path took, read off its trace: a stopped search
// records one rejected filter output after the accepted ones, and its peak
// decides which stop fired (checked in the exact path's order).
Exit exact_exit(const SearchSubtractDetector::DetectionTrace& trace) {
  if (trace.mf_outputs.size() == trace.responses.size())
    return Exit::kMaxResponses;
  const CVec& y = trace.mf_outputs.back();
  const double mag = std::abs(y[dsp::argmax_abs(y)]);
  return mag < kNoiseThresholdFactor * dsp::noise_sigma_estimate(y)
             ? Exit::kNoiseFloor
             : Exit::kRelativeStop;
}

// Recorder on and empty for the test, off and empty afterwards.
class RecordedDetect : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::FlightRecorder::instance().reset();
    obs::FlightRecorder::set_enabled(true);
  }
  void TearDown() override {
    obs::FlightRecorder::set_enabled(false);
    obs::FlightRecorder::instance().reset();
  }

  // The detect events one call of `run` records.
  template <typename Run>
  static std::vector<obs::FrRecord> detect_events(Run run) {
    obs::FlightRecorder::instance().reset();
    run();
    std::vector<obs::FrRecord> events;
    for (const obs::FrRecord& r : obs::FlightRecorder::instance().collect())
      if (r.kind == obs::FrKind::kDetect) events.push_back(r);
    return events;
  }
};

// The exit the fast path took, read off its last detect event.
Exit fast_exit(const std::vector<obs::FrRecord>& events) {
  if (events.empty() || std::strcmp(events.back().name, "peak_rejected") != 0)
    return Exit::kMaxResponses;
  return std::strcmp(events.back().detail, "below_noise") == 0
             ? Exit::kNoiseFloor
             : Exit::kRelativeStop;
}

// One CIR per exit: two moderate pulses over noise stop at the noise floor
// before max_responses; a strong pulse with a weak one under
// kRelativeStopFraction of it, over a far lower noise floor, stops
// relatively; four strong pulses asked for two reach max_responses.
struct StopCase {
  Exit exit;
  std::vector<std::pair<double, double>> arrivals;  // (position [taps], amp)
  double noise_sigma;
  int max_responses;
};

const StopCase kStopCases[] = {
    {Exit::kNoiseFloor, {{60.0, 0.3}, {300.0, 0.2}}, 0.004, 6},
    {Exit::kRelativeStop, {{60.0, 0.9}, {400.0, 0.01}}, 1e-5, 6},
    {Exit::kMaxResponses,
     {{60.0, 0.5}, {200.0, 0.4}, {350.0, 0.6}, {500.0, 0.3}},
     0.004,
     2},
};

dw::CirEstimate stop_case_cir(const StopCase& c, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<dw::CirArrival> arrivals;
  for (std::size_t i = 0; i < c.arrivals.size(); ++i) {
    dw::CirArrival a;
    a.time_into_window_s = c.arrivals[i].first * k::cir_ts_s;
    a.amplitude = Complex(c.arrivals[i].second, 0.0) * rng.random_phase();
    a.tc_pgdelay = kShapeBank[i % 3];
    arrivals.push_back(a);
  }
  dw::CirParams params;
  params.noise_sigma = c.noise_sigma;
  return dw::synthesize_cir(arrivals, params, rng);
}

TEST_F(RecordedDetect, FastMatchesExactOnEveryStopReason) {
  SearchSubtractDetector det{multi_shape_config()};
  for (const StopCase& c : kStopCases) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const auto cir = stop_case_cir(c, seed);
      std::vector<DetectedResponse> fast;
      const auto fast_events = detect_events(
          [&] { fast = det.detect(cir.taps, cir.ts_s, c.max_responses); });
      const auto trace =
          det.detect_with_trace(cir.taps, cir.ts_s, c.max_responses);
      expect_same_responses(fast, trace.responses, seed);
      // The case takes the exit it is named for, on both paths.
      EXPECT_EQ(exact_exit(trace), c.exit)
          << exit_name(c.exit) << " seed=" << seed;
      if (c.exit != Exit::kMaxResponses) {
        EXPECT_LT(fast.size(), static_cast<std::size_t>(c.max_responses));
      }
      if (obs::kEnabled) {
        EXPECT_EQ(fast_exit(fast_events), c.exit)
            << exit_name(c.exit) << " seed=" << seed;
      }
    }
  }
}

TEST_F(RecordedDetect, FastPathEventPayloadsMatchExactPath) {
  // The fast path decides the noise-floor stop by counting and selects the
  // median only for these payloads: they must carry what the exact path's
  // full-median test reports.
  if (!obs::kEnabled) GTEST_SKIP() << "record sites compiled out";
  SearchSubtractDetector det{multi_shape_config()};
  for (const StopCase& c : kStopCases) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const auto cir = stop_case_cir(c, seed);
      const auto fast = detect_events(
          [&] { det.detect(cir.taps, cir.ts_s, c.max_responses); });
      const auto exact = detect_events(
          [&] { det.detect_with_trace(cir.taps, cir.ts_s, c.max_responses); });
      const auto trace =
          det.detect_with_trace(cir.taps, cir.ts_s, c.max_responses);
      ASSERT_EQ(fast.size(), exact.size()) << exit_name(c.exit);
      ASSERT_EQ(exact.size(), trace.mf_outputs.size()) << exit_name(c.exit);
      for (std::size_t i = 0; i < fast.size(); ++i) {
        SCOPED_TRACE(std::string(exit_name(c.exit)) + " seed=" +
                     std::to_string(seed) + " event=" + std::to_string(i));
        ASSERT_STREQ(fast[i].name, exact[i].name);
        EXPECT_STREQ(fast[i].detail, exact[i].detail);
        const bool accepted = std::strcmp(fast[i].name, "peak_accepted") == 0;
        // Shape: v3 on accepted events, v2 on rejected ones.
        const obs::FrValue& fast_shape = accepted ? fast[i].v3 : fast[i].v2;
        const obs::FrValue& exact_shape = accepted ? exact[i].v3 : exact[i].v2;
        EXPECT_STREQ(fast_shape.key, "shape");
        EXPECT_EQ(fast_shape.value, exact_shape.value);
        ASSERT_STREQ(fast[i].v1.key, "threshold");
        EXPECT_NEAR(fast[i].v1.value, exact[i].v1.value,
                    1e-9 * exact[i].v1.value);
        // The noise threshold is K * noise_sigma_estimate of the filter
        // output the iteration searched.
        const bool relative = fast[i].detail != nullptr &&
                              std::strcmp(fast[i].detail, "relative_stop") == 0;
        if (!relative) {
          EXPECT_NEAR(fast[i].v1.value,
                      kNoiseThresholdFactor *
                          dsp::noise_sigma_estimate(trace.mf_outputs[i]),
                      1e-9 * fast[i].v1.value);
        }
      }
    }
  }
}

TEST(FastPathEquivalence, ApplySpectrumMatchesApply) {
  Rng rng(11);
  const CVec tmpl_raw = dw::sample_pulse_template(0x93, k::cir_ts_s / 8.0);
  const dsp::MatchedFilter mf(tmpl_raw);
  for (const std::size_t n : {500ul, 1024ul, 5000ul}) {
    CVec r(n);
    for (auto& v : r) v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
    const CVec direct = mf.apply(r);
    const std::size_t padded = dsp::next_pow2(n + mf.template_length() - 1);
    CVec buf(padded, Complex{});
    std::copy(r.begin(), r.end(), buf.begin());
    dsp::plan_for(padded).transform_pow2(buf.data(), false);
    CVec out;
    mf.apply_spectrum(buf.data(), padded, n, out);
    ASSERT_EQ(out.size(), direct.size());
    double max_diff = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      max_diff = std::max(max_diff, std::abs(out[i] - direct[i]));
    EXPECT_LT(max_diff, 1e-10) << "n=" << n;
  }
}

TEST(FastPathEquivalence, BankCacheCountsSharedBanks) {
  // The bank cache counts into the calling thread's shard in every build
  // flavour, so this runs with instrumentation compiled out too.
  SearchSubtractDetector::clear_bank_cache();
  obs::Shard& shard = obs::MetricsRegistry::instance().local_shard();
  const obs::Counter& hits = shard.counter("cache_bank_hits");
  const obs::Counter& misses = shard.counter("cache_bank_misses");
  const std::uint64_t hits_before = hits.value();
  const std::uint64_t misses_before = misses.value();
  const auto cir = random_cir(3, 2, 2);
  SearchSubtractDetector a{multi_shape_config()};
  SearchSubtractDetector b{multi_shape_config()};
  a.detect(cir.taps, cir.ts_s, 2);
  b.detect(cir.taps, cir.ts_s, 2);  // same config: bank comes from cache
  EXPECT_EQ(misses.value() - misses_before, 1u);
  EXPECT_EQ(hits.value() - hits_before, 1u);
}

TEST(FastPathEquivalence, McDetectionBitIdenticalAcrossThreadCounts) {
  // The fast path keeps per-thread scratch (residual spectra, correlation
  // outputs) — worker reuse across trials must never leak state between
  // trials. Full detection pipeline, 1 thread vs 4, bitwise-equal samples.
  const auto run = [](int threads) {
    runner::MonteCarlo::Config cfg;
    cfg.threads = threads;
    cfg.base_seed = 99;
    return runner::MonteCarlo(cfg).run(40, [](const runner::TrialContext& ctx,
                                              runner::TrialRecorder& rec) {
      const auto cir = random_cir(ctx.seed, 1, 4);
      SearchSubtractDetector det{multi_shape_config()};
      const auto found = det.detect(cir.taps, cir.ts_s, 5);
      rec.count("responses", static_cast<std::int64_t>(found.size()));
      for (const auto& r : found) {
        rec.sample("tau_s", r.tau_s);
        rec.sample("amp", std::abs(r.amplitude));
        rec.sample("shape", static_cast<double>(r.shape_index));
      }
    });
  };
  const auto serial = run(1);
  const auto parallel = run(4);
  EXPECT_EQ(serial.counter("responses"), parallel.counter("responses"));
  ASSERT_EQ(serial.metric_names(), parallel.metric_names());
  for (const auto& name : serial.metric_names()) {
    const RVec& a = serial.samples(name);
    const RVec& b = parallel.samples(name);
    ASSERT_EQ(a.size(), b.size()) << name;
    for (std::size_t i = 0; i < a.size(); ++i)
      EXPECT_EQ(a[i], b[i]) << name << "[" << i << "]";
  }
}

}  // namespace
}  // namespace uwb::ranging
