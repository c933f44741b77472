// The perfbench binary: one workload, one seed, one closed-loop timed run.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--t0-ns NS] [--out-dir DIR] [--setup-only]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// traces every odd trial (per-layer metrics), keeps the even ones untraced
// (runner metrics, tracing-overhead baseline under the same machine load),
// and writes the traced spans to DIR/spans-<workload>-<seed>.jsonl.
// --setup-only stops after set-up and reports setup_s alone. --t0-ns is the CLOCK_MONOTONIC instant the caller
// started the process; set-up time counts from there (default: main()).
//
// Prints one JSON object as the last line of stdout. Exit status 1 when a
// correctness check failed, 2 when the arguments are bad.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "simd/simd.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::int64_t t0_ns = 0;
  std::string out_dir = ".";
  bool setup_only = false;
};

bool parse(int argc, char** argv, Options& o) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--setup-only") {
      o.setup_only = true;
    } else if (!has_value) {
      return false;
    } else if (a == "--workload") {
      o.workload = argv[++i];
    } else if (a == "--seed") {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      o.seconds = std::atof(argv[++i]);
    } else if (a == "--trace") {
      o.trace = std::atoi(argv[++i]);
    } else if (a == "--t0-ns") {
      o.t0_ns = std::strtoll(argv[++i], nullptr, 10);
    } else if (a == "--out-dir") {
      o.out_dir = argv[++i];
    } else {
      return false;
    }
  }
  return have_seed && !o.workload.empty() &&
         (o.setup_only || (o.seconds > 0.0 && (o.trace == 0 || o.trace == 1)));
}

/// Insertion-ordered JSON object of numbers and strings.
class Json {
 public:
  void num(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    fields_.emplace_back(key, buf);
  }
  void str(const std::string& key, const std::string& v) {
    fields_.emplace_back(key, "\"" + v + "\"");
  }
  void raw(const std::string& key, const std::string& v) {
    fields_.emplace_back(key, v);
  }
  std::string dump() const {
    std::string s = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i) s += ", ";
      s += "\"" + fields_[i].first + "\": " + fields_[i].second;
    }
    return s + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Peak resident set of this process image [MB]: VmHWM, which unlike
/// getrusage's ru_maxrss does not carry over the parent's peak across exec.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr)
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  std::fclose(f);
  return kib / 1024.0;
}

std::vector<const RoundRecord*> done_rounds(const TimedRun& run) {
  std::vector<const RoundRecord*> out;
  for (const RoundRecord& r : run.rounds)
    if (r.done) out.push_back(&r);
  return out;
}

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// End-to-end metrics of an untraced run.
void end_to_end(const TimedRun& run, Json& metrics, Json& info) {
  const auto rounds = done_rounds(run);
  const double n = static_cast<double>(rounds.size());
  std::vector<double> round_ms;
  std::vector<double> err_cm;
  double with_estimate = 0.0, matched = 0.0, responders = 0.0;
  for (const RoundRecord* r : rounds) {
    round_ms.push_back(ms(r->end_ns - r->start_ns));
    for (const double e : r->abs_error_m) err_cm.push_back(100.0 * e);
    with_estimate += r->has_estimate ? 1.0 : 0.0;
    matched += r->matched;
    responders += r->responders;
  }
  const TailPercentile p90 = tail_percentile(round_ms, 90.0);
  const TailPercentile err90 = tail_percentile(err_cm, 90.0);
  metrics.num("rounds_per_s", n / (static_cast<double>(run.last_end_ns - run.start_ns) / 1e9));
  metrics.num("round_ms_p50", median(round_ms));
  metrics.num("round_ms_p90", p90.value);
  metrics.num("peak_rss_mb", peak_rss_mb());
  metrics.num("rounds_ok_pct", 100.0 * with_estimate / n);
  metrics.num("responders_ok_pct", responders > 0 ? 100.0 * matched / responders : 0.0);
  metrics.num("range_err_cm_p90", err90.value);

  info.num("round_samples", n);
  info.num("round_ms_p90_percentile", p90.percentile);
  info.num("round_ms_p90_beyond", static_cast<double>(p90.beyond));
  info.num("round_fail_pct", 100.0 * (n - with_estimate) / n);
  info.num("matched_estimates", static_cast<double>(err_cm.size()));
  info.num("range_err_cm_p90_percentile", err90.percentile);
  info.num("measured_s", static_cast<double>(run.last_end_ns - run.start_ns) / 1e9);
}

/// Runner metrics. Busy time and the slowest trial come from the
/// untraced trials; idle time counts every trial.
void runner_layer(const TimedRun& run, Json& metrics) {
  double busy_all = 0.0, busy = 0.0, max_trial = 0.0, untraced = 0.0;
  for (const RoundRecord* r : done_rounds(run)) {
    const double t = ms(r->trial_end_ns - r->trial_start_ns);
    busy_all += t;
    if (r->trace) continue;
    busy += t;
    untraced += 1.0;
    max_trial = std::max(max_trial, t);
  }
  const double wall = ms(run.drained_ns - run.start_ns);
  metrics.num("runner.busy_ms", untraced > 0.0 ? busy / untraced : 0.0);
  metrics.num("runner.idle_pct", 100.0 * (1.0 - busy_all / (wall * run.workers)));
  metrics.num("runner.trial_ms_max", max_trial);
}

struct SpanTotals {
  double cir_synthesis = 0.0, detect = 0.0, sim_dispatch = 0.0, session_round = 0.0;
  std::uint64_t cir_synthesis_count = 0;
};

/// In-program span totals (obs registry) so far.
SpanTotals span_totals(const uwb::obs::Snapshot& snap) {
  SpanTotals t;
  if (const auto* s = snap.span("cir_synthesis")) {
    t.cir_synthesis = s->total_ms;
    t.cir_synthesis_count = s->count;
  }
  if (const auto* s = snap.span("detect")) t.detect = s->total_ms;
  if (const auto* s = snap.span("sim_dispatch")) t.sim_dispatch = s->total_ms;
  if (const auto* s = snap.span("session_round")) t.session_round = s->total_ms;
  return t;
}

double hit_rate(const uwb::obs::Snapshot& snap, const std::string& cache) {
  const double hits = static_cast<double>(snap.counter("cache_" + cache + "_hits"));
  const double misses = static_cast<double>(snap.counter("cache_" + cache + "_misses"));
  return hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
}

/// Per-layer metrics of a run whose odd trials were traced: means per
/// traced round unless a ratio, and the tracing overhead against the
/// untraced trials of the same run. The in-program span totals per round go
/// to `info`, as a cross-check of the replay attribution.
void per_layer(const TimedRun& run, const SpanTotals& before,
               const SpanTotals& after, Json& metrics, Json& info) {
  std::vector<const RoundRecord*> rounds;
  double untraced_ms = 0.0, untraced = 0.0;
  for (const RoundRecord* r : done_rounds(run)) {
    if (r->trace) {
      rounds.push_back(r);
    } else {
      untraced_ms += ms(r->end_ns - r->start_ns);
      untraced += 1.0;
    }
  }
  const double n = static_cast<double>(std::max<std::size_t>(rounds.size(), 1));
  const double all = std::max(1.0, n + untraced);
  double wall = 0, construct = 0, channel = 0, cir = 0, detect = 0, protocol = 0,
         sim_self = 0;
  double tx = 0, delivered = 0, realized = 0, culled = 0;
  double spurious = 0, missed = 0;
  LayerCounts c;
  int realize_mismatches = 0;
  for (const RoundRecord* r : rounds) {
    const auto& spans = r->trace->spans;
    int self_span = -1;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const std::string name = spans[i].name;
      const double d = ms(spans[i].duration_ns());
      if (name == "round") {
        wall += d;
        if (self_span < 0) self_span = static_cast<int>(i);
      } else if (name == "session.construct") {
        construct += d;
      } else if (name == "session.run_round") {
        self_span = static_cast<int>(i);
      } else if (name == "replay.channel") {
        channel += d;
      } else if (name == "replay.cir") {
        cir += d;
      } else if (name == "replay.detect") {
        detect += d;
      } else if (name == "replay.protocol") {
        protocol += d;
      }
    }
    if (self_span >= 0) sim_self += ms(self_ns(spans, static_cast<std::size_t>(self_span)));
    tx += static_cast<double>(r->frames_transmitted);
    delivered += static_cast<double>(r->frames_delivered);
    realized += static_cast<double>(r->channels_realized);
    culled += static_cast<double>(r->receivers_culled);
    spurious += r->spurious;
    missed += r->missed;
    c.realize_calls += r->trace->counts.realize_calls;
    c.realized_taps += r->trace->counts.realized_taps;
    c.cir_synthesized += r->trace->counts.cir_synthesized;
    c.cir_read += r->trace->counts.cir_read;
    c.detect_calls += r->trace->counts.detect_calls;
    c.detections += r->trace->counts.detections;
    realize_mismatches += r->trace->counts.realize_count_mismatch ? 1 : 0;
  }
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const double traced_round_ms = wall / n;
  metrics.num("round.wall_ms", traced_round_ms);
  metrics.num("session.construct_ms", construct / n);
  metrics.num("sim.self_ms", sim_self / n);
  metrics.num("sim.frames_transmitted", tx / n);
  metrics.num("sim.frames_delivered", delivered / n);
  metrics.num("sim.channels_realized", realized / n);
  metrics.num("sim.receivers_culled", culled / n);
  metrics.num("sim.delivered_per_realized", ratio(delivered, realized));
  metrics.num("channel.realize_ms", channel / n);
  // Per realization; on a workload that realizes none, the channel span's
  // time per round.
  metrics.num("channel.realize_us_per_call",
              1000.0 * channel / std::max(static_cast<double>(c.realize_calls), n));
  metrics.num("channel.taps_per_realization",
              ratio(static_cast<double>(c.realized_taps), static_cast<double>(c.realize_calls)));
  metrics.num("cir.synthesize_ms", cir / n);
  metrics.num("cir.synthesized", static_cast<double>(c.cir_synthesized) / n);
  metrics.num("cir.read_ratio", ratio(static_cast<double>(c.cir_read),
                                      static_cast<double>(c.cir_synthesized)));
  metrics.num("detect.ms", detect / n);
  metrics.num("detect.responses_per_call",
              ratio(static_cast<double>(c.detections), static_cast<double>(c.detect_calls)));
  metrics.num("detect.spurious_per_round", spurious / n);
  metrics.num("detect.missed_per_round", missed / n);
  metrics.num("protocol.ms", protocol / n);
  const double untraced_round_ms = untraced > 0.0 ? untraced_ms / untraced : 0.0;
  metrics.num("obs.trace_overhead_pct",
              untraced_round_ms > 0.0 ? 100.0 * (traced_round_ms / untraced_round_ms - 1.0) : 0.0);

  info.num("traced_rounds", static_cast<double>(rounds.size()));
  // In-program span totals per round, over every round of the run.
  info.num("span.cir_synthesis_ms", (after.cir_synthesis - before.cir_synthesis) / all);
  info.num("span.detect_ms", (after.detect - before.detect) / all);
  info.num("span.sim_dispatch_ms", (after.sim_dispatch - before.sim_dispatch) / all);
  info.num("span.session_round_ms", (after.session_round - before.session_round) / all);
  info.num("layer_sum_ms", (construct + sim_self + channel + cir + detect + protocol) / n);
  info.num("cir_synthesized_per_round_in_program",
           static_cast<double>(after.cir_synthesis_count - before.cir_synthesis_count) / all);
  info.num("realize_count_mismatch_rounds", realize_mismatches);
}

/// Spans of a traced run, one JSON object per line.
bool write_spans(const std::string& path, const TimedRun& run) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const RoundRecord& r : run.rounds) {
    if (!r.done || !r.trace) continue;
    for (const SpanRecord& s : r.trace->spans)
      std::fprintf(f,
                   "{\"round\": %llu, \"name\": \"%s\", \"start_ns\": %lld, "
                   "\"end_ns\": %lld, \"parent\": %d}\n",
                   static_cast<unsigned long long>(s.round), s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent);
  }
  return std::fclose(f) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t main_ns = now_ns();
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload hallway_fig4|building_n200|cir_replay "
                 "--seed N --seconds S --trace 0|1 [--t0-ns NS] [--out-dir DIR] "
                 "[--setup-only]\n");
    return 2;
  }
  const auto kind = parse_workload(opt.workload);
  if (!kind) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  const std::int64_t t0 = opt.t0_ns > 0 ? opt.t0_ns : main_ns;

  Workload workload(*kind, opt.seed, opt.out_dir);
  bool setup_ok = false;
  const double warmup_ms = workload.setup(&setup_ok);
  const double setup_s = static_cast<double>(now_ns() - t0) / 1e9;
  if (!setup_ok) {
    std::fprintf(stderr, "set-up failed\n");
    return 1;
  }

  Json out;
  out.str("workload", opt.workload);
  out.num("seed", static_cast<double>(opt.seed));
  out.num("setup_s", setup_s);
  if (opt.setup_only) {
    std::printf("%s\n", out.dump().c_str());
    return 0;
  }

  Json metrics, info;
  info.str("build_type", PERFBENCH_BUILD_TYPE);
  info.str("simd_level", uwb::simd::level_name(uwb::simd::active_level()));
  info.num("workers", workload.workers());
  info.num("warmup_round_ms", warmup_ms);

  const int capacity = workload.capacity(opt.seconds);
  const std::uint64_t base_seed = uwb::derive_seed(opt.seed, kTimedStream);
  const auto& registry = uwb::obs::MetricsRegistry::instance();
  const SpanTotals before = span_totals(registry.aggregate());
  const TimedRun run =
      run_timed(workload, base_seed, opt.seconds, opt.trace == 1, capacity);
  if (opt.trace == 0) {
    end_to_end(run, metrics, info);
    metrics.num("setup_s", setup_s);
  } else {
    const uwb::obs::Snapshot snap = registry.aggregate();
    runner_layer(run, metrics);
    per_layer(run, before, span_totals(snap), metrics, info);
    metrics.num("cache.pulse_hit_rate", hit_rate(snap, "pulse"));
    metrics.num("cache.bank_hit_rate", hit_rate(snap, "bank"));
    metrics.num("cache.fft_plan_hit_rate", hit_rate(snap, "fft_plan"));
    const std::string path = opt.out_dir + "/spans-" + opt.workload + "-" +
                             std::to_string(opt.seed) + ".jsonl";
    if (!write_spans(path, run)) std::fprintf(stderr, "cannot write %s\n", path.c_str());
    info.str("spans_path", path);
  }

  const auto done = done_rounds(run);
  info.num("capacity_exhausted", done.size() >= run.rounds.size() ? 1 : 0);
  std::uint64_t digest = 0;
  const int failed = workload.check(base_seed, run.rounds, &digest);
  char hex[24];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(digest));

  out.raw("correct", failed == 0 ? "true" : "false");
  out.num("attempted", static_cast<double>(done.size()));
  out.num("failed", failed);
  out.str("outcome_digest", hex);
  out.raw("metrics", metrics.dump());
  out.raw("info", info.dump());
  std::printf("%s\n", out.dump().c_str());
  return failed == 0 ? 0 : 1;
}
