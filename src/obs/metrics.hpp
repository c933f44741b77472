// Metrics core of the observability subsystem (DESIGN.md Sect. 9).
//
// A process-wide MetricsRegistry hands every thread its own Shard of
// counters, gauges, and fixed-bucket histograms. Instrumented code mutates
// only its own shard — plain non-atomic writes, no cross-thread traffic on
// the hot path — and aggregate() merges all shards into one Snapshot with
// names in sorted order, so the merged output is deterministic given the
// same shard contents. Counters of deterministic per-trial events (integer
// sums, order-independent) therefore aggregate bit-identically at any
// worker-thread count, preserving the Monte-Carlo determinism contract of
// DESIGN.md Sect. 7; wall-clock quantities (span timings, latencies) are
// inherently scheduling-dependent and surface under skipped prefixes in
// the bench JSON (`obs_*`, like `mc_*`/`cache_*`).
//
// A shard is the only per-thread obs state: besides the metrics it holds
// the thread's span stack and trace buffer (trace_sink.hpp) and, once the
// thread first records, its flight-recorder ring (flight_recorder.hpp).
//
// Quiescence contract: aggregate(), reset(), the trace-sink collectors and
// the flight-recorder collectors (collect(), to_jsonl(), the event totals,
// set_capacity(), reset()) must not run concurrently with instrumentation
// on other threads. The benches and the Monte-Carlo runner satisfy this by
// aggregating only after MonteCarlo::run returns (joining its worker threads
// establishes the happens-before edge); tests join their threads first.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace uwb::obs {

class FrShard;

/// Nanoseconds since an arbitrary process-wide steady-clock anchor (the
/// first call). All span/trace timestamps share this origin.
std::uint64_t monotonic_ns();

/// Single-writer counter: incremented only by the shard-owning thread.
class Counter {
 public:
  void add(std::uint64_t delta = 1) { value_ += delta; }
  std::uint64_t value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// Single-writer last-value gauge. Shards aggregate gauges by maximum
/// (the only order-independent choice that stays meaningful for the
/// typical "configured level / high-water mark" uses).
class Gauge {
 public:
  void set(double value) { value_ = value; }
  double value() const { return value_; }
  void reset() { value_ = 0.0; }

 private:
  double value_ = 0.0;
};

/// Fixed bucket layout: ascending inclusive upper edges plus an implicit
/// overflow bucket. Histograms only merge when layouts match exactly.
struct HistogramBuckets {
  std::vector<double> uppers;

  /// `count` buckets with uppers first_upper * factor^i.
  static HistogramBuckets exponential(double first_upper, double factor,
                                      int count);
  /// `count` buckets with uppers first_upper + width * i.
  static HistogramBuckets linear(double first_upper, double width, int count);

  bool operator==(const HistogramBuckets& other) const {
    return uppers == other.uppers;
  }
};

/// Bucket layout used for per-trial latency [ms]: 1 µs .. ~8.4 s,
/// factor-2 spacing.
const HistogramBuckets& latency_buckets_ms();

/// Bucket layout for per-frame delivery fan-out (receivers reached by one
/// transmission): 0 .. 2048, factor-2 spacing above 1.
const HistogramBuckets& fanout_buckets();

/// Fixed-bucket histogram with exact count/sum/min/max and
/// linearly-interpolated quantile estimates.
class Histogram {
 public:
  explicit Histogram(HistogramBuckets buckets);

  void observe(double value);
  /// Add `other`'s contents; layouts must match.
  void merge(const Histogram& other);
  void reset();

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  /// Smallest / largest observed value (0 when empty).
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double mean() const {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }

  /// Quantile estimate for q in [0, 1]: linear interpolation inside the
  /// covering bucket, clamped to [min, max]. 0 when empty.
  double quantile(double q) const;

  /// Bucket a value falls into: first i with value <= uppers[i], else the
  /// overflow bucket uppers.size().
  std::size_t bucket_index(double value) const;
  /// Count in bucket i (i == uppers.size() is the overflow bucket).
  std::uint64_t bucket_count(std::size_t i) const { return counts_[i]; }

  const HistogramBuckets& buckets() const { return buckets_; }

 private:
  HistogramBuckets buckets_;
  std::vector<std::uint64_t> counts_;  // uppers.size() + 1 slots
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Totals of one span name within a shard (trace_sink aggregates these
/// into the per-stage timings of the bench JSON).
struct SpanStat {
  const char* name = nullptr;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
};

/// One completed span, recorded only while tracing is enabled
/// (see trace_sink.hpp).
struct TraceEvent {
  const char* name = nullptr;
  std::uint64_t start_ns = 0;  // monotonic_ns() origin
  std::uint64_t dur_ns = 0;
  int tid = 0;    // shard id
  int depth = 0;  // span-stack depth at entry (0 = top level)
};

/// Per-thread slice of the registry. All mutation goes through the owning
/// thread; names are compared literally. References returned by
/// counter()/gauge()/histogram() stay valid for the process lifetime
/// (reset() zeroes values in place), which lets call sites cache them in
/// `static thread_local` handles.
class Shard {
 public:
  /// Cap on buffered trace events per shard: bounds memory when a long
  /// traced run never drains the sink (~5 MB/shard worst case).
  static constexpr std::size_t kMaxTraceEventsPerShard = std::size_t{1} << 18;

  explicit Shard(int id);
  ~Shard();
  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  int id() const { return id_; }

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// First call per name fixes the layout; later calls must pass an equal
  /// layout.
  Histogram& histogram(std::string_view name, const HistogramBuckets& buckets);

  // --- span plumbing (used by obs::Span and the trace sink) ---------------
  /// Push one level onto the span stack; returns the depth of the new span.
  int enter_span() { return span_depth_++; }
  /// Pop a span: record its totals and, when tracing, its trace event.
  void exit_span(const char* name, std::uint64_t start_ns,
                 std::uint64_t dur_ns, int depth);
  int span_depth() const { return span_depth_; }

  // --- aggregation access (quiescence contract applies) -------------------
  const std::deque<std::pair<std::string, Counter>>& counters() const {
    return counters_;
  }
  const std::deque<std::pair<std::string, Gauge>>& gauges() const {
    return gauges_;
  }
  const std::deque<std::pair<std::string, Histogram>>& histograms() const {
    return histograms_;
  }
  const std::vector<SpanStat>& span_stats() const { return span_stats_; }
  const std::vector<TraceEvent>& trace_events() const { return trace_; }

  /// This thread's flight-recorder ring, or nullptr before its first
  /// record: FlightRecorder::local_shard() creates it, so threads that
  /// never record carry no ring (a default one is ~24 MB).
  FrShard* flight_ring() const { return flight_ring_.get(); }

  void clear_trace_events() { trace_.clear(); }
  /// Zero every value in place (references stay valid). The flight ring
  /// is left alone; FlightRecorder::reset() clears it.
  void reset();

 private:
  friend class FlightRecorder;
  SpanStat& span_stat(const char* name);

  int id_ = 0;
  // deque: reference stability under growth.
  std::deque<std::pair<std::string, Counter>> counters_;
  std::deque<std::pair<std::string, Gauge>> gauges_;
  std::deque<std::pair<std::string, Histogram>> histograms_;
  std::vector<SpanStat> span_stats_;
  std::vector<TraceEvent> trace_;
  int span_depth_ = 0;
  std::unique_ptr<FrShard> flight_ring_;
};

/// Deterministically merged view over every shard: names sorted, counters
/// summed, gauges max-merged, histograms bucket-added, span totals summed.
struct Snapshot {
  struct SpanTotal {
    std::string name;
    std::uint64_t count = 0;
    double total_ms = 0.0;
  };

  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, Histogram>> histograms;
  std::vector<SpanTotal> spans;

  /// Sum of `name` over all shards (0 if never recorded).
  std::uint64_t counter(std::string_view name) const;
  /// Merged histogram (nullptr if never recorded).
  const Histogram* histogram(std::string_view name) const;
  /// Merged span totals (nullptr if never recorded).
  const SpanTotal* span(std::string_view name) const;

  /// Prometheus text exposition (format 0.0.4) of the snapshot: counters
  /// and gauges as scalars, histograms with cumulative `_bucket{le=...}`
  /// series plus `_sum`/`_count`, span totals as `_calls_total`/`_ms_total`
  /// counter pairs. Metric names are prefixed `uwb_` and sanitized to
  /// [a-zA-Z0-9_:]. Deterministic: names sorted (Snapshot order), numbers
  /// printed with %.17g.
  std::string to_prometheus() const;
};

class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  /// The calling thread's shard (created and registered on first use;
  /// retained after thread exit so totals survive worker churn).
  Shard& local_shard();

  /// Merge every shard (quiescence contract applies).
  Snapshot aggregate() const;

  /// Zero all shards in place (tests). Cached Counter/Gauge/Histogram
  /// references stay valid.
  void reset();

  /// Stable pointers to every registered shard, in registration order
  /// (for the trace sink and the flight recorder).
  std::vector<Shard*> shards() const;

 private:
  MetricsRegistry() = default;
  Shard& register_shard();

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace uwb::obs
