#include "obs/metrics.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>

#include "common/expects.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/trace_sink.hpp"

namespace uwb::obs {

std::uint64_t monotonic_ns() {
  static const auto anchor = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - anchor)
          .count());
}

HistogramBuckets HistogramBuckets::exponential(double first_upper,
                                               double factor, int count) {
  UWB_EXPECTS(first_upper > 0.0);
  UWB_EXPECTS(factor > 1.0);
  UWB_EXPECTS(count >= 1);
  HistogramBuckets b;
  b.uppers.reserve(static_cast<std::size_t>(count));
  double upper = first_upper;
  for (int i = 0; i < count; ++i) {
    b.uppers.push_back(upper);
    upper *= factor;
  }
  return b;
}

HistogramBuckets HistogramBuckets::linear(double first_upper, double width,
                                          int count) {
  UWB_EXPECTS(width > 0.0);
  UWB_EXPECTS(count >= 1);
  HistogramBuckets b;
  b.uppers.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i)
    b.uppers.push_back(first_upper + width * static_cast<double>(i));
  return b;
}

const HistogramBuckets& latency_buckets_ms() {
  // 1 µs, 2 µs, 4 µs, ... ~8.4 s: covers one Monte-Carlo trial from a
  // trivially cheap closure to a pathologically slow scenario round.
  static const HistogramBuckets buckets =
      HistogramBuckets::exponential(1e-3, 2.0, 24);
  return buckets;
}

const HistogramBuckets& fanout_buckets() {
  // 0, 1, 2, 4, ... 2048: a broadcast in a small room lands in the low
  // buckets; a building-scale unculled medium can reach every node.
  static const HistogramBuckets buckets = [] {
    HistogramBuckets b = HistogramBuckets::exponential(1.0, 2.0, 12);
    b.uppers.insert(b.uppers.begin(), 0.0);
    return b;
  }();
  return buckets;
}

Histogram::Histogram(HistogramBuckets buckets)
    : buckets_(std::move(buckets)),
      counts_(buckets_.uppers.size() + 1, 0) {
  UWB_EXPECTS(!buckets_.uppers.empty());
  UWB_EXPECTS(std::is_sorted(buckets_.uppers.begin(), buckets_.uppers.end()));
}

std::size_t Histogram::bucket_index(double value) const {
  // First bucket whose (inclusive) upper edge covers the value.
  const auto it =
      std::lower_bound(buckets_.uppers.begin(), buckets_.uppers.end(), value);
  return static_cast<std::size_t>(it - buckets_.uppers.begin());
}

// uwb-hot-path: metric record path; called from spans on the detector and
// medium hot loops, so it must stay pure arithmetic on preallocated state.
void Histogram::observe(double value) {
  ++counts_[bucket_index(value)];
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
}

void Histogram::merge(const Histogram& other) {
  UWB_EXPECTS(buckets_ == other.buckets_);
  for (std::size_t i = 0; i < counts_.size(); ++i)
    counts_[i] += other.counts_[i];
  if (other.count_ > 0) {
    min_ = count_ ? std::min(min_, other.min_) : other.min_;
    max_ = count_ ? std::max(max_, other.max_) : other.max_;
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

void Histogram::reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  count_ = 0;
  sum_ = min_ = max_ = 0.0;
}

double Histogram::quantile(double q) const {
  UWB_EXPECTS(q >= 0.0 && q <= 1.0);
  if (count_ == 0) return 0.0;
  const double target = q * static_cast<double>(count_);
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    if (counts_[b] == 0) continue;
    const double before = static_cast<double>(cum);
    cum += counts_[b];
    if (static_cast<double>(cum) >= target) {
      const double lower = b == 0 ? min_ : buckets_.uppers[b - 1];
      const double upper = b < buckets_.uppers.size()
                               ? std::min(buckets_.uppers[b], max_)
                               : max_;
      const double lo = std::max(lower, min_);
      const double frac =
          (target - before) / static_cast<double>(counts_[b]);
      return std::clamp(lo + frac * (upper - lo), min_, max_);
    }
  }
  return max_;
}

// Out of line: the ring's deleter needs FrShard complete.
Shard::Shard(int id) : id_(id) {}
Shard::~Shard() = default;

Counter& Shard::counter(std::string_view name) {
  for (auto& [n, c] : counters_)
    if (n == name) return c;
  counters_.emplace_back(std::string(name), Counter{});
  return counters_.back().second;
}

Gauge& Shard::gauge(std::string_view name) {
  for (auto& [n, g] : gauges_)
    if (n == name) return g;
  gauges_.emplace_back(std::string(name), Gauge{});
  return gauges_.back().second;
}

Histogram& Shard::histogram(std::string_view name,
                            const HistogramBuckets& buckets) {
  for (auto& [n, h] : histograms_) {
    if (n == name) {
      UWB_EXPECTS(h.buckets() == buckets);
      return h;
    }
  }
  histograms_.emplace_back(std::string(name), Histogram(buckets));
  return histograms_.back().second;
}

SpanStat& Shard::span_stat(const char* name) {
  // Literal-pointer identity first (the common case: one call site), then
  // content equality (the same stage name instrumented from several TUs).
  for (SpanStat& s : span_stats_)
    if (s.name == name || std::strcmp(s.name, name) == 0) return s;
  span_stats_.push_back(SpanStat{name, 0, 0});
  return span_stats_.back();
}

void Shard::exit_span(const char* name, std::uint64_t start_ns,
                      std::uint64_t dur_ns, int depth) {
  --span_depth_;
  SpanStat& stat = span_stat(name);
  ++stat.count;
  stat.total_ns += dur_ns;
  if (tracing_enabled() && trace_.size() < kMaxTraceEventsPerShard)
    trace_.push_back(TraceEvent{name, start_ns, dur_ns, id_, depth});
}

void Shard::reset() {
  for (auto& [n, c] : counters_) c.reset();
  for (auto& [n, g] : gauges_) g.reset();
  for (auto& [n, h] : histograms_) h.reset();
  for (SpanStat& s : span_stats_) {
    s.count = 0;
    s.total_ns = 0;
  }
  trace_.clear();
}

std::uint64_t Snapshot::counter(std::string_view name) const {
  for (const auto& [n, v] : counters)
    if (n == name) return v;
  return 0;
}

const Histogram* Snapshot::histogram(std::string_view name) const {
  for (const auto& [n, h] : histograms)
    if (n == name) return &h;
  return nullptr;
}

const Snapshot::SpanTotal* Snapshot::span(std::string_view name) const {
  for (const SpanTotal& s : spans)
    if (s.name == name) return &s;
  return nullptr;
}

namespace {

std::string prom_name(std::string_view name) {
  std::string out = "uwb_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

std::string prom_number(double v) {
  if (v != v) return "NaN";
  if (v > 1.7976931348623157e308) return "+Inf";
  if (v < -1.7976931348623157e308) return "-Inf";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void prom_scalar(std::string& out, const std::string& name, const char* type,
                 const std::string& value) {
  out += "# TYPE " + name + " " + type + "\n";
  out += name + " " + value + "\n";
}

}  // namespace

std::string Snapshot::to_prometheus() const {
  std::string out;
  char buf[64];
  for (const auto& [name, value] : counters) {
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(value));
    prom_scalar(out, prom_name(name), "counter", buf);
  }
  for (const auto& [name, value] : gauges)
    prom_scalar(out, prom_name(name), "gauge", prom_number(value));
  for (const auto& [name, h] : histograms) {
    const std::string metric = prom_name(name);
    out += "# TYPE " + metric + " histogram\n";
    std::uint64_t cumulative = 0;
    const auto& uppers = h.buckets().uppers;
    for (std::size_t i = 0; i <= uppers.size(); ++i) {
      cumulative += h.bucket_count(i);
      const std::string le =
          i < uppers.size() ? prom_number(uppers[i]) : "+Inf";
      std::snprintf(buf, sizeof(buf), "%llu",
                    static_cast<unsigned long long>(cumulative));
      out += metric + "_bucket{le=\"" + le + "\"} " + buf + "\n";
    }
    out += metric + "_sum " + prom_number(h.sum()) + "\n";
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(h.count()));
    out += metric + "_count " + std::string(buf) + "\n";
  }
  for (const SpanTotal& s : spans) {
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(s.count));
    prom_scalar(out, prom_name("span_" + s.name + "_calls_total"), "counter",
                buf);
    prom_scalar(out, prom_name("span_" + s.name + "_ms_total"), "counter",
                prom_number(s.total_ms));
  }
  return out;
}

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry registry;
  return registry;
}

Shard& MetricsRegistry::register_shard() {
  std::lock_guard<std::mutex> lock(mu_);
  shards_.push_back(
      std::make_unique<Shard>(static_cast<int>(shards_.size())));
  return *shards_.back();
}

Shard& MetricsRegistry::local_shard() {
  thread_local Shard* shard = nullptr;
  if (shard == nullptr) shard = &register_shard();
  return *shard;
}

std::vector<Shard*> MetricsRegistry::shards() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Shard*> out;
  out.reserve(shards_.size());
  for (const auto& s : shards_) out.push_back(s.get());
  return out;
}

Snapshot MetricsRegistry::aggregate() const {
  // std::map keys the merge by name: sorted, hence deterministic output
  // order regardless of shard registration order.
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, Histogram> histograms;
  struct RawSpan {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
  };
  std::map<std::string, RawSpan> spans;

  for (const Shard* shard : shards()) {
    for (const auto& [name, c] : shard->counters())
      counters[name] += c.value();
    for (const auto& [name, g] : shard->gauges()) {
      const auto [it, inserted] = gauges.emplace(name, g.value());
      if (!inserted) it->second = std::max(it->second, g.value());
    }
    for (const auto& [name, h] : shard->histograms()) {
      const auto it = histograms.find(name);
      if (it == histograms.end())
        histograms.emplace(name, h);
      else
        it->second.merge(h);
    }
    for (const SpanStat& s : shard->span_stats()) {
      RawSpan& agg = spans[s.name];
      agg.count += s.count;
      agg.total_ns += s.total_ns;
    }
  }

  Snapshot snap;
  snap.counters.assign(counters.begin(), counters.end());
  snap.gauges.assign(gauges.begin(), gauges.end());
  for (auto& [name, h] : histograms) snap.histograms.emplace_back(name, h);
  for (const auto& [name, s] : spans)
    snap.spans.push_back(Snapshot::SpanTotal{
        name, s.count, static_cast<double>(s.total_ns) / 1e6});
  return snap;
}

void MetricsRegistry::reset() {
  for (Shard* shard : shards()) shard->reset();
}

}  // namespace uwb::obs
