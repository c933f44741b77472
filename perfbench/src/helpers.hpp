// Pure helpers of the benchmark: percentile rule, 1:1 accuracy scoring,
// span self time, and digest folding. No simulator dependencies beyond
// constants, so the unit tests exercise them directly.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/constants.hpp"
#include "common/hash.hpp"

namespace perfbench {

// ---------------------------------------------------------------------------
// Percentiles

/// Samples a reported percentile must keep beyond it.
inline constexpr std::size_t kMinTailSamples = 10;

/// A percentile together with what it rests on.
struct TailPercentile {
  double value = 0.0;
  /// The percentile actually reported (lowered from the requested one when
  /// the run is too short to keep kMinTailSamples beyond it).
  double percentile = 0.0;
  /// Samples beyond the reported rank.
  std::size_t beyond = 0;
  bool valid = false;
};

/// Nearest-rank percentile `q` (0..100] of `values`, lowered if needed so
/// that at least `min_beyond` samples lie beyond the reported rank. Invalid
/// when fewer than min_beyond + 1 samples exist.
inline TailPercentile tail_percentile(std::vector<double> values, double q,
                                      std::size_t min_beyond = kMinTailSamples) {
  TailPercentile out;
  if (values.size() < min_beyond + 1) return out;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  const double rank = std::ceil(q / 100.0 * static_cast<double>(n));
  std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  idx = std::min(idx, n - 1 - min_beyond);
  out.value = values[idx];
  out.percentile = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(n);
  out.beyond = n - 1 - idx;
  out.valid = true;
  return out;
}

/// Median (mean of the two middle values for even counts); 0 when empty.
inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// ---------------------------------------------------------------------------
// 1:1 accuracy scoring

/// Match tolerance: the +-8 ns delayed-TX truncation bound, turned into a
/// one-way distance (c * 8 ns / 2, about 1.2 m).
inline constexpr double kMatchToleranceM = uwb::k::c_air * 8e-9 / 2.0;

/// A responder's true distance, or an estimate of one. id < 0 on an
/// estimate means "anonymous": it may match any responder.
struct RangePoint {
  int id = -1;
  double distance_m = 0.0;
};

struct RangeMatch {
  std::size_t estimate = 0;
  std::size_t truth = 0;
  double error_m = 0.0;  // estimate - truth
};

/// Greedy nearest-first 1:1 assignment: candidate pairs within `tol_m` (and
/// with agreeing ids where the estimate has one) are taken in ascending
/// |error| order, skipping any pair whose estimate or truth is already used.
/// One estimate therefore matches at most one responder and vice versa.
inline std::vector<RangeMatch> assign_one_to_one(
    const std::vector<RangePoint>& estimates,
    const std::vector<RangePoint>& truths, double tol_m = kMatchToleranceM) {
  std::vector<RangeMatch> pairs;
  for (std::size_t e = 0; e < estimates.size(); ++e) {
    for (std::size_t t = 0; t < truths.size(); ++t) {
      if (estimates[e].id >= 0 && estimates[e].id != truths[t].id) continue;
      const double err = estimates[e].distance_m - truths[t].distance_m;
      if (std::abs(err) <= tol_m) pairs.push_back({e, t, err});
    }
  }
  std::sort(pairs.begin(), pairs.end(),
            [](const RangeMatch& a, const RangeMatch& b) {
              const double ea = std::abs(a.error_m);
              const double eb = std::abs(b.error_m);
              if (ea != eb) return ea < eb;
              if (a.estimate != b.estimate) return a.estimate < b.estimate;
              return a.truth < b.truth;
            });
  std::vector<bool> est_used(estimates.size(), false);
  std::vector<bool> truth_used(truths.size(), false);
  std::vector<RangeMatch> out;
  for (const RangeMatch& p : pairs) {
    if (est_used[p.estimate] || truth_used[p.truth]) continue;
    est_used[p.estimate] = true;
    truth_used[p.truth] = true;
    out.push_back(p);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Spans

/// One recorded span. Spans of one round share `round`; `parent` indexes
/// the span list (-1 = root). A replayed layer call is recorded as a child
/// of the span whose time it accounts for, even though it runs afterwards.
struct SpanRecord {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::uint64_t round = 0;

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Self time of spans[index]: its duration minus the durations of its
/// direct children.
inline std::int64_t self_ns(const std::vector<SpanRecord>& spans,
                            std::size_t index) {
  std::int64_t self = spans[index].duration_ns();
  for (const SpanRecord& s : spans)
    if (s.parent == static_cast<int>(index)) self -= s.duration_ns();
  return self;
}

// ---------------------------------------------------------------------------
// Digests

inline constexpr std::uint64_t kDigestSeed = 0xcbf29ce484222325ull;

/// Fold per-round digests, in order, into one word.
inline std::uint64_t fold_digests(const std::vector<std::uint64_t>& digests) {
  std::uint64_t h = kDigestSeed;
  for (const std::uint64_t d : digests) h = uwb::hash_combine(h, d);
  return h;
}

}  // namespace perfbench
