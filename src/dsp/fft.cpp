#include "dsp/fft.hpp"

#include <cmath>
#include <memory>
#include <numbers>
#include <unordered_map>
#include <utility>

#include "common/expects.hpp"
#include "obs/metrics.hpp"
#include "simd/simd.hpp"

namespace uwb::dsp {

bool is_pow2(std::size_t n) { return n >= 1 && (n & (n - 1)) == 0; }

std::size_t next_pow2(std::size_t n) {
  UWB_EXPECTS(n >= 1);
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

namespace {

// The butterfly kernels work on the raw double pairs of the complex array
// (array-oriented access, guaranteed by the standard) with explicit
// real/imaginary arithmetic: std::complex operator* would route every
// product through the Annex-G NaN-recovery helper (__muldc3), which
// dominates the transform cost at any optimisation level.
inline double* as_doubles(Complex* x) { return reinterpret_cast<double*>(x); }

}  // namespace

FftPlan::FftPlan(std::size_t n) : n_(n) {
  UWB_EXPECTS(is_pow2(n));
  rev_.resize(n);
  rev_[0] = 0;
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    rev_[i] = static_cast<std::uint32_t>(j);
  }
  // Contiguous forward twiddles per stage: stage `len` holds
  // e^{-2*pi*i*j/len} for j < len/2 at offset len/2 - 1 (n-1 total).
  if (n >= 2) {
    tw_.resize(n - 1);
    for (std::size_t len = 2; len <= n; len <<= 1) {
      Complex* w = tw_.data() + (len / 2 - 1);
      const double step = -2.0 * std::numbers::pi / static_cast<double>(len);
      for (std::size_t j = 0; j < len / 2; ++j) {
        const double ang = step * static_cast<double>(j);
        w[j] = Complex(std::cos(ang), std::sin(ang));
      }
    }
  }
}

const Complex* FftPlan::twiddle_half() const {
  UWB_EXPECTS(n_ >= 2);
  return tw_.data() + (n_ / 2 - 1);
}

template <bool Inverse>
void FftPlan::run_pow2(Complex* x) const {
  const std::size_t n = n_;
  const std::uint32_t* rev = rev_.data();
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t j = rev[i];
    if (i < j) std::swap(x[i], x[j]);
  }
  if (n < 2) return;
  double* d = as_doubles(x);
  // Stage len = 2: twiddle is 1 — pure add/sub butterflies.
  simd::butterfly_pairs(d, n);
  if (n < 4) return;
  // Stage len = 4: twiddles are 1 and -+i — still multiplication-free.
  for (std::size_t i = 0; i < 2 * n; i += 8) {
    const double u0r = d[i], u0i = d[i + 1], v0r = d[i + 4], v0i = d[i + 5];
    d[i] = u0r + v0r;
    d[i + 1] = u0i + v0i;
    d[i + 4] = u0r - v0r;
    d[i + 5] = u0i - v0i;
    const double u1r = d[i + 2], u1i = d[i + 3];
    const double x1r = d[i + 6], x1i = d[i + 7];
    // Forward: w = -i so v = (x1i, -x1r); inverse: w = +i so v = (-x1i, x1r).
    const double v1r = Inverse ? -x1i : x1i;
    const double v1i = Inverse ? x1r : -x1r;
    d[i + 2] = u1r + v1r;
    d[i + 3] = u1i + v1i;
    d[i + 6] = u1r - v1r;
    d[i + 7] = u1i - v1i;
  }
  // General stages from the twiddle tables (vectorized whole-stage kernel).
  for (std::size_t len = 8; len <= n; len <<= 1) {
    const std::size_t half = len >> 1;
    const double* w = reinterpret_cast<const double*>(tw_.data() + (half - 1));
    simd::fft_stage(d, w, n, len, Inverse);
  }
}

void FftPlan::transform_pow2(Complex* x, bool inverse) const {
  if (inverse)
    run_pow2<true>(x);
  else
    run_pow2<false>(x);
}

namespace {

struct PlanCache {
  std::unordered_map<std::size_t, std::unique_ptr<FftPlan>> plans;
  const FftPlan* last = nullptr;
  std::size_t last_n = 0;
  // The thread's shard counters, bound when the cache is built so the
  // lookup path (reached from the detector's hot loop) does no registry
  // work. Live in every build flavour, unlike UWB_OBS_COUNT.
  obs::Counter& hits = obs::MetricsRegistry::instance().local_shard().counter(
      "cache_fft_plan_hits");
  obs::Counter& misses =
      obs::MetricsRegistry::instance().local_shard().counter(
          "cache_fft_plan_misses");
};

PlanCache& plan_cache() {
  thread_local PlanCache cache;
  return cache;
}

}  // namespace

const FftPlan& plan_for(std::size_t n) {
  UWB_EXPECTS(is_pow2(n));
  PlanCache& cache = plan_cache();
  if (cache.last_n == n) {
    cache.hits.add();
    return *cache.last;
  }
  auto it = cache.plans.find(n);
  if (it == cache.plans.end()) {
    cache.misses.add();
    // One allocation per distinct transform size, then cached for the
    // process lifetime; the detect loop runs on the last_n fast path.
    // uwb-lint: allow(hot-path-alloc)
    it = cache.plans.emplace(n, std::make_unique<FftPlan>(n)).first;
  } else {
    cache.hits.add();
  }
  cache.last = it->second.get();
  cache.last_n = n;
  return *cache.last;
}

void clear_fft_plan_cache() {
  PlanCache& cache = plan_cache();
  cache.plans.clear();
  cache.last = nullptr;
  cache.last_n = 0;
}

CVec& fft_scratch(int slot, std::size_t n) {
  constexpr int kSlots = 3;
  UWB_EXPECTS(slot >= 0 && slot < kSlots);
  thread_local CVec buffers[kSlots];
  CVec& buf = buffers[slot];
  if (buf.size() != n) buf.resize(n);
  return buf;
}

void fft_pow2_inplace(CVec& x, bool inverse) {
  plan_for(x.size()).transform_pow2(x.data(), inverse);
}

}  // namespace uwb::dsp
