// Unit tests: radix-2 FFT and FFT upsampling.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numbers>

#include "common/constants.hpp"
#include "common/expects.hpp"
#include "common/random.hpp"
#include "dsp/fft.hpp"
#include "dsp/resample.hpp"
#include "obs/metrics.hpp"

namespace uwb::dsp {
namespace {

CVec naive_dft(const CVec& x) {
  const std::size_t n = x.size();
  CVec out(n);
  for (std::size_t k = 0; k < n; ++k) {
    Complex acc{};
    for (std::size_t j = 0; j < n; ++j) {
      const double ang = -2.0 * std::numbers::pi * static_cast<double>(k * j) /
                         static_cast<double>(n);
      acc += x[j] * Complex(std::cos(ang), std::sin(ang));
    }
    out[k] = acc;
  }
  return out;
}

CVec fft(CVec x) {
  fft_pow2_inplace(x, false);
  return x;
}

// Inverse DFT including the 1/N factor.
CVec ifft(CVec x) {
  fft_pow2_inplace(x, true);
  for (auto& v : x) v /= static_cast<double>(x.size());
  return x;
}

double max_err(const CVec& a, const CVec& b) {
  EXPECT_EQ(a.size(), b.size());
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

TEST(FftTest, Pow2Helpers) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(1024));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(1016));
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(1016), 1024u);
  EXPECT_EQ(next_pow2(1024), 1024u);
  EXPECT_EQ(next_pow2(1025), 2048u);
  EXPECT_THROW(next_pow2(0), PreconditionError);
}

TEST(FftTest, ImpulseHasFlatSpectrum) {
  CVec x(16, Complex{});
  x[0] = 1.0;
  const CVec spec = fft(x);
  for (const auto& v : spec) EXPECT_NEAR(std::abs(v - Complex(1.0, 0.0)), 0.0, 1e-12);
}

TEST(FftTest, SingleToneLandsInOneBin) {
  const std::size_t n = 64;
  CVec x(n);
  const int bin = 5;
  for (std::size_t i = 0; i < n; ++i) {
    const double ang = 2.0 * std::numbers::pi * bin * static_cast<double>(i) / n;
    x[i] = Complex(std::cos(ang), std::sin(ang));
  }
  const CVec spec = fft(x);
  for (std::size_t k = 0; k < n; ++k) {
    if (k == bin)
      EXPECT_NEAR(std::abs(spec[k]), static_cast<double>(n), 1e-9);
    else
      EXPECT_NEAR(std::abs(spec[k]), 0.0, 1e-9);
  }
}

// The parameter is the signal length; the transform runs on the signal
// zero-padded to next_pow2(n) samples, the way the detector pads the
// 1016-tap CIR to 1024.
class FftLengthTest : public ::testing::TestWithParam<std::size_t> {};

CVec random_padded_signal(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  CVec x(next_pow2(n), Complex{});
  for (std::size_t i = 0; i < n; ++i)
    x[i] = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  return x;
}

TEST_P(FftLengthTest, MatchesNaiveDft) {
  const CVec x = random_padded_signal(GetParam(), GetParam());
  EXPECT_LT(max_err(fft(x), naive_dft(x)), 1e-8 * static_cast<double>(x.size()));
}

TEST_P(FftLengthTest, RoundTrip) {
  const CVec x = random_padded_signal(GetParam() + 1000, GetParam());
  EXPECT_LT(max_err(ifft(fft(x)), x), 1e-9);
}

TEST_P(FftLengthTest, ParsevalHolds) {
  const CVec x = random_padded_signal(GetParam() + 2000, GetParam());
  double time_e = 0.0;
  for (const auto& v : x) time_e += std::norm(v);
  double freq_e = 0.0;
  for (const auto& v : fft(x)) freq_e += std::norm(v);
  EXPECT_NEAR(freq_e / static_cast<double>(x.size()), time_e, 1e-8 * time_e + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Lengths, FftLengthTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 31, 64, 100, 127,
                                           128, 254, 508,
                                           static_cast<std::size_t>(
                                               uwb::k::cir_len_prf64)));

TEST(FftTest, EmptyInputThrows) {
  CVec empty;
  EXPECT_THROW(fft_pow2_inplace(empty, false), PreconditionError);
  EXPECT_THROW(fft_pow2_inplace(empty, true), PreconditionError);
}

TEST(FftTest, NonPow2InplaceThrows) {
  CVec x(12, Complex{1.0, 0.0});
  EXPECT_THROW(fft_pow2_inplace(x, false), PreconditionError);
  // The raw CIR length: callers zero-pad it to 1024 first.
  EXPECT_THROW(plan_for(1016), PreconditionError);
}

TEST(UpsampleTest, FactorOneIsIdentity) {
  CVec x{{1, 0}, {2, 0}, {3, 0}, {4, 0}};
  EXPECT_EQ(upsample_fft(x, 1), x);
}

TEST(UpsampleTest, PreservesOriginalSamples) {
  Rng rng(77);
  CVec x(50);
  for (auto& v : x) v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  for (int factor : {2, 4, 8}) {
    const CVec y = upsample_fft(x, factor);
    ASSERT_EQ(y.size(), next_pow2(x.size()) * static_cast<std::size_t>(factor));
    for (std::size_t i = 0; i < x.size(); ++i)
      EXPECT_LT(std::abs(y[i * factor] - x[i]), 1e-9)
          << "factor " << factor << " sample " << i;
  }
}

TEST(UpsampleTest, InterpolatesBandlimitedSignalExactly) {
  // A tone below Nyquist/2 must be reconstructed exactly at the new grid.
  const std::size_t n = 64;
  const int factor = 4;
  const int bin = 3;
  CVec x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double ang = 2.0 * std::numbers::pi * bin * static_cast<double>(i) / n;
    x[i] = Complex(std::cos(ang), 0.0);
  }
  const CVec y = upsample_fft(x, factor);
  for (std::size_t i = 0; i < y.size(); ++i) {
    const double t = static_cast<double>(i) / factor;
    const double expected = std::cos(2.0 * std::numbers::pi * bin * t / n);
    EXPECT_NEAR(y[i].real(), expected, 1e-9);
    EXPECT_NEAR(y[i].imag(), 0.0, 1e-9);
  }
}

TEST(UpsampleTest, RealInputStaysReal) {
  Rng rng(88);
  CVec x(uwb::k::cir_len_prf64);
  for (auto& v : x) v = {rng.uniform(-1.0, 1.0), 0.0};
  for (const auto& v : upsample_fft(x, 8)) EXPECT_NEAR(v.imag(), 0.0, 1e-9);
}

TEST(UpsampleTest, OddLengthWorks) {
  Rng rng(89);
  CVec x(33);
  for (auto& v : x) v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  const CVec y = upsample_fft(x, 2);
  ASSERT_EQ(y.size(), 128u);  // next_pow2(33) * 2
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_LT(std::abs(y[i * 2] - x[i]), 1e-9);
}

TEST(UpsampleTest, OneSampleIsInterpolatedAsPaddedPair) {
  // {v} is zero-padded to {v, 0}; with the Nyquist bin split, the
  // band-limited interpolation of that pair is v * cos^2(pi t / 2).
  const Complex v{0.75, -0.5};
  for (int factor : {1, 2, 8}) {
    const CVec y = upsample_fft(CVec{v}, factor);
    ASSERT_EQ(y.size(), 2u * static_cast<std::size_t>(factor));
    for (std::size_t i = 0; i < y.size(); ++i) {
      const double c = std::cos(std::numbers::pi * static_cast<double>(i) /
                                (2.0 * factor));
      EXPECT_LT(std::abs(y[i] - v * (c * c)), 1e-12)
          << "factor " << factor << " sample " << i;
    }
  }
}

TEST(UpsampleTest, SpectrumLengthMustBeEven) {
  const CVec spec(3, Complex{1.0, 0.0});
  CVec padded(6);
  EXPECT_THROW(upsample_spectrum(spec.data(), 3, 2, padded.data()),
               PreconditionError);
  EXPECT_THROW(upsample_spectrum(spec.data(), 1, 2, padded.data()),
               PreconditionError);
}

TEST(UpsampleTest, InvalidArgsThrow) {
  EXPECT_THROW(upsample_fft(CVec{}, 2), PreconditionError);
  EXPECT_THROW(upsample_fft(CVec{{1, 0}}, 0), PreconditionError);
  EXPECT_THROW(upsample_fft(CVec{{1, 0}}, 3), PreconditionError);
}

// --- FftPlan vs an unplanned textbook reference ---------------------------
//
// The plan path precomputes twiddle tables and bit-reversal permutations;
// `reference_fft_pow2` below recomputes every twiddle with std::polar
// inside the butterfly loop (the pre-plan implementation).
// Agreement to ~1e-12 shows the tables are exact, not approximations.

CVec reference_fft_pow2(CVec x, bool inverse) {
  const std::size_t n = x.size();
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(x[i], x[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang = (inverse ? 2.0 : -2.0) * std::numbers::pi /
                       static_cast<double>(len);
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t j = 0; j < len / 2; ++j) {
        const Complex w = std::polar(1.0, ang * static_cast<double>(j));
        const Complex u = x[i + j];
        const Complex v = x[i + j + len / 2] * w;
        x[i + j] = u + v;
        x[i + j + len / 2] = u - v;
      }
    }
  }
  return x;
}

class PlanVsReferenceTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PlanVsReferenceTest, Pow2PlanMatchesUnplannedReference) {
  const std::size_t n = GetParam();
  Rng rng(n);
  CVec x(n);
  for (auto& v : x) v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  for (const bool inverse : {false, true}) {
    CVec planned = x;
    plan_for(n).transform_pow2(planned.data(), inverse);
    EXPECT_LT(max_err(planned, reference_fft_pow2(x, inverse)),
              1e-12 * static_cast<double>(n))
        << "n=" << n << " inverse=" << inverse;
  }
}

INSTANTIATE_TEST_SUITE_P(Pow2Lengths, PlanVsReferenceTest,
                         ::testing::Values(2, 4, 8, 64, 1024, 8192, 16384));

TEST(FftPlanTest, TwiddleHalfFusesZeroPaddedDoubling) {
  // Contract used by the detector's upsample fusion: for x of length m
  // zero-padded to 2m, even output bins are FFT_m(x) and odd bins are
  // FFT_m(x modulated by plan_for(2m).twiddle_half()).
  constexpr std::size_t m = 256;
  Rng rng(42);
  CVec x(m);
  for (auto& v : x) v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  CVec padded(2 * m, Complex{});
  std::copy(x.begin(), x.end(), padded.begin());
  plan_for(2 * m).transform_pow2(padded.data(), false);

  CVec even = x;
  plan_for(m).transform_pow2(even.data(), false);
  const Complex* w = plan_for(2 * m).twiddle_half();
  CVec odd(m);
  for (std::size_t j = 0; j < m; ++j) odd[j] = x[j] * w[j];
  plan_for(m).transform_pow2(odd.data(), false);

  for (std::size_t k = 0; k < m; ++k) {
    EXPECT_LT(std::abs(padded[2 * k] - even[k]), 1e-11);
    EXPECT_LT(std::abs(padded[2 * k + 1] - odd[k]), 1e-11);
  }
}

TEST(FftPlanTest, CacheHitsOnRepeatedLengths) {
  // The plan cache counts into the calling thread's shard in every build
  // flavour, so this runs with instrumentation compiled out too.
  clear_fft_plan_cache();
  obs::Shard& shard = obs::MetricsRegistry::instance().local_shard();
  const obs::Counter& hits = shard.counter("cache_fft_plan_hits");
  const obs::Counter& misses = shard.counter("cache_fft_plan_misses");
  const std::uint64_t hits_before = hits.value();
  const std::uint64_t misses_before = misses.value();
  plan_for(512);
  plan_for(512);
  plan_for(512);
  EXPECT_EQ(misses.value() - misses_before, 1u);
  EXPECT_EQ(hits.value() - hits_before, 2u);
}

}  // namespace
}  // namespace uwb::dsp
