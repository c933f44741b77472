// Strong unit types (common/units.hpp): explicit conversions round-trip,
// 40-bit timestamp semantics survive the typed interface, and the types are
// genuinely zero-overhead (same size and triviality as the raw scalar).

#include <gtest/gtest.h>

#include <type_traits>

#include "common/constants.hpp"
#include "common/units.hpp"
#include "dw1000/clock.hpp"

namespace uwb {
namespace {

namespace dw = uwb::dw;

// ---- Zero-overhead guarantees (compile-time) -------------------------------

static_assert(sizeof(Seconds) == sizeof(double));
static_assert(sizeof(Meters) == sizeof(double));
static_assert(sizeof(DwTicks) == sizeof(std::int64_t));
static_assert(sizeof(CirTapIndex) == sizeof(std::int32_t));

static_assert(std::is_trivially_copyable_v<Seconds>);
static_assert(std::is_trivially_copyable_v<Meters>);
static_assert(std::is_trivially_copyable_v<DwTicks>);
static_assert(std::is_trivially_copyable_v<CirTapIndex>);

static_assert(std::is_trivially_destructible_v<Seconds>);
static_assert(std::is_trivially_destructible_v<DwTicks>);

// Construction and cross-unit mixing must stay explicit: no implicit
// double -> unit, no unit -> unit.
static_assert(!std::is_convertible_v<double, Seconds>);
static_assert(!std::is_convertible_v<double, Meters>);
static_assert(!std::is_convertible_v<std::int64_t, DwTicks>);
static_assert(!std::is_convertible_v<Seconds, Meters>);
static_assert(!std::is_convertible_v<Seconds, double>);

// Conversions are constexpr-usable.
static_assert(to_dw_ticks(Seconds(0.0)).count() == 0);
static_assert(to_seconds(DwTicks(0)).value() == 0.0);
static_assert(distance_from_tof(Seconds(0.0)).value() == 0.0);

// ---- Arithmetic stays in-unit ----------------------------------------------

TEST(UnitsTest, SecondsArithmetic) {
  const Seconds a(3.0), b(1.5);
  EXPECT_DOUBLE_EQ((a + b).value(), 4.5);
  EXPECT_DOUBLE_EQ((a - b).value(), 1.5);
  EXPECT_DOUBLE_EQ((-a).value(), -3.0);
  EXPECT_DOUBLE_EQ((a * 2.0).value(), 6.0);
  EXPECT_DOUBLE_EQ((2.0 * a).value(), 6.0);
  EXPECT_DOUBLE_EQ((a / 2.0).value(), 1.5);
  EXPECT_DOUBLE_EQ(a / b, 2.0);  // ratio of durations is dimensionless
  Seconds c(1.0);
  c += b;
  c -= Seconds(0.5);
  EXPECT_DOUBLE_EQ(c.value(), 2.0);
  EXPECT_LT(b, a);
}

TEST(UnitsTest, MetersArithmetic) {
  const Meters d(10.0);
  EXPECT_DOUBLE_EQ((d + Meters(2.0)).value(), 12.0);
  EXPECT_DOUBLE_EQ((d * 0.5).value(), 5.0);
  EXPECT_DOUBLE_EQ(d / Meters(4.0), 2.5);
  EXPECT_GT(d, Meters(9.0));
}

TEST(UnitsTest, DwTicksArithmetic) {
  const DwTicks t(1000), u(-400);
  EXPECT_EQ((t + u).count(), 600);
  EXPECT_EQ((t - u).count(), 1400);
  EXPECT_EQ((-u).count(), 400);
  EXPECT_EQ((t * 3).count(), 3000);
  EXPECT_LT(u, t);
}

TEST(UnitsTest, CirTapIndexArithmetic) {
  const CirTapIndex a(100), b(30);
  EXPECT_EQ((a + b).count(), 130);
  EXPECT_EQ((a - b).count(), 70);
  EXPECT_LT(b, a);
}

// ---- Round-trip conversions ------------------------------------------------

TEST(UnitsTest, DwTicksSecondsRoundTrip) {
  // Exact tick counts round-trip through seconds and back.
  for (const std::int64_t ticks :
       {std::int64_t{0}, std::int64_t{1}, std::int64_t{-1}, std::int64_t{63898},
        std::int64_t{1} << 32, (std::int64_t{1} << 40) - 1}) {
    EXPECT_EQ(to_dw_ticks(to_seconds(DwTicks(ticks))).count(), ticks)
        << "ticks=" << ticks;
  }
}

TEST(UnitsTest, ToDwTicksRoundsToNearest) {
  EXPECT_EQ(to_dw_ticks(Seconds(0.4 * k::dw_tick_s)).count(), 0);
  EXPECT_EQ(to_dw_ticks(Seconds(0.6 * k::dw_tick_s)).count(), 1);
  EXPECT_EQ(to_dw_ticks(Seconds(-0.6 * k::dw_tick_s)).count(), -1);
  EXPECT_EQ(to_dw_ticks(Seconds(-0.4 * k::dw_tick_s)).count(), 0);
}

TEST(UnitsTest, DistanceTofRoundTrip) {
  const Meters d(123.456);
  EXPECT_NEAR(distance_from_tof(tof_from_distance(d)).value(), d.value(),
              1e-12);
  // 1 m of one-way flight is ~3.3 ns.
  EXPECT_NEAR(tof_from_distance(Meters(1.0)).value(), 1.0 / k::c_air, 1e-18);
}

TEST(UnitsTest, CirTapConversions) {
  const CirTapIndex tap(250);
  EXPECT_DOUBLE_EQ(to_seconds(tap).value(), 250.0 * k::cir_ts_s);
}

TEST(UnitsTest, SimTimeSecondsRoundTrip) {
  const Seconds s(1.25e-3);
  EXPECT_DOUBLE_EQ(to_seconds(to_sim_time(s)).value(), 1.25e-3);
  EXPECT_EQ(to_sim_time(s).ps(), 1'250'000'000);
}

// ---- 40-bit wrap semantics through the typed interface ---------------------

TEST(UnitsTest, FortyBitWrapPreservedUnderStrongTypes) {
  // Stepping a timestamp to just past the 40-bit horizon wraps; the typed
  // difference still reports the short (signed) separation.
  const dw::DwTimestamp near_wrap(k::dw_timestamp_mask - 9);  // modulus - 10
  const dw::DwTimestamp wrapped = near_wrap.plus_ticks(DwTicks(25));
  EXPECT_EQ(wrapped.ticks(), 15u);
  EXPECT_EQ(wrapped.diff_ticks(near_wrap).count(), 25);
  EXPECT_EQ(near_wrap.diff_ticks(wrapped).count(), -25);
  EXPECT_NEAR(wrapped.diff_seconds(near_wrap).value(), 25.0 * k::dw_tick_s,
              1e-15);
}

TEST(UnitsTest, PlusSecondsQuantizesToTickGrid) {
  const dw::DwTimestamp t0(1000);
  // 1 us is ~63898 ticks; plus_seconds rounds to the nearest whole tick.
  const dw::DwTimestamp t1 = t0.plus_seconds(Seconds(1e-6));
  EXPECT_EQ(t1.ticks() - t0.ticks(),
            static_cast<std::uint64_t>(to_dw_ticks(Seconds(1e-6)).count()));
}

}  // namespace
}  // namespace uwb
