// Time and unit handling.
//
// Simulation time is an integer picosecond count (`SimTime`). Picoseconds are
// fine enough to represent the DW1000's 15.65 ps timestamp resolution without
// accumulating floating-point error over long simulations, and a signed
// 64-bit count covers ±106 days.
//
// The DW1000 stack juggles four scales that are all "just a number" in
// untyped code: seconds, metres, ~15.65 ps device ticks, and ~1 ns CIR tap
// indices. Mixing them up is the classic UWB ranging bug (a tick count fed
// where seconds were expected is off by 10 orders of magnitude and still
// "runs"). The strong types below make those mixes a compile error while
// compiling to the identical machine code as a raw double/int64:
//
//   Seconds      double-backed physical duration (tof, jitter, airtime)
//   Meters       double-backed physical length (distances, ranging errors)
//   DwTicks      int64-backed signed duration on the 63.8976 GHz device clock
//   CirTapIndex  int32-backed position in the CIR accumulator (T_s spacing)
//
// Construction and cross-unit conversion are always explicit; the only way
// from one unit to another is a named conversion function below. The escape
// hatch to untyped code is `.value()` / `.count()`.
#pragma once

#include <compare>
#include <cstdint>
#include <string>

#include "common/constants.hpp"

namespace uwb {

/// Absolute simulation time or duration in integer picoseconds.
class SimTime {
 public:
  constexpr SimTime() = default;
  constexpr explicit SimTime(std::int64_t picoseconds) : ps_(picoseconds) {}

  static constexpr SimTime from_seconds(double s) {
    return SimTime(static_cast<std::int64_t>(s * 1e12 + (s >= 0 ? 0.5 : -0.5)));
  }
  static constexpr SimTime from_micros(double us) { return from_seconds(us * 1e-6); }
  static constexpr SimTime from_nanos(double ns) { return from_seconds(ns * 1e-9); }

  constexpr std::int64_t ps() const { return ps_; }
  constexpr double seconds() const { return static_cast<double>(ps_) * 1e-12; }
  constexpr double micros() const { return static_cast<double>(ps_) * 1e-6; }
  constexpr double nanos() const { return static_cast<double>(ps_) * 1e-3; }

  constexpr auto operator<=>(const SimTime&) const = default;

  constexpr SimTime operator+(SimTime o) const { return SimTime(ps_ + o.ps_); }
  constexpr SimTime operator-(SimTime o) const { return SimTime(ps_ - o.ps_); }
  constexpr SimTime& operator+=(SimTime o) {
    ps_ += o.ps_;
    return *this;
  }
  constexpr SimTime& operator-=(SimTime o) {
    ps_ -= o.ps_;
    return *this;
  }
  constexpr SimTime operator*(std::int64_t k) const { return SimTime(ps_ * k); }

  std::string to_string() const;

 private:
  std::int64_t ps_ = 0;
};

/// A physical duration in seconds. Same-unit arithmetic stays in the unit;
/// scaling by a dimensionless factor stays in the unit; the ratio of two
/// durations is dimensionless.
class Seconds {
 public:
  constexpr Seconds() = default;
  constexpr explicit Seconds(double s) : s_(s) {}

  constexpr double value() const { return s_; }

  constexpr auto operator<=>(const Seconds&) const = default;

  constexpr Seconds operator+(Seconds o) const { return Seconds(s_ + o.s_); }
  constexpr Seconds operator-(Seconds o) const { return Seconds(s_ - o.s_); }
  constexpr Seconds operator-() const { return Seconds(-s_); }
  constexpr Seconds operator*(double k) const { return Seconds(s_ * k); }
  constexpr Seconds operator/(double k) const { return Seconds(s_ / k); }
  constexpr double operator/(Seconds o) const { return s_ / o.s_; }
  constexpr Seconds& operator+=(Seconds o) {
    s_ += o.s_;
    return *this;
  }
  constexpr Seconds& operator-=(Seconds o) {
    s_ -= o.s_;
    return *this;
  }

 private:
  double s_ = 0.0;
};

constexpr Seconds operator*(double k, Seconds s) { return s * k; }

/// A physical length in metres.
class Meters {
 public:
  constexpr Meters() = default;
  constexpr explicit Meters(double m) : m_(m) {}

  constexpr double value() const { return m_; }

  constexpr auto operator<=>(const Meters&) const = default;

  constexpr Meters operator+(Meters o) const { return Meters(m_ + o.m_); }
  constexpr Meters operator-(Meters o) const { return Meters(m_ - o.m_); }
  constexpr Meters operator-() const { return Meters(-m_); }
  constexpr Meters operator*(double k) const { return Meters(m_ * k); }
  constexpr Meters operator/(double k) const { return Meters(m_ / k); }
  constexpr double operator/(Meters o) const { return m_ / o.m_; }
  constexpr Meters& operator+=(Meters o) {
    m_ += o.m_;
    return *this;
  }
  constexpr Meters& operator-=(Meters o) {
    m_ -= o.m_;
    return *this;
  }

 private:
  double m_ = 0.0;
};

constexpr Meters operator*(double k, Meters m) { return m * k; }

/// A signed duration counted in DW1000 device ticks (~15.65 ps each). This
/// is the *operand* type for 40-bit timestamp arithmetic — the absolute
/// wrap-aware counter itself is `dw::DwTimestamp` (dw1000/clock.hpp), whose
/// differences and offsets travel as DwTicks.
class DwTicks {
 public:
  constexpr DwTicks() = default;
  constexpr explicit DwTicks(std::int64_t ticks) : ticks_(ticks) {}

  constexpr std::int64_t count() const { return ticks_; }

  constexpr auto operator<=>(const DwTicks&) const = default;

  constexpr DwTicks operator+(DwTicks o) const { return DwTicks(ticks_ + o.ticks_); }
  constexpr DwTicks operator-(DwTicks o) const { return DwTicks(ticks_ - o.ticks_); }
  constexpr DwTicks operator-() const { return DwTicks(-ticks_); }
  constexpr DwTicks operator*(std::int64_t k) const { return DwTicks(ticks_ * k); }

 private:
  std::int64_t ticks_ = 0;
};

/// An index into the CIR accumulator (taps spaced T_s = 1.0016 ns apart).
class CirTapIndex {
 public:
  constexpr CirTapIndex() = default;
  constexpr explicit CirTapIndex(std::int32_t tap) : tap_(tap) {}

  constexpr std::int32_t count() const { return tap_; }

  constexpr auto operator<=>(const CirTapIndex&) const = default;

  constexpr CirTapIndex operator+(CirTapIndex o) const {
    return CirTapIndex(tap_ + o.tap_);
  }
  constexpr CirTapIndex operator-(CirTapIndex o) const {
    return CirTapIndex(tap_ - o.tap_);
  }

 private:
  std::int32_t tap_ = 0;
};

// ---- Named cross-unit conversions ------------------------------------------
// Each conversion states its scale factor once; call sites can no longer pick
// the wrong constant (or the right constant in the wrong direction).

/// Duration of a whole tick count on the 63.8976 GHz device clock.
constexpr Seconds to_seconds(DwTicks t) {
  return Seconds(static_cast<double>(t.count()) * k::dw_tick_s);
}

/// Nearest whole device-tick count for a physical duration.
constexpr DwTicks to_dw_ticks(Seconds s) {
  const double t = s.value() * k::dw_tick_hz;
  return DwTicks(static_cast<std::int64_t>(t + (t >= 0 ? 0.5 : -0.5)));
}

/// One-way distance covered in `tof` at the DW1000 propagation speed.
constexpr Meters distance_from_tof(Seconds tof) {
  return Meters(tof.value() * k::c_air);
}

/// One-way time of flight across `d` at the DW1000 propagation speed.
constexpr Seconds tof_from_distance(Meters d) {
  return Seconds(d.value() / k::c_air);
}

/// Time offset of a CIR tap from the accumulator origin (T_s per tap).
constexpr Seconds to_seconds(CirTapIndex tap) {
  return Seconds(static_cast<double>(tap.count()) * k::cir_ts_s);
}

/// SimTime for a physical duration (rounds to the picosecond grid).
constexpr SimTime to_sim_time(Seconds s) { return SimTime::from_seconds(s.value()); }

/// Physical duration of a SimTime span.
constexpr Seconds to_seconds(SimTime t) { return Seconds(t.seconds()); }

/// Convert decibels to linear power ratio.
double db_to_linear(double db);
/// Convert linear power ratio to decibels.
double linear_to_db(double ratio);

}  // namespace uwb
