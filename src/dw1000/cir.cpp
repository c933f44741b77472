#include "dw1000/cir.hpp"

#include <algorithm>
#include <cmath>

#include "common/expects.hpp"
#include "dw1000/pulse.hpp"

namespace uwb::dw {

namespace {

void check_params(const CirParams& params) {
  UWB_EXPECTS(params.length > 0);
  UWB_EXPECTS(params.ts_s > 0.0);
  UWB_EXPECTS(params.noise_sigma >= 0.0);
}

}  // namespace

CVec draw_cir_noise(const CirParams& params, Rng& rng) {
  check_params(params);
  CVec noise;
  if (params.noise_sigma > 0.0) {
    noise.resize(static_cast<std::size_t>(params.length));
    for (auto& n : noise) n = rng.complex_normal(params.noise_sigma);
  }
  return noise;
}

CirEstimate render_cir(const std::vector<CirArrival>& arrivals,
                       const CirParams& params, const CVec& noise) {
  check_params(params);
  UWB_EXPECTS(noise.empty() ||
              noise.size() == static_cast<std::size_t>(params.length));

  CirEstimate out;
  out.ts_s = params.ts_s;
  out.taps.assign(static_cast<std::size_t>(params.length), Complex{});

  for (const CirArrival& a : arrivals) {
    const double half = pulse_duration_s(a.tc_pgdelay) / 2.0;
    const auto lo = static_cast<std::ptrdiff_t>(
        std::floor((a.time_into_window_s - half) / params.ts_s));
    const auto hi = static_cast<std::ptrdiff_t>(
        std::ceil((a.time_into_window_s + half) / params.ts_s));
    const std::ptrdiff_t begin = std::max<std::ptrdiff_t>(0, lo);
    const std::ptrdiff_t end =
        std::min<std::ptrdiff_t>(params.length - 1, hi);
    for (std::ptrdiff_t n = begin; n <= end; ++n) {
      const double t = static_cast<double>(n) * params.ts_s - a.time_into_window_s;
      out.taps[static_cast<std::size_t>(n)] +=
          a.amplitude * pulse_value(a.tc_pgdelay, t);
    }
  }

  // Noise goes on after the pulse sum, so each tap is the same sum in the
  // same order whenever its noise was drawn.
  for (std::size_t i = 0; i < noise.size(); ++i) out.taps[i] += noise[i];
  return out;
}

CirEstimate synthesize_cir(const std::vector<CirArrival>& arrivals,
                           const CirParams& params, Rng& rng) {
  const CVec noise = draw_cir_noise(params, rng);
  return render_cir(arrivals, params, noise);
}

}  // namespace uwb::dw
