#include "channel/channel_model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "channel/path_loss.hpp"
#include "common/constants.hpp"
#include "common/expects.hpp"

namespace uwb::channel {

ChannelModel::ChannelModel(geom::Room room, ChannelModelParams params)
    : room_(std::move(room)), params_(params) {
  UWB_EXPECTS(params.path_loss_exponent >= 0.0);
  UWB_EXPECTS(params.max_reflection_order >= 0 && params.max_reflection_order <= 2);
  UWB_EXPECTS(params.specular_fading_db >= 0.0);
}

ChannelRealization ChannelModel::realize(geom::Vec2 tx, geom::Vec2 rx,
                                         Rng& rng) const {
  UWB_EXPECTS(geom::distance(tx, rx) > 0.0);
  ChannelRealization out;

  // Image-source solve, run afresh for every realization: it is cheaper
  // than keying a memo cache on the whole room.
  const std::vector<geom::SpecularPath> specular =
      geom::compute_paths(room_, tx, rx, params_.max_reflection_order);
  UWB_ENSURES(!specular.empty());
  out.los_delay_s = specular.front().length_m / k::c_air;
  out.taps.reserve(specular.size());

  double los_amp = 0.0;
  double strongest_amp = 0.0;
  for (const geom::SpecularPath& p : specular) {
    const double loss_db =
        log_distance_loss_db(p.length_m, params_.path_loss_exponent,
                             params_.reference_loss_db) +
        p.reflection_loss_db + p.obstruction_loss_db +
        rng.normal(0.0, params_.specular_fading_db);
    Tap tap;
    tap.delay_s = p.length_m / k::c_air;
    tap.amplitude = rng.random_phase() * loss_db_to_amplitude(loss_db);
    tap.deterministic = true;
    tap.order = p.order;
    const double amp = std::abs(tap.amplitude);
    if (p.order == 0) los_amp = amp;
    strongest_amp = std::max(strongest_amp, amp);
    out.taps.push_back(tap);
  }

  if (params_.enable_diffuse) {
    // Diffuse power is defined relative to the direct-path tap as drawn:
    // faded and obstructed. Only a link with no LOS amplitude falls back to
    // the unobstructed log-distance amplitude.
    const double ref_amp =
        los_amp > 0.0
            ? los_amp
            : loss_db_to_amplitude(log_distance_loss_db(
                  specular.front().length_m, params_.path_loss_exponent,
                  params_.reference_loss_db));
    // A specular tap at or above the floor makes the link live: its tail is
    // drawn in full. Otherwise the tail may stop once it provably stays
    // below the floor (DESIGN.md Sect. 13.6).
    const double tail_floor =
        strongest_amp < detection_floor_ ? detection_floor_ / ref_amp : 0.0;
    const DiffuseTail tail =
        draw_diffuse_tail(params_.diffuse, rng, tail_floor);
    out.tail_skipped = tail.skipped;
    out.taps.reserve(out.taps.size() + tail.rays.size());
    for (const DiffuseRay& ray : tail.rays) {
      Tap tap;
      tap.delay_s = out.los_delay_s + ray.excess_delay_s;
      tap.amplitude = ray.amplitude * ref_amp;
      tap.deterministic = false;
      out.taps.push_back(tap);
    }
  }

  std::sort(out.taps.begin(), out.taps.end(),
            [](const Tap& a, const Tap& b) { return a.delay_s < b.delay_s; });
  return out;
}

void ChannelModel::set_detection_floor(double floor_amp) {
  UWB_EXPECTS(floor_amp >= 0.0);
  detection_floor_ = floor_amp;
}

Meters ChannelModel::max_detectable_range(double threshold_amp,
                                          double margin_db) const {
  if (!(threshold_amp > 0.0) || !(params_.path_loss_exponent > 0.0)) {
    return Meters{std::numeric_limits<double>::infinity()};
  }
  // Best-case LOS amplitude at distance d (with margin_db of fading
  // headroom): 10^((margin - ref)/20) * d^(-n/2). Solve amp == threshold
  // for d.
  const double numer =
      std::pow(10.0, (margin_db - params_.reference_loss_db) / 20.0);
  const double d =
      std::pow(numer / threshold_amp, 2.0 / params_.path_loss_exponent);
  if (!std::isfinite(d)) {
    return Meters{std::numeric_limits<double>::infinity()};
  }
  return Meters{d};
}

}  // namespace uwb::channel
