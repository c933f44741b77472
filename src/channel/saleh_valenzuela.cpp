#include "channel/saleh_valenzuela.hpp"

#include <algorithm>
#include <cmath>

#include "common/expects.hpp"
#include "common/units.hpp"

namespace uwb::channel {

DiffuseTail draw_diffuse_tail(const SalehValenzuelaParams& params, Rng& rng,
                              double amp_floor) {
  UWB_EXPECTS(params.cluster_rate_hz > 0.0 && params.ray_rate_hz > 0.0);
  UWB_EXPECTS(params.cluster_decay_s > 0.0 && params.ray_decay_s > 0.0);
  UWB_EXPECTS(params.window_s > 0.0);
  UWB_EXPECTS(amp_floor >= 0.0);

  // Stage A: every ray's mean power is at most the total target power, so
  // a floor above the largest Rayleigh draw at that power needs no draw.
  const double target = db_to_linear(params.total_power_rel_db);
  if (amp_floor > 0.0 && kRayleighMaxPerRms * std::sqrt(target) < amp_floor)
    return {{}, true};

  struct RawRay {
    double delay = 0.0;
    double mean_power = 0.0;
  };
  std::vector<RawRay> raw;
  // Expected arrival count: clusters arriving at cluster_rate over the
  // window, each spawning rays at ray_rate over (on average) half the
  // remaining window.  A capacity hint — the draw itself is unbounded.
  const double exp_clusters = params.window_s * params.cluster_rate_hz + 1.0;
  const double exp_rays_per = 0.5 * params.window_s * params.ray_rate_hz + 1.0;
  raw.reserve(static_cast<std::size_t>(
      std::min(4096.0, exp_clusters * exp_rays_per)));

  // Cluster arrivals (first cluster pinned at the LOS arrival).
  double cluster_t = 0.0;
  while (cluster_t < params.window_s) {
    // Ray arrivals within the cluster (first ray at the cluster start).
    double ray_t = 0.0;
    while (cluster_t + ray_t < params.window_s) {
      const double mean_power = std::exp(-cluster_t / params.cluster_decay_s) *
                                std::exp(-ray_t / params.ray_decay_s);
      if (cluster_t + ray_t > 0.0)  // exclude the LOS instant itself
        raw.push_back({cluster_t + ray_t, mean_power});
      ray_t += rng.exponential(1.0 / params.ray_rate_hz);
    }
    cluster_t += rng.exponential(1.0 / params.cluster_rate_hz);
  }

  if (raw.empty()) return {};

  // Normalise the *mean* power profile to the requested total, then apply
  // per-ray Rayleigh fading so the realised total still fluctuates.
  double mean_total = 0.0;
  double max_mean_power = 0.0;
  for (const RawRay& r : raw) {
    mean_total += r.mean_power;
    max_mean_power = std::max(max_mean_power, r.mean_power);
  }
  const double scale = target / mean_total;

  // Stage B: the strongest ray's RMS amplitude is now known.
  if (amp_floor > 0.0 &&
      kRayleighMaxPerRms * std::sqrt(max_mean_power * scale) < amp_floor)
    return {{}, true};

  DiffuseTail tail;
  tail.rays.reserve(raw.size());
  for (const RawRay& r : raw) {
    const double mean_amp = std::sqrt(r.mean_power * scale);
    // Rayleigh with E[a^2] = mean_amp^2 -> sigma = mean_amp / sqrt(2).
    const double a = rng.rayleigh(mean_amp / std::sqrt(2.0));
    tail.rays.push_back({r.delay, rng.random_phase() * a});
  }
  return tail;
}

}  // namespace uwb::channel
