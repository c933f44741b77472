#include "ranging/detector.hpp"

#include "common/expects.hpp"
#include "dsp/fft.hpp"

namespace uwb::ranging {

namespace detail {

void validate_detector_config(const DetectorConfig& cfg) {
  UWB_EXPECTS(cfg.upsample_factor >= 1 && cfg.upsample_factor <= 64 &&
              dsp::is_pow2(static_cast<std::size_t>(cfg.upsample_factor)));
  UWB_EXPECTS(!cfg.shape_registers.empty());
}

}  // namespace detail

}  // namespace uwb::ranging
