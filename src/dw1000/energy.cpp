#include "dw1000/energy.hpp"

#include "common/expects.hpp"

namespace uwb::dw {

void EnergyMeter::add_tx(double duration_s) {
  UWB_EXPECTS(duration_s >= 0.0);
  tx_s_ += duration_s;
  ++tx_count_;
}

void EnergyMeter::add_rx(double duration_s) {
  UWB_EXPECTS(duration_s >= 0.0);
  rx_s_ += duration_s;
  ++rx_count_;
}

double EnergyMeter::charge_c() const {
  return tx_s_ * params_.tx_current_a + rx_s_ * params_.rx_current_a;
}

void EnergyMeter::reset() {
  tx_s_ = rx_s_ = 0.0;
  tx_count_ = rx_count_ = 0;
}

}  // namespace uwb::dw
