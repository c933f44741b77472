// Radio energy accounting.
//
// The motivation for concurrent ranging (paper Sect. I/III) is the DW1000's
// current draw: up to 155 mA receiving and 90 mA transmitting. EnergyMeter
// accumulates radio-on time per state and converts it to charge and energy,
// so benches can compare SS-TWR scheduling against concurrent ranging.
#pragma once

#include <cstdint>

namespace uwb::dw {

struct EnergyModelParams {
  double rx_current_a = 0.155;
  double tx_current_a = 0.090;
  double supply_v = 3.3;
};

class EnergyMeter {
 public:
  EnergyMeter() = default;
  explicit EnergyMeter(EnergyModelParams params) : params_(params) {}

  void add_tx(double duration_s);
  void add_rx(double duration_s);

  double tx_time_s() const { return tx_s_; }
  double rx_time_s() const { return rx_s_; }
  int tx_count() const { return tx_count_; }
  int rx_count() const { return rx_count_; }

  /// Total charge drawn [C].
  double charge_c() const;
  /// Total energy [J].
  double energy_j() const { return charge_c() * params_.supply_v; }

  void reset();

  const EnergyModelParams& params() const { return params_; }

 private:
  EnergyModelParams params_;
  double tx_s_ = 0.0;
  double rx_s_ = 0.0;
  int tx_count_ = 0;
  int rx_count_ = 0;
};

}  // namespace uwb::dw
