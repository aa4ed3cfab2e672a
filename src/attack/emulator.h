// The CTC waveform emulation attack (Sec. V).
//
// Pipeline per observed ZigBee frame (recorded at 4 MHz):
//   1. interpolate x5 to the attacker's 20 MHz rate (80 samples per 4 us);
//   2. for every 80-sample WiFi-symbol slot: skip the first 16 samples
//      (they will be overwritten by the cyclic prefix), 64-point FFT of the
//      remaining 3.2 us;
//   3. zero all but the chosen ~7 subcarriers (SubcarrierSelector);
//   4. quantize the kept frequency points to the alpha-scaled 64-QAM grid
//      (QamQuantize; alpha optimized once per frame or fixed to sqrt(26));
//   5. 64-point IFFT and re-insert the cyclic prefix;
//   6. concatenate the 80-sample emulated symbols. The result is a valid
//      sequence of WiFi OFDM symbols whose 2 MHz heart is the ZigBee frame.
//
// The emulated waveform is returned both at 20 MHz (what the WiFi radio
// emits) and re-decimated to 4 MHz (what the ZigBee receiver's 2 MHz
// front end sees), plus per-symbol diagnostics for the paper's tables.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "attack/qam_quantize.h"
#include "attack/subcarrier_select.h"
#include "dsp/types.h"

namespace ctc::attack {

struct EmulatorConfig {
  std::size_t interpolation = 5;  ///< 4 MHz -> 20 MHz
  /// FFT bins to keep. Empty = run SubcarrierSelector on the observed frame.
  std::vector<std::size_t> kept_bins;
  SelectionConfig selection;
  /// Fixed QAM scale; nullopt = optimize per frame (Eq. 4). The paper's
  /// simulation uses sqrt(26).
  std::optional<double> alpha;
};

struct SymbolDiagnostics {
  double alpha = 0.0;              ///< scale used for this symbol
  double quantization_error = 0.0; ///< sum |X_hat - Q(X_hat)|^2 on kept bins
  double discarded_energy = 0.0;   ///< sum |X(k)|^2 over bins zeroed in step 3
};

struct EmulationResult {
  cvec wifi_waveform_20mhz;   ///< the emitted WiFi waveform
  cvec emulated_4mhz;         ///< after a 2 MHz front end + decimation
  std::vector<cvec> symbol_grids;  ///< 64-bin quantized grid per WiFi symbol
  std::vector<SymbolDiagnostics> diagnostics;
  std::vector<std::size_t> kept_bins;
};

class WaveformEmulator {
 public:
  explicit WaveformEmulator(EmulatorConfig config = {});

  /// Emulates an observed ZigBee baseband frame (4 MHz sample rate).
  /// Throws ContractError on an empty frame or a non-finite sample. A
  /// ZigBee frame cycles through only 16 chip sequences, so most 80-sample
  /// slots repeat: each distinct slot (keyed on its exact samples) is
  /// transformed and emulated once, and its repeats copy that result.
  EmulationResult emulate(std::span<const cplx> observed_4mhz) const;

  /// The core per-symbol step on an 80-sample slot at 20 MHz, which
  /// emulate() runs once per distinct slot; exposed for the slot-cache
  /// oracle test, which compares emulate() against it slot by slot.
  cvec emulate_symbol(std::span<const cplx> slot80,
                      std::span<const std::size_t> kept_bins, double alpha,
                      SymbolDiagnostics* diagnostics = nullptr,
                      cvec* grid_out = nullptr) const;

  const EmulatorConfig& config() const { return config_; }

 private:
  EmulatorConfig config_;
};

}  // namespace ctc::attack
