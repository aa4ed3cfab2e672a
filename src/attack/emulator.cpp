#include "attack/emulator.h"

#include <algorithm>
#include <cmath>
#include <string_view>
#include <unordered_map>

#include "dsp/fft.h"
#include "dsp/require.h"
#include "dsp/resample.h"
#include "sim/telemetry.h"
#include "wifi/ofdm.h"

namespace ctc::attack {

namespace {
constexpr std::size_t kSlot = wifi::kSymbolLength;        // 80
constexpr std::size_t kFft = wifi::kNumSubcarriers;       // 64
constexpr std::size_t kCp = wifi::kCyclicPrefixLength;    // 16

const dsp::FftPlan& slot_plan() {
  static const dsp::FftPlan plan(kFft);
  return plan;
}

/// Steps 3-5 on one slot's 64-bin spectrum: keep and quantize the chosen
/// bins into `grid` (zero elsewhere), then IFFT it into the last 64 samples
/// of the 80-sample `symbol` and copy the cyclic prefix in front.
SymbolDiagnostics emulate_spectrum(const cplx* spectrum,
                                   std::span<const std::size_t> kept_bins,
                                   double alpha, cplx* grid, cplx* symbol) {
  cvec kept_points;
  kept_points.reserve(kept_bins.size());
  for (std::size_t bin : kept_bins) {
    CTC_REQUIRE(bin < kFft);
    kept_points.push_back(spectrum[bin]);
  }
  const auto quantized = quantize_to_qam64(kept_points, alpha);
  std::fill(grid, grid + kFft, cplx{0.0, 0.0});
  for (std::size_t n = 0; n < kept_bins.size(); ++n) {
    grid[kept_bins[n]] = quantized[n].value;
  }

  SymbolDiagnostics diagnostics;
  diagnostics.alpha = alpha;
  for (std::size_t n = 0; n < kept_points.size(); ++n) {
    diagnostics.quantization_error += std::norm(kept_points[n] - quantized[n].value);
  }
  for (std::size_t k = 0; k < kFft; ++k) {
    if (grid[k] == cplx{0.0, 0.0}) diagnostics.discarded_energy += std::norm(spectrum[k]);
  }

  std::copy(grid, grid + kFft, symbol + kCp);
  slot_plan().inverse_inplace(std::span<cplx>(symbol + kCp, kFft));
  std::copy(symbol + kSlot - kCp, symbol + kSlot, symbol);
  return diagnostics;
}

/// Step 1: the frame at 20 MHz, zero-padded to whole WiFi-symbol slots.
cvec upsample_to_slots(std::span<const cplx> observed_4mhz, std::size_t factor) {
  CTC_TELEM_TIMER("attack", "upsample");
  cvec upsampled = dsp::upsample(observed_4mhz, factor);
  const std::size_t remainder = upsampled.size() % kSlot;
  if (remainder != 0) upsampled.resize(upsampled.size() + (kSlot - remainder), cplx{0.0, 0.0});
  return upsampled;
}

/// Step 2 once per distinct slot. Alpha and the kept bins are fixed per
/// frame, so a slot's exact 80 samples determine its whole output.
struct SlotSpectra {
  std::vector<std::size_t> distinct;    ///< slot -> index of its spectrum
  std::vector<std::size_t> first_slot;  ///< spectrum -> first slot using it
  cvec spectra;                         ///< kFft bins per distinct slot
};

SlotSpectra transform_slots(std::span<const cplx> upsampled) {
  SlotSpectra slots;
  slots.distinct.resize(upsampled.size() / kSlot);
  {
    std::unordered_map<std::string_view, std::size_t> seen;
    seen.reserve(slots.distinct.size());
    for (std::size_t s = 0; s < slots.distinct.size(); ++s) {
      const std::string_view key(
          reinterpret_cast<const char*>(upsampled.data() + s * kSlot),
          kSlot * sizeof(cplx));
      const auto [it, fresh] = seen.try_emplace(key, slots.first_slot.size());
      slots.distinct[s] = it->second;
      if (fresh) {
        CTC_TELEM_COUNT("attack", "lut_misses", 1);
        slots.first_slot.push_back(s);
      } else {
        CTC_TELEM_COUNT("attack", "lut_hits", 1);
      }
    }
  }
  // The FFT skips the first 16 samples, which the CP will overwrite.
  slots.spectra.resize(slots.first_slot.size() * kFft);
  for (std::size_t d = 0; d < slots.first_slot.size(); ++d) {
    const auto window = upsampled.subspan(slots.first_slot[d] * kSlot + kCp, kFft);
    const std::span<cplx> spectrum(slots.spectra.data() + d * kFft, kFft);
    std::copy(window.begin(), window.end(), spectrum.begin());
    slot_plan().forward_inplace(spectrum);
  }
  return slots;
}

}  // namespace

WaveformEmulator::WaveformEmulator(EmulatorConfig config)
    : config_(std::move(config)) {
  CTC_REQUIRE(config_.interpolation >= 1);
  if (config_.alpha) CTC_REQUIRE(*config_.alpha > 0.0);
}

cvec WaveformEmulator::emulate_symbol(std::span<const cplx> slot80,
                                      std::span<const std::size_t> kept_bins,
                                      double alpha,
                                      SymbolDiagnostics* diagnostics,
                                      cvec* grid_out) const {
  CTC_REQUIRE(slot80.size() == kSlot);
  cvec spectrum(slot80.begin() + kCp, slot80.end());
  slot_plan().forward_inplace(spectrum);
  cvec grid(kFft);
  cvec symbol(kSlot);
  const SymbolDiagnostics symbol_diagnostics = emulate_spectrum(
      spectrum.data(), kept_bins, alpha, grid.data(), symbol.data());
  if (diagnostics != nullptr) *diagnostics = symbol_diagnostics;
  if (grid_out != nullptr) *grid_out = std::move(grid);
  return symbol;
}

EmulationResult WaveformEmulator::emulate(std::span<const cplx> observed_4mhz) const {
  CTC_REQUIRE_MSG(!observed_4mhz.empty(), "nothing to emulate");
  CTC_REQUIRE_MSG(std::all_of(observed_4mhz.begin(), observed_4mhz.end(),
                              [](const cplx& x) {
                                return std::isfinite(x.real()) &&
                                       std::isfinite(x.imag());
                              }),
                  "observed frame has a non-finite sample");
  CTC_TELEM_TIMER("attack", "emulate");
  CTC_TELEM_COUNT("attack", "frames", 1);
  EmulationResult result;

  // Steps 1-2 and the subcarrier choice; the upsampled frame is freed once
  // every distinct slot is transformed.
  SlotSpectra slots;
  {
    const cvec upsampled = upsample_to_slots(observed_4mhz, config_.interpolation);
    CTC_TELEM_TIMER("attack", "select");
    slots = transform_slots(upsampled);
    if (config_.kept_bins.empty()) {
      SubcarrierSelector selector(config_.selection);
      result.kept_bins = selector.select_from_spectra(slots.spectra, slots.distinct).bins;
    } else {
      result.kept_bins = config_.kept_bins;
    }
  }
  for (std::size_t bin : result.kept_bins) CTC_REQUIRE(bin < kFft);

  // Choose the QAM scale. When optimizing, pool the kept frequency points of
  // every symbol so one alpha serves the whole frame (the attacker fixes the
  // constellation scale per transmission).
  double alpha;
  if (config_.alpha) {
    alpha = *config_.alpha;
  } else {
    CTC_TELEM_TIMER("attack", "scale_search");
    cvec pooled;
    pooled.reserve(slots.distinct.size() * result.kept_bins.size());
    for (std::size_t d : slots.distinct) {
      for (std::size_t bin : result.kept_bins) {
        pooled.push_back(slots.spectra[d * kFft + bin]);
      }
    }
    alpha = optimize_scale(pooled);
  }

  // Steps 3-6: each distinct slot is emulated at its first occurrence and
  // copied to its repeats.
  {
    CTC_TELEM_TIMER("attack", "slots");
    const std::size_t num_slots = slots.distinct.size();
    result.wifi_waveform_20mhz.resize(num_slots * kSlot);
    result.symbol_grids.resize(num_slots);
    result.diagnostics.resize(num_slots);
    for (std::size_t s = 0; s < num_slots; ++s) {
      const std::size_t d = slots.distinct[s];
      const std::size_t first = slots.first_slot[d];
      cplx* symbol = result.wifi_waveform_20mhz.data() + s * kSlot;
      if (first == s) {
        result.symbol_grids[s].resize(kFft);
        result.diagnostics[s] =
            emulate_spectrum(slots.spectra.data() + d * kFft, result.kept_bins,
                             alpha, result.symbol_grids[s].data(), symbol);
      } else {
        result.symbol_grids[s] = result.symbol_grids[first];
        result.diagnostics[s] = result.diagnostics[first];
        std::copy_n(result.wifi_waveform_20mhz.data() + first * kSlot, kSlot, symbol);
      }
      // The paper's three distortion sources (Sec. V), one metric each: the
      // 0.8 us head each symbol sacrifices to the cyclic prefix, the OFDM
      // bins zeroed by subcarrier truncation, and the energy the 64-QAM grid
      // snap discards.
      CTC_TELEM_COUNT("attack", "symbols", 1);
      CTC_TELEM_COUNT("attack", "cp_samples_overwritten", kCp);
      CTC_TELEM_COUNT("attack", "subcarriers_dropped",
                      kFft - result.kept_bins.size());
      CTC_TELEM_GAUGE("attack", "qam_error_energy",
                      result.diagnostics[s].quantization_error);
      CTC_TELEM_GAUGE("attack", "truncated_energy",
                      result.diagnostics[s].discarded_energy);
    }
  }
  CTC_TELEM_GAUGE("attack", "alpha", alpha);
  // Free the spectra before decimate allocates its 20 MHz intermediates.
  slots = SlotSpectra{};

  // What the ZigBee front end sees: 2 MHz channel filter + decimation.
  {
    CTC_TELEM_TIMER("attack", "decimate");
    result.emulated_4mhz = dsp::decimate(result.wifi_waveform_20mhz, config_.interpolation);
    result.emulated_4mhz.resize(observed_4mhz.size(), cplx{0.0, 0.0});
  }
  return result;
}

}  // namespace ctc::attack
