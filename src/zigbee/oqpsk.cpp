#include "zigbee/oqpsk.h"

#include <cmath>

#include "dsp/kernels/kernels.h"
#include "dsp/pulse.h"
#include "dsp/require.h"

namespace ctc::zigbee {

OqpskModulator::OqpskModulator(std::size_t samples_per_chip)
    : samples_per_chip_(samples_per_chip),
      pulse_(dsp::half_sine_pulse(samples_per_chip)) {
  CTC_REQUIRE(samples_per_chip >= 1);
}

cvec OqpskModulator::modulate(std::span<const std::uint8_t> chips) const {
  const std::size_t spc = samples_per_chip_;
  cvec waveform((chips.size() + 1) * spc, cplx{0.0, 0.0});
  for (std::size_t i = 0; i < chips.size(); ++i) {
    const double amplitude = chips[i] ? 1.0 : -1.0;
    const std::size_t start = i * spc;
    const bool in_phase = (i % 2 == 0);
    for (std::size_t s = 0; s < pulse_.size(); ++s) {
      const double value = amplitude * pulse_[s];
      if (in_phase) {
        waveform[start + s] += cplx{value, 0.0};
      } else {
        waveform[start + s] += cplx{0.0, value};
      }
    }
  }
  return waveform;
}

OqpskDemodulator::OqpskDemodulator(std::size_t samples_per_chip)
    : samples_per_chip_(samples_per_chip),
      pulse_(dsp::half_sine_pulse(samples_per_chip)) {
  CTC_REQUIRE(samples_per_chip >= 1);
  pulse_energy_ = 0.0;
  for (double p : pulse_) pulse_energy_ += p * p;
}

rvec OqpskDemodulator::soft_chips(std::span<const cplx> waveform,
                                  std::size_t num_chips) const {
  rvec soft;
  extend_soft_chips(waveform, num_chips, soft);
  return soft;
}

void OqpskDemodulator::extend_soft_chips(std::span<const cplx> waveform,
                                         std::size_t num_chips,
                                         rvec& soft) const {
  const std::size_t spc = samples_per_chip_;
  CTC_REQUIRE_MSG(waveform.size() >= (num_chips + 1) * spc,
                  "waveform too short for requested chip count");
  const std::size_t first = soft.size();
  if (first >= num_chips) return;
  // Even start keeps the sub-call's chip parity (I vs Q branch) aligned
  // with the absolute chip index, so chip i's dot product is the one the
  // full-stream call would have computed.
  CTC_REQUIRE_MSG(first % 2 == 0, "soft-chip extension must start even");
  soft.resize(num_chips);
  // Matched filter through the dispatched kernel (AVX2 deinterleaves the
  // waveform once and runs contiguous dot products against the pulse).
  dsp::kernels::active().oqpsk_mf(waveform.data() + first * spc,
                                  num_chips - first, spc, pulse_.data(),
                                  pulse_.size(), pulse_energy_,
                                  soft.data() + first);
}

rvec OqpskDemodulator::frequency_chips(std::span<const cplx> waveform,
                                       std::size_t num_chips) const {
  rvec chips;
  extend_frequency_chips(waveform, num_chips, chips);
  return chips;
}

void OqpskDemodulator::extend_frequency_chips(std::span<const cplx> waveform,
                                              std::size_t num_chips,
                                              rvec& chips) const {
  const std::size_t spc = samples_per_chip_;
  CTC_REQUIRE_MSG(waveform.size() >= (num_chips + 1) * spc,
                  "waveform too short for requested chip count");
  const std::size_t first = chips.size();
  if (first >= num_chips) return;
  chips.resize(num_chips, 0.0);
  // Chip i sums the phase steps spanning [i*spc, (i+1)*spc], peak of chip
  // i-1 to peak of chip i, over pi/2 (clean MSK rotates +-pi/2 per chip).
  dsp::kernels::active().fm_discriminate(waveform.data() + first * spc,
                                         num_chips - first, spc,
                                         chips.data() + first);
}

std::vector<std::uint8_t> OqpskDemodulator::hard_decision(
    std::span<const double> soft) {
  std::vector<std::uint8_t> chips(soft.size());
  for (std::size_t i = 0; i < soft.size(); ++i) {
    chips[i] = soft[i] > 0.0 ? 1 : 0;
  }
  return chips;
}

}  // namespace ctc::zigbee
