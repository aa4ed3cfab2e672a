#include "attack/eavesdropper.h"

#include "channel/awgn.h"
#include "dsp/resample.h"
#include "dsp/stats.h"
#include "zigbee/shr_sync.h"

namespace ctc::attack {

Eavesdropper::Eavesdropper(EavesdropConfig config) : config_(config) {}

EavesdropResult Eavesdropper::listen(std::span<const cplx> zigbee_waveform,
                                     dsp::Rng& rng) const {
  EavesdropResult result;

  // Over the air: what the attacker's 20 MHz front end sees — the ZigBee
  // signal at -5 MHz, preceded by a noise-only lead-in.
  const cvec at_20mhz = dsp::upsample(zigbee_waveform, 5);
  const cvec shifted = dsp::frequency_shift(at_20mhz, config_.plan.offset_hz(),
                                            config_.plan.wifi_sample_rate_hz);
  cvec capture(config_.lead_in_samples, cplx{0.0, 0.0});
  capture.insert(capture.end(), shifted.begin(), shifted.end());
  capture = channel::add_awgn(capture, config_.snr_db, rng);

  // Attacker front end: mix the ZigBee band to DC and decimate to 4 MHz.
  result.capture_4mhz = wifi_band_to_zigbee_baseband(capture, config_.plan);

  // Frame sync against the 802.15.4 SHR.
  const std::optional<std::size_t> offset =
      zigbee::ShrSync().find(result.capture_4mhz, config_.max_sync_offset)
          .offset;
  if (!offset) return result;
  result.synchronized = true;
  result.frame_offset = *offset;
  result.observed_4mhz.assign(result.capture_4mhz.begin() + static_cast<long>(*offset),
                              result.capture_4mhz.end());
  // Trim trailing filter/decimation padding so downstream processing sees
  // the same frame extent the victim transmitted.
  if (result.observed_4mhz.size() > zigbee_waveform.size()) {
    result.observed_4mhz.resize(zigbee_waveform.size());
  }
  return result;
}

}  // namespace ctc::attack
