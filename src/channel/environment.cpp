#include "channel/environment.h"

#include "channel/awgn.h"
#include "channel/impairments.h"
#include "dsp/stats.h"
#include "sim/telemetry.h"

namespace ctc::channel {

double Environment::effective_snr_db() const {
  return distance_m ? path_loss.snr_db(*distance_m) : snr_db;
}

cvec Environment::propagate(std::span<const cplx> signal, dsp::Rng& rng) const {
  cvec out;
  propagate_into(out, signal, rng);
  return out;
}

void Environment::propagate_into(cvec& out, std::span<const cplx> signal,
                                 dsp::Rng& rng) const {
  CTC_TELEM_TIMER("channel", "propagate");
  CTC_TELEM_COUNT("channel", "frames", 1);
  CTC_TELEM_COUNT("channel", "samples", signal.size());
  CTC_TELEM_GAUGE("channel", "snr_db", effective_snr_db());
  out.assign(signal.begin(), signal.end());
  if (multipath) {
    CTC_TELEM_COUNT("channel", "multipath_fades", 1);
    apply_multipath_inplace(out, draw_multipath_taps(*multipath, rng));
  } else if (rician_k_factor) {
    CTC_TELEM_COUNT("channel", "rician_fades", 1);
    apply_flat_fading_inplace(out, rician_tap(*rician_k_factor, rng));
  }
  const double phase =
      random_phase ? rng.uniform(0.0, kTwoPi) : phase_offset_rad;
  if (cfo_hz != 0.0 || phase != 0.0) {
    apply_cfo_inplace(out, cfo_hz, sample_rate_hz, phase);
  }
  if (timing_offset != 0.0) {
    apply_timing_offset_inplace(out, timing_offset);
  }
  const double noise_variance = dsp::from_db(-effective_snr_db());
  add_noise_variance_inplace(out, noise_variance, rng);
}

Environment Environment::awgn(double snr_db) {
  Environment env;
  env.snr_db = snr_db;
  return env;
}

Environment Environment::real_world(double distance_m, double sample_rate_hz) {
  Environment env;
  env.distance_m = distance_m;
  env.rician_k_factor = 8.0;  // strong LoS at 1-8 m with human scatter
  env.cfo_hz = 80.0;          // small residual after coarse correction
  env.random_phase = true;
  env.sample_rate_hz = sample_rate_hz;
  env.timing_offset = 0.25;
  return env;
}

}  // namespace ctc::channel
