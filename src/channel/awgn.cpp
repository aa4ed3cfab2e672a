#include "channel/awgn.h"

#include "dsp/stats.h"

namespace ctc::channel {

cvec add_awgn(std::span<const cplx> signal, double snr_db, dsp::Rng& rng) {
  const double signal_power = dsp::average_power(signal);
  const double noise_variance = signal_power / dsp::from_db(snr_db);
  cvec out(signal.begin(), signal.end());
  add_noise_variance_inplace(out, noise_variance, rng);
  return out;
}

void add_noise_variance_inplace(std::span<cplx> signal, double noise_variance,
                                dsp::Rng& rng) {
  rng.add_complex_gaussian(signal, noise_variance);
}

}  // namespace ctc::channel
