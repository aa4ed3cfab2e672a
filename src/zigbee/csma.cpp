#include "zigbee/csma.h"

#include "dsp/require.h"

namespace ctc::zigbee {

CsmaResult csma_ca(const std::function<bool(double)>& busy_at, dsp::Rng& rng,
                   CsmaConfig config) {
  CTC_REQUIRE(config.mac_min_be <= config.mac_max_be);
  CTC_REQUIRE(config.mac_max_be < 16);
  CsmaResult result;
  unsigned backoff_exponent = config.mac_min_be;
  double now_us = 0.0;
  for (unsigned attempt = 0; attempt <= config.max_csma_backoffs; ++attempt) {
    const std::uint64_t slots =
        rng.uniform_index((std::uint64_t{1} << backoff_exponent));
    now_us += static_cast<double>(slots) * config.backoff_period_us;
    ++result.backoffs;
    if (!busy_at(now_us)) {
      result.success = true;
      result.delay_us = now_us;
      return result;
    }
    backoff_exponent = std::min(backoff_exponent + 1, config.mac_max_be);
  }
  result.delay_us = now_us;
  return result;
}

}  // namespace ctc::zigbee
