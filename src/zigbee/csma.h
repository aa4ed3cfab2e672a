// Channel access: energy detection (CCA mode 1) and unslotted CSMA/CA
// (Clause 6.2.5.1).
//
// Sec. IV-B of the paper: before replaying the emulated waveform, the WiFi
// attacker "checks the channel availability using CSMA/CA" and senses
// whether the ZigBee devices are currently communicating. These primitives
// model that step, and double as the victim network's own channel access.
#pragma once

#include <functional>
#include <span>

#include "dsp/rng.h"
#include "dsp/types.h"

namespace ctc::zigbee {

struct CsmaConfig {
  unsigned mac_min_be = 3;        ///< initial backoff exponent
  unsigned mac_max_be = 5;
  unsigned max_csma_backoffs = 4; ///< attempts before giving up
  double backoff_period_us = 320.0;  ///< 20 symbols at 62.5 ksym/s
};

struct CsmaResult {
  bool success = false;    ///< channel found idle within the attempt budget
  unsigned backoffs = 0;   ///< CCA attempts performed
  double delay_us = 0.0;   ///< total time spent backing off
};

/// Runs unslotted CSMA/CA against a channel-occupancy oracle:
/// `busy_at(t_us)` answers whether the medium is busy at absolute time
/// `t_us` (relative to the call). Deterministic given the RNG.
CsmaResult csma_ca(const std::function<bool(double)>& busy_at,
                   dsp::Rng& rng, CsmaConfig config = {});

}  // namespace ctc::zigbee
