// The WiFi transmitter's round-trip oracle: the known-rate 802.11g receive
// chain (LTF channel estimate, per-subcarrier equalization, pilot
// common-phase removal, hard QAM demapping, deinterleaving, hard-decision
// Viterbi decoding, descrambling). Rate and PSDU length are known out of
// band and sample 0 is the first STF sample, as in the paper's prototype.
// The library transmits WiFi only, so this chain lives with the tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "dsp/types.h"
#include "wifi/convcode.h"
#include "wifi/transmitter.h"

namespace ctc::wifi::oracle {

/// Strips the cyclic prefix of one 80-sample symbol and FFTs the rest back
/// to its 64-bin grid.
cvec time_to_grid(std::span<const cplx> symbol);

/// Hard-decision Viterbi decoding of the K = 7 code, punctured positions
/// treated as erasures. `coded.size()` must be consistent with `rate` (a
/// whole number of puncturing periods / bit pairs). Returns the
/// maximum-likelihood data bits (as many as the encoder consumed).
bitvec viterbi_decode(std::span<const std::uint8_t> coded, CodeRate rate);

struct ReceiveResult {
  bytevec psdu;
  bool ok = false;  ///< enough samples and consistent framing
};

/// Decodes `psdu_bytes` of payload sent at `mcs` and descrambles with
/// `scrambler_seed`.
ReceiveResult receive(std::span<const cplx> waveform, std::size_t psdu_bytes,
                      Mcs mcs = Mcs::mbps54,
                      std::uint8_t scrambler_seed = kScramblerSeed);

}  // namespace ctc::wifi::oracle
