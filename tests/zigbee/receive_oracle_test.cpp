// Oracle for Receiver::receive's staged passes.
//
// receive() equalizes the header, decodes the PHR, then equalizes only the
// rest of the frame, straight out of place, and demodulates and despreads
// only the PSDU in its second pass. The oracle below rebuilds the
// whole-frame receive from public calls instead: a copy of the waveform
// divided in place by cdiv (first the header, then the whole frame), the
// full-stream frequency_chips / soft_chips, the full-stream
// despread_differential / despread, the SHR residual noise estimate,
// symbols_to_bytes and MacFrame::parse. Every ReceiveResult field must
// match it bit for bit, doubles compared with memcmp, for both receiver
// profiles, at whatever kernel level the process dispatches to.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "channel/environment.h"
#include "dsp/kernels/kernels.h"
#include "dsp/rng.h"
#include "sim/link.h"
#include "zigbee/app.h"
#include "zigbee/chip_sequences.h"
#include "zigbee/dsss.h"
#include "zigbee/frame.h"
#include "zigbee/oqpsk.h"
#include "zigbee/receiver.h"
#include "zigbee/transmitter.h"

namespace ctc::zigbee {
namespace {

constexpr std::size_t kShrSymbols = 2 * (kPreambleBytes + 1);
constexpr std::size_t kHeaderSymbols = kShrSymbols + 2;

/// Copies waveform[0, n) and divides the copy in place, as receive() did
/// before it divided out of place; an h too small to apply leaves the copy.
cvec equalized_copy(std::span<const cplx> waveform, std::size_t n, cplx h,
                    bool applied) {
  cvec out(waveform.begin(), waveform.begin() + static_cast<std::ptrdiff_t>(n));
  if (applied) dsp::kernels::active().cdiv(out.data(), n, h, out.data());
  return out;
}

ReceiveResult oracle_receive(const ReceiverConfig& config,
                             std::span<const cplx> waveform) {
  ReceiveResult result;
  const std::size_t spc = config.samples_per_chip;
  const std::size_t shr_chips = kShrSymbols * kChipsPerSymbol;
  const std::size_t header_chips = kHeaderSymbols * kChipsPerSymbol;
  if (waveform.size() < (header_chips + 1) * spc) return result;

  TransmitterConfig tx_config;
  tx_config.samples_per_chip = spc;
  tx_config.normalize_power = false;
  const cvec reference = Transmitter(tx_config).shr_reference();
  const dsp::kernels::KernelTable& kt = dsp::kernels::active();
  const std::size_t window = shr_chips * spc;
  const cplx correlation =
      kt.dot_conj(waveform.data(), reference.data(), window);
  const cplx h = correlation / kt.energy(reference.data(), window);
  const bool applied = std::abs(h) > 1e-9;
  if (applied) result.channel_estimate = h;

  double residual_energy = 0.0;
  double signal_energy = 0.0;
  for (std::size_t i = 0; i < window; ++i) {
    residual_energy += std::norm(waveform[i] - h * reference[i]);
    signal_energy += std::norm(h * reference[i]);
  }
  result.noise_variance_estimate =
      residual_energy / static_cast<double>(window);
  if (result.noise_variance_estimate > 0.0 && signal_energy > 0.0) {
    result.snr_estimate_db =
        10.0 * std::log10(signal_energy / residual_energy);
  }

  const OqpskDemodulator demodulator(spc);
  const bool differential = config.profile.demod == DemodKind::differential;
  const std::size_t threshold = config.profile.correlation_threshold;
  const auto despread_stream = [&](const cvec& equalized,
                                   std::size_t num_chips) {
    if (differential) {
      return despread_differential(
          demodulator.frequency_chips(equalized, num_chips), threshold);
    }
    return despread(OqpskDemodulator::hard_decision(
                        demodulator.soft_chips(equalized, num_chips)),
                    threshold);
  };

  const cvec header =
      equalized_copy(waveform, (header_chips + 1) * spc, h, applied);
  const auto header_symbols = despread_stream(header, header_chips);
  bool shr_ok = true;
  for (std::size_t s = 0; s < 2 * kPreambleBytes; ++s) {
    if (!header_symbols[s].accepted || header_symbols[s].symbol != 0) {
      shr_ok = false;
    }
  }
  const auto& sfd_low = header_symbols[2 * kPreambleBytes];
  const auto& sfd_high = header_symbols[2 * kPreambleBytes + 1];
  if (!sfd_low.accepted || sfd_low.symbol != (kSfd & 0x0F)) shr_ok = false;
  if (!sfd_high.accepted || sfd_high.symbol != (kSfd >> 4)) shr_ok = false;
  result.shr_ok = shr_ok;

  const auto& len_low = header_symbols[kShrSymbols];
  const auto& len_high = header_symbols[kShrSymbols + 1];
  if (!len_low.accepted || !len_high.accepted) return result;
  const std::size_t psdu_bytes =
      (static_cast<std::size_t>(len_high.symbol) << 4) | len_low.symbol;
  const std::size_t total_chips =
      header_chips + 2 * psdu_bytes * kChipsPerSymbol;
  if (psdu_bytes == 0 || psdu_bytes > kMaxPsduBytes ||
      waveform.size() < (total_chips + 1) * spc) {
    return result;
  }
  result.phr_ok = true;

  const cvec frame =
      equalized_copy(waveform, (total_chips + 1) * spc, h, applied);
  const rvec soft = demodulator.soft_chips(frame, total_chips);
  const rvec freq = demodulator.frequency_chips(frame, total_chips);
  result.soft_chips.assign(soft.begin() + header_chips, soft.end());
  result.freq_chips.assign(freq.begin() + header_chips, freq.end());
  result.hard_chips = OqpskDemodulator::hard_decision(result.soft_chips);
  const auto symbols = despread_stream(frame, total_chips);
  result.psdu_complete = true;
  std::vector<std::uint8_t> values;
  for (std::size_t s = kHeaderSymbols; s < symbols.size(); ++s) {
    result.hamming_distances.push_back(symbols[s].distance);
    if (!symbols[s].accepted) result.psdu_complete = false;
    values.push_back(symbols[s].symbol);
  }
  result.psdu = symbols_to_bytes(values);
  if (result.psdu_complete) result.mac = MacFrame::parse(result.psdu);
  return result;
}

bool same_bits(const void* a, const void* b, std::size_t bytes) {
  return bytes == 0 || std::memcmp(a, b, bytes) == 0;
}

void expect_bit_equal(const ReceiveResult& got, const ReceiveResult& want) {
  EXPECT_EQ(got.shr_ok, want.shr_ok);
  EXPECT_EQ(got.phr_ok, want.phr_ok);
  EXPECT_EQ(got.psdu_complete, want.psdu_complete);
  EXPECT_EQ(got.psdu, want.psdu);
  ASSERT_EQ(got.mac.has_value(), want.mac.has_value());
  if (got.mac) {
    EXPECT_EQ(got.mac->serialize(), want.mac->serialize());
  }
  EXPECT_EQ(got.hamming_distances, want.hamming_distances);
  ASSERT_EQ(got.soft_chips.size(), want.soft_chips.size());
  EXPECT_TRUE(same_bits(got.soft_chips.data(), want.soft_chips.data(),
                        got.soft_chips.size() * sizeof(double)));
  ASSERT_EQ(got.freq_chips.size(), want.freq_chips.size());
  EXPECT_TRUE(same_bits(got.freq_chips.data(), want.freq_chips.data(),
                        got.freq_chips.size() * sizeof(double)));
  EXPECT_EQ(got.hard_chips, want.hard_chips);
  EXPECT_TRUE(same_bits(&got.channel_estimate, &want.channel_estimate,
                        sizeof(cplx)));
  EXPECT_TRUE(same_bits(&got.noise_variance_estimate,
                        &want.noise_variance_estimate, sizeof(double)));
  EXPECT_TRUE(same_bits(&got.snr_estimate_db, &want.snr_estimate_db,
                        sizeof(double)));
  EXPECT_TRUE(same_bits(&got.timing_offset_estimate,
                        &want.timing_offset_estimate, sizeof(double)));
}

struct Capture {
  std::string name;
  cvec waveform;
};

/// Every input the oracle is checked on. The all-zero capture comes first
/// and is the longest, so the receiver's reused buffers hold stale samples
/// past every later frame's end.
std::vector<Capture> captures() {
  std::vector<Capture> out;
  const std::size_t spc = ReceiverConfig{}.samples_per_chip;
  const std::size_t header_samples = kHeaderSymbols * kChipsPerSymbol * spc;
  // Room for the largest admissible frame, like the scanner's lookahead.
  const std::size_t max_samples =
      (kHeaderSymbols + 2 * kMaxPsduBytes + 1) * kChipsPerSymbol * spc;
  out.push_back({"all-zero", cvec(max_samples, cplx{0.0, 0.0})});

  dsp::Rng rng = dsp::Rng::for_stream(26, 0);
  for (const sim::LinkKind kind :
       {sim::LinkKind::authentic, sim::LinkKind::emulated}) {
    sim::LinkConfig link_config;
    link_config.kind = kind;
    const sim::Link link(link_config);
    const std::string kind_name =
        kind == sim::LinkKind::authentic ? "authentic" : "emulated";
    for (const double snr_db : {3.0, 7.0, 12.0, 17.0}) {
      const MacFrame frame =
          make_text_frame(static_cast<unsigned>(snr_db), 0);
      cvec noisy = channel::Environment::awgn(snr_db).propagate(
          link.clean_waveform(frame), rng);
      const std::string name =
          kind_name + " " + std::to_string(static_cast<int>(snr_db)) + " dB";
      // Trailing noise: receive() must stop at the frame's end.
      cvec padded = noisy;
      for (int i = 0; i < 900; ++i) padded.push_back(rng.complex_gaussian(0.1));
      out.push_back({name + " + tail", padded});
      if (snr_db == 12.0) {
        // Cut off inside the PSDU: the PHR asks for more than is there.
        cvec cut(noisy.begin(),
                 noisy.begin() +
                     static_cast<std::ptrdiff_t>(header_samples + 300 * spc));
        out.push_back({name + " cut in PSDU", cut});
        // The PHR's two symbols replaced by noise.
        cvec corrupt = noisy;
        for (std::size_t i = kShrSymbols * kChipsPerSymbol * spc;
             i < header_samples; ++i) {
          corrupt[i] = rng.complex_gaussian(1.0);
        }
        out.push_back({name + " corrupted PHR", corrupt});
        // One NaN sample inside the PSDU, and one inside the SHR window
        // (a NaN channel estimate, which is not applied).
        cvec nan_psdu = noisy;
        nan_psdu[header_samples + 101] =
            cplx{std::numeric_limits<double>::quiet_NaN(), 0.5};
        out.push_back({name + " NaN in PSDU", nan_psdu});
        cvec nan_shr = noisy;
        nan_shr[40] = cplx{0.5, std::numeric_limits<double>::quiet_NaN()};
        out.push_back({name + " NaN in SHR", nan_shr});
      }
      out.push_back({name, std::move(noisy)});
    }
  }
  return out;
}

class ReceiveOracleTest : public testing::TestWithParam<ReceiverProfile> {};

TEST_P(ReceiveOracleTest, EveryFieldMatchesTheWholeFrameReceive) {
  ReceiverConfig config;
  config.profile = GetParam();
  const Receiver receiver(config);
  std::size_t frames_ok = 0;
  std::size_t phr_ok = 0;
  for (const Capture& capture : captures()) {
    SCOPED_TRACE(capture.name);
    const ReceiveResult got = receiver.receive(capture.waveform);
    expect_bit_equal(got, oracle_receive(config, capture.waveform));
    frames_ok += got.frame_ok() ? 1 : 0;
    phr_ok += got.phr_ok ? 1 : 0;
  }
  // The inputs reach the second pass, and some frames decode.
  EXPECT_GE(phr_ok, 8U);
  EXPECT_GE(frames_ok, 4U);
}

INSTANTIATE_TEST_SUITE_P(Profiles, ReceiveOracleTest,
                         testing::Values(ReceiverProfile::usrp(),
                                         ReceiverProfile::cc26x2r1()),
                         [](const testing::TestParamInfo<ReceiverProfile>& p) {
                           return p.param.name;
                         });

}  // namespace
}  // namespace ctc::zigbee
