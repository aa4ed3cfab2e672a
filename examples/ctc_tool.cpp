// ctc_tool — command-line front end for IQ captures (GNU Radio cf32 files).
//
//   ctc_tool generate <out.cf32> [text]      ZigBee frame -> waveform file
//   ctc_tool attack   <in.cf32> <out.cf32>   emulate an observed waveform
//   ctc_tool detect   <in.cf32>              decode + run the defense
//   ctc_tool psd      <in.cf32> [rate_hz]    spectrum summary
//
// Captures written here load directly into GNU Radio file sources (and vice
// versa), so the pipeline interoperates with real SDR recordings.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "attack/emulator.h"
#include "defense/detector.h"
#include "dsp/iq_io.h"
#include "dsp/psd.h"
#include "dsp/stats.h"
#include "zigbee/receiver.h"
#include "zigbee/shr_sync.h"
#include "zigbee/transmitter.h"

using namespace ctc;

namespace {

int cmd_generate(const char* path, const char* text) {
  zigbee::MacFrame frame;
  frame.payload.assign(text, text + std::strlen(text));
  const zigbee::Transmitter tx;
  const cvec wave = tx.transmit_frame(frame);
  dsp::write_cf32(path, wave);
  std::printf("wrote %zu samples (4 MHz baseband, payload \"%s\") to %s\n",
              wave.size(), text, path);
  return 0;
}

int cmd_attack(const char* in_path, const char* out_path) {
  const cvec observed = dsp::read_cf32(in_path);
  if (observed.empty()) {
    std::fprintf(stderr, "empty capture: %s\n", in_path);
    return 1;
  }
  if (dsp::energy(observed) == 0.0) {
    std::fprintf(stderr, "silent capture (no energy): %s\n", in_path);
    return 1;
  }
  attack::WaveformEmulator emulator;
  const attack::EmulationResult result = emulator.emulate(observed);
  dsp::write_cf32(out_path, result.emulated_4mhz);
  std::printf("emulated %zu WiFi symbols (alpha=%.3f, kept bins:",
              result.symbol_grids.size(), result.diagnostics.front().alpha);
  for (std::size_t bin : result.kept_bins) std::printf(" %zu", bin + 1);
  std::printf(")\nNMSE vs observed: %.4f; wrote %zu samples to %s\n",
              dsp::nmse(observed, result.emulated_4mhz),
              result.emulated_4mhz.size(), out_path);
  return 0;
}

int cmd_detect(const char* path) {
  const cvec capture = dsp::read_cf32(path);
  // Tolerate unaligned captures.
  const auto synced = zigbee::ShrSync().find(capture, 4000).offset;
  if (!synced) {
    std::printf("no SHR synced in %s\n", path);
    return 1;
  }
  const std::size_t offset = *synced;
  const auto rx =
      zigbee::Receiver().receive(std::span<const cplx>(capture).subspan(offset));
  std::printf("sync offset %zu | SHR %s | PHR %s | DSSS %s | FCS %s\n", offset,
              rx.shr_ok ? "ok" : "FAIL", rx.phr_ok ? "ok" : "FAIL",
              rx.psdu_complete ? "ok" : "FAIL", rx.mac ? "ok" : "FAIL");
  if (rx.mac) {
    std::printf("payload: \"%.*s\" (seq %u)\n",
                static_cast<int>(rx.mac->payload.size()),
                reinterpret_cast<const char*>(rx.mac->payload.data()),
                rx.mac->sequence);
  }
  if (rx.freq_chips.size() >= 8) {
    const defense::Detector detector;
    const auto verdict = detector.classify(rx.freq_chips);
    std::printf("defense: DE^2 = %.4f -> %s\n", verdict.distance_sq,
                verdict.is_attack ? "H1: WiFi emulation ATTACK"
                                  : "H0: authentic ZigBee transmitter");
  }
  return rx.frame_ok() ? 0 : 1;
}

int cmd_psd(const char* path, double rate_hz) {
  const cvec capture = dsp::read_cf32(path);
  dsp::PsdConfig config;
  config.sample_rate_hz = rate_hz;
  const dsp::PsdResult psd = dsp::welch_psd(capture, config);
  std::printf("PSD over %zu segments, %.0f Hz per bin\n", psd.segments_used,
              rate_hz / static_cast<double>(psd.power.size()));
  std::printf("power within +-1 MHz: %.1f%%\n",
              100.0 * dsp::band_power_fraction(psd, -1.0e6, 1.0e6));
  // Coarse 16-bucket spectrum bar chart.
  const std::size_t buckets = 16;
  const std::size_t per_bucket = psd.power.size() / buckets;
  double peak = 0.0;
  rvec bucket_power(buckets, 0.0);
  for (std::size_t b = 0; b < buckets; ++b) {
    for (std::size_t i = 0; i < per_bucket; ++i) {
      bucket_power[b] += psd.power[b * per_bucket + i];
    }
    peak = std::max(peak, bucket_power[b]);
  }
  for (std::size_t b = 0; b < buckets; ++b) {
    const double low = psd.frequency_hz[b * per_bucket];
    const int bars = peak > 0.0 ? static_cast<int>(40.0 * bucket_power[b] / peak) : 0;
    std::printf("%+8.2f MHz |%.*s\n", low / 1e6, bars,
                "****************************************");
  }
  return 0;
}

int dispatch(int argc, char** argv) {
  if (argc >= 3 && std::strcmp(argv[1], "generate") == 0) {
    return cmd_generate(argv[2], argc > 3 ? argv[3] : "HELLO");
  }
  if (argc >= 4 && std::strcmp(argv[1], "attack") == 0) {
    return cmd_attack(argv[2], argv[3]);
  }
  if (argc >= 3 && std::strcmp(argv[1], "detect") == 0) {
    return cmd_detect(argv[2]);
  }
  if (argc >= 3 && std::strcmp(argv[1], "psd") == 0) {
    return cmd_psd(argv[2], argc > 3 ? std::atof(argv[3]) : 4.0e6);
  }
  std::fprintf(stderr,
               "usage:\n"
               "  %s generate <out.cf32> [text]\n"
               "  %s attack <in.cf32> <out.cf32>\n"
               "  %s detect <in.cf32>\n"
               "  %s psd <in.cf32> [rate_hz]\n",
               argv[0], argv[0], argv[0], argv[0]);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // An unreadable or odd-length capture fails with one line, not an abort.
  try {
    return dispatch(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "ctc_tool: %s\n", error.what());
    return 1;
  }
}
