#include "attack/eavesdropper.h"

#include <gtest/gtest.h>

#include <string>

#include "attack/emulator.h"
#include "dsp/stats.h"
#include "zigbee/app.h"
#include "zigbee/receiver.h"
#include "zigbee/transmitter.h"

namespace ctc::attack {
namespace {

cvec victim_waveform() {
  zigbee::Transmitter tx;
  return tx.transmit_frame(zigbee::make_text_frame(11, 2));
}

TEST(EavesdropperTest, SynchronizesOnTheOverheardFrame) {
  dsp::Rng rng(230);
  Eavesdropper eavesdropper;
  const cvec waveform = victim_waveform();
  const EavesdropResult result = eavesdropper.listen(waveform, rng);
  ASSERT_TRUE(result.synchronized);
  // Lead-in is 900 samples at 20 MHz = 180 at 4 MHz; filters shift by a few.
  EXPECT_NEAR(static_cast<double>(result.frame_offset), 180.0, 5.0);
  EXPECT_EQ(result.observed_4mhz.size(), waveform.size());
}

TEST(EavesdropperTest, CapturedWaveformTracksTheOriginal) {
  dsp::Rng rng(231);
  EavesdropConfig config;
  config.snr_db = 45.0;
  Eavesdropper eavesdropper(config);
  const cvec waveform = victim_waveform();
  const EavesdropResult result = eavesdropper.listen(waveform, rng);
  ASSERT_TRUE(result.synchronized);
  // The 2 MHz front end keeps the ZigBee signal nearly intact at high SNR.
  EXPECT_LT(dsp::nmse(waveform, result.observed_4mhz), 0.05);
}

TEST(EavesdropperTest, CapturedFrameIsDecodable) {
  dsp::Rng rng(232);
  Eavesdropper eavesdropper;
  const EavesdropResult result = eavesdropper.listen(victim_waveform(), rng);
  ASSERT_TRUE(result.synchronized);
  const auto rx = zigbee::Receiver().receive(result.observed_4mhz);
  ASSERT_TRUE(rx.frame_ok());
  EXPECT_EQ(std::string(rx.mac->payload.begin(), rx.mac->payload.end()), "00011");
}

TEST(EavesdropperTest, FullChainEavesdropThenEmulateThenControl) {
  // The complete adversarial model: listen (Sec. IV-A) -> emulate (Sec. V)
  // -> the victim decodes the attacker's frame.
  dsp::Rng rng(233);
  Eavesdropper eavesdropper;
  const EavesdropResult capture = eavesdropper.listen(victim_waveform(), rng);
  ASSERT_TRUE(capture.synchronized);
  WaveformEmulator emulator;
  const EmulationResult emulation = emulator.emulate(capture.observed_4mhz);
  const auto rx = zigbee::Receiver().receive(emulation.emulated_4mhz);
  ASSERT_TRUE(rx.frame_ok());
  EXPECT_EQ(std::string(rx.mac->payload.begin(), rx.mac->payload.end()), "00011");
}

TEST(EavesdropperTest, NoSyncWhenOnlyNoiseIsCaptured) {
  dsp::Rng rng(234);
  EavesdropConfig config;
  config.snr_db = -25.0;  // frame buried far below the noise floor
  Eavesdropper eavesdropper(config);
  const EavesdropResult result = eavesdropper.listen(victim_waveform(), rng);
  EXPECT_FALSE(result.synchronized);
  EXPECT_TRUE(result.observed_4mhz.empty());
}

TEST(EavesdropperTest, LowSnrCapturesDegradeTheEmulation) {
  dsp::Rng rng(235);
  const cvec waveform = victim_waveform();
  auto capture_nmse = [&](double snr) {
    EavesdropConfig config;
    config.snr_db = snr;
    const EavesdropResult result = Eavesdropper(config).listen(waveform, rng);
    if (!result.synchronized) return 1.0;
    return dsp::nmse(waveform, result.observed_4mhz);
  };
  EXPECT_LT(capture_nmse(40.0), capture_nmse(10.0));
}

}  // namespace
}  // namespace ctc::attack
