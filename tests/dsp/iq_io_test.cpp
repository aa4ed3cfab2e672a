#include "dsp/iq_io.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "dsp/require.h"
#include "dsp/rng.h"

namespace ctc::dsp {
namespace {

class IqIoTest : public ::testing::Test {
 protected:
  // One directory per test: ctest runs each case as its own process, so a
  // shared directory could be removed by one case's TearDown while another
  // case is still writing into it.
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) /
           (std::string("ctc_iq_io_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(IqIoTest, Cf32RoundTripPreservesSamples) {
  Rng rng(320);
  cvec samples(1000);
  for (auto& s : samples) s = rng.complex_gaussian(3.0);
  const auto path = dir_ / "capture.cf32";
  write_cf32(path, samples);
  const cvec loaded = read_cf32(path);
  ASSERT_EQ(loaded.size(), samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    // float32 quantization only.
    EXPECT_NEAR(std::abs(loaded[i] - samples[i]), 0.0, 1e-6 * std::abs(samples[i]) + 1e-9);
  }
}

TEST_F(IqIoTest, EmptyCaptureRoundTrips) {
  const auto path = dir_ / "empty.cf32";
  write_cf32(path, cvec{});
  EXPECT_TRUE(read_cf32(path).empty());
}

TEST_F(IqIoTest, FileSizeMatchesGnuRadioLayout) {
  const cvec samples(17, cplx{1.0, -1.0});
  const auto path = dir_ / "layout.cf32";
  write_cf32(path, samples);
  EXPECT_EQ(std::filesystem::file_size(path), 17u * 2 * 4);
}

TEST_F(IqIoTest, ReadRejectsTruncatedFile) {
  const auto path = dir_ / "truncated.cf32";
  std::ofstream out(path, std::ios::binary);
  const char junk[6] = {0};
  out.write(junk, sizeof junk);  // not a multiple of 8 bytes
  out.close();
  EXPECT_THROW(read_cf32(path), ContractError);
}

TEST_F(IqIoTest, ReadRejectsMissingFile) {
  EXPECT_THROW(read_cf32(dir_ / "does_not_exist.cf32"), ContractError);
}

TEST_F(IqIoTest, WriteRejectsUnwritablePath) {
  EXPECT_THROW(write_cf32(dir_ / "no_such_dir" / "x.cf32", cvec(4)), ContractError);
}

}  // namespace
}  // namespace ctc::dsp
