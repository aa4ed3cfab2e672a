#include "dsp/iq_io.h"

#include <cstdio>
#include <fstream>
#include <vector>

#include "dsp/require.h"

namespace ctc::dsp {

void write_cf32(const std::filesystem::path& path, std::span<const cplx> samples) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  CTC_REQUIRE_MSG(out.good(), "cannot open file for writing: " + path.string());
  write_cf32(out, samples);
}

void write_cf32(std::ostream& out, std::span<const cplx> samples) {
  std::vector<float> buffer;
  buffer.reserve(samples.size() * 2);
  for (const cplx& s : samples) {
    buffer.push_back(static_cast<float>(s.real()));
    buffer.push_back(static_cast<float>(s.imag()));
  }
  out.write(reinterpret_cast<const char*>(buffer.data()),
            static_cast<std::streamsize>(buffer.size() * sizeof(float)));
  out.flush();
  CTC_REQUIRE_MSG(out.good(), "cf32 write failed");
}

cvec read_cf32(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  CTC_REQUIRE_MSG(in.good(), "cannot open file for reading: " + path.string());
  const std::streamsize bytes = in.tellg();
  CTC_REQUIRE_MSG(bytes % (2 * sizeof(float)) == 0,
                  "file is not a whole number of complex float32 samples: " +
                      path.string());
  in.seekg(0);
  std::vector<float> buffer(static_cast<std::size_t>(bytes) / sizeof(float));
  in.read(reinterpret_cast<char*>(buffer.data()), bytes);
  CTC_REQUIRE_MSG(in.good(), "read failed: " + path.string());
  cvec samples(buffer.size() / 2);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    samples[i] = {static_cast<double>(buffer[2 * i]),
                  static_cast<double>(buffer[2 * i + 1])};
  }
  return samples;
}

}  // namespace ctc::dsp
