// Pins the kernel-layer equivalence contracts (see dsp/kernels/kernels.h):
// bitwise-class kernels must agree bit for bit between the scalar table and
// the best level this CPU supports; tolerance-class kernels must agree to a
// small relative error. Every kernel runs across odd lengths, unaligned
// buffer offsets and tail remainders so the SIMD head/body/tail splits are
// all exercised. On a CPU without AVX2 the comparison degenerates to
// scalar vs scalar and still passes.
#include "dsp/kernels/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "dsp/rng.h"
#include "dsp/types.h"

namespace ctc::dsp::kernels {
namespace {

// Lengths spanning every AVX2 head/interior/tail combination: below one
// vector, exact multiples, one-off remainders, and large mixed cases.
const std::vector<std::size_t> kLengths = {1,  2,  3,  5,   7,   8,   15,  16,
                                           17, 31, 33, 64,  65,  100, 127, 128,
                                           129};

// Offsets into an oversized backing buffer: 0 keeps the vector-friendly
// base alignment, odd offsets shift every load/store off it.
const std::vector<std::size_t> kOffsets = {0, 1, 3};

cvec random_cvec(Rng& rng, std::size_t n) {
  cvec v(n);
  for (auto& x : v) x = rng.complex_gaussian(1.0);
  return v;
}

rvec random_rvec(Rng& rng, std::size_t n) {
  rvec v(n);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

void expect_bitwise(const cvec& a, const cvec& b, const char* what,
                    std::size_t n, std::size_t offset) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::memcmp(&a[i], &b[i], sizeof(cplx)), 0)
        << what << " diverges at i=" << i << " (n=" << n
        << ", offset=" << offset << "): (" << a[i].real() << "," << a[i].imag()
        << ") vs (" << b[i].real() << "," << b[i].imag() << ")";
  }
}

void expect_close(const cvec& a, const cvec& b, double tol, const char* what,
                  std::size_t n, std::size_t offset) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i].real(), b[i].real(), tol)
        << what << " i=" << i << " n=" << n << " offset=" << offset;
    EXPECT_NEAR(a[i].imag(), b[i].imag(), tol)
        << what << " i=" << i << " n=" << n << " offset=" << offset;
  }
}

/// Runs `body(scalar_out, best_out, n, offset)` over the length x offset
/// grid. The body fills both outputs from identical inputs at the two
/// dispatch levels.
template <class Body>
void for_each_case(const Body& body) {
  for (std::size_t n : kLengths) {
    for (std::size_t offset : kOffsets) {
      body(n, offset);
    }
  }
}

const KernelTable& scalar_table() { return table(SimdLevel::scalar); }
const KernelTable& best_table() { return table(best_supported_level()); }

TEST(KernelsDispatch, LevelNamesAndActiveTableResolve) {
  EXPECT_STREQ(level_name(SimdLevel::scalar), "scalar");
  EXPECT_STREQ(level_name(SimdLevel::avx2), "avx2");
  // active() must resolve to a table and stay stable across calls.
  const KernelTable& first = active();
  EXPECT_EQ(&first, &active());
  EXPECT_EQ(&table(active_level()), &first);
}

TEST(KernelsEquivalence, RscaleBitwise) {
  Rng rng = Rng::for_stream(1, 3);
  for_each_case([&](std::size_t n, std::size_t offset) {
    const cvec x = random_cvec(rng, n + offset);
    const double s = rng.uniform(0.5, 2.0);
    cvec a = x, b = x;
    scalar_table().rscale(a.data() + offset, n, s);
    best_table().rscale(b.data() + offset, n, s);
    expect_bitwise(a, b, "rscale", n, offset);
  });
}

std::string hex(cplx v) {
  std::ostringstream out;
  out << std::hexfloat << '(' << v.real() << ',' << v.imag() << ')';
  return out.str();
}

/// Divides x[offset, offset + n) by h at both levels, in place and out of
/// place, and compares every byte of each result with std::complex
/// operator/=, i.e. libgcc's __divdc3 — what the equalizer compiled to
/// before the kernel existed. Out of place, the input must stay as it was
/// and the output buffer untouched outside [offset, offset + n).
testing::AssertionResult cdiv_matches_operator(const cvec& x,
                                               std::size_t offset,
                                               std::size_t n, cplx h) {
  cvec expected = x;
  for (std::size_t i = offset; i < offset + n; ++i) expected[i] /= h;
  const cplx untouched{-7.0, 7.0};
  for (const SimdLevel level : {SimdLevel::scalar, best_supported_level()}) {
    for (const bool in_place : {true, false}) {
      cvec in = x;
      cvec out(x.size(), untouched);
      cvec& got = in_place ? in : out;
      table(level).cdiv(in.data() + offset, n, h, got.data() + offset);
      for (std::size_t i = 0; i < x.size(); ++i) {
        const bool inside = i >= offset && i < offset + n;
        const cplx want = inside ? expected[i] : in_place ? x[i] : untouched;
        if (std::memcmp(&got[i], &want, sizeof(cplx)) != 0 ||
            std::memcmp(&in[i], in_place ? &want : &x[i], sizeof(cplx)) != 0) {
          return testing::AssertionFailure()
                 << level_name(level)
                 << (in_place ? " in-place" : " out-of-place")
                 << " cdiv differs from operator/= at i=" << i
                 << " (n=" << n << ", offset=" << offset << "): " << hex(x[i])
                 << " / " << hex(h) << " gave " << hex(got[i]) << ", input "
                 << hex(in[i]) << ", expected " << hex(want);
        }
      }
    }
  }
  return testing::AssertionSuccess();
}

// cdiv must reproduce every branch of libgcc's __divdc3, either in the
// vector kernel or by handing the call or the sample to the scalar table:
// both Smith branches, the whole-call halving and scaling, the zero- or
// subnormal-ratio formula, per-sample operand scaling and NaN recovery.
TEST(KernelsEquivalence, CdivBitwise) {
  Rng rng = Rng::for_stream(1, 5);
  const double max = std::numeric_limits<double>::max();
  const double min = std::numeric_limits<double>::min();
  const double eps = std::numeric_limits<double>::epsilon();
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double subnormal = min / 3;
  std::vector<cplx> divisors = {
      // |Re h| > |Im h| (libgcc's d/c branch), receiver-like first.
      {0.99, 0.003}, {-1.7, 0.6}, {2.0, -1.9},
      // |Re h| < |Im h| (the c/d branch), and |Re h| == |Im h| (d/c).
      {0.003, -0.99}, {-0.4, 2.5}, {0.7, 0.7}, {-0.7, 0.7},
      // Exactly real or imaginary: a zero ratio, the alternate formula.
      {1.5, 0.0}, {-1.5, -0.0}, {0.0, 0.8}, {-0.0, -0.8},
      // A ratio of DBL_MIN (alternate formula) and of 2 DBL_MIN (not).
      {1.0, min}, {-1.0, 2.0 * min}, {min, 1.0},
      // |h| >= DBL_MAX / 2: every operand is halved. Then just below it.
      {max / 2, 1.0}, {0.3, -0.75 * max}, {std::nextafter(max / 2, 0.0), 3.0},
      // |h| < DBL_EPSILON: every operand is scaled up. Then at DBL_EPSILON.
      {eps / 2, eps / 8}, {1e-300, -3e-300}, {eps, -eps / 4}, {0.0, 0.0},
      // A subnormal component.
      {2.0, subnormal}, {subnormal, -2.0}, {subnormal, subnormal},
      // Non-finite.
      {inf, 1.0}, {1.0, -inf}, {nan, 0.5}, {1.0, nan}};
  // Random divisors from 1e-12 to 1e12 in magnitude, at every angle.
  for (int k = 0; k < 40; ++k) {
    divisors.push_back(std::polar(std::pow(10.0, rng.uniform(-12.0, 12.0)),
                                  rng.uniform(-kPi, kPi)));
  }
  // Sample components around libgcc's per-sample thresholds and the
  // overflow and NaN edges.
  const std::vector<double> specials = {
      0.0, -0.0, min, -min, std::nextafter(min, 0.0), std::nextafter(min, 1.0),
      subnormal, -0x1p-1074, 1e300, -1e-300, max, -max, inf, -inf, nan};
  for (const cplx h : divisors) {
    // Ordinary samples over the length x offset grid.
    for_each_case([&](std::size_t n, std::size_t offset) {
      ASSERT_TRUE(cdiv_matches_operator(random_cvec(rng, n + offset), offset,
                                        n, h));
    });
    // Every pair of special components in lane 0 (index 2), lane 1
    // (index 3) and the odd tail (index 4) of a five-sample call; index
    // specials.size() leaves that component ordinary, as are the other
    // samples.
    for (std::size_t slot = 2; slot < 5; ++slot) {
      for (std::size_t r = 0; r <= specials.size(); ++r) {
        for (std::size_t m = 0; m <= specials.size(); ++m) {
          const std::size_t offset = (r + m) % 2;
          cvec x = random_cvec(rng, 5 + offset);
          cplx& sample = x[offset + slot];
          if (r < specials.size()) sample.real(specials[r]);
          if (m < specials.size()) sample.imag(specials[m]);
          ASSERT_TRUE(cdiv_matches_operator(x, offset, 5, h));
        }
      }
    }
  }
}

TEST(KernelsEquivalence, ApplyWindowBitwise) {
  Rng rng = Rng::for_stream(1, 6);
  for_each_case([&](std::size_t n, std::size_t offset) {
    const cvec x = random_cvec(rng, n + offset);
    const rvec w = random_rvec(rng, n + offset);
    cvec a(n), b(n);
    scalar_table().apply_window(x.data() + offset, w.data() + offset, n,
                                a.data());
    best_table().apply_window(x.data() + offset, w.data() + offset, n,
                              b.data());
    expect_bitwise(a, b, "apply_window", n, offset);
  });
}

TEST(KernelsEquivalence, AccumulateMag2Bitwise) {
  Rng rng = Rng::for_stream(1, 7);
  for_each_case([&](std::size_t n, std::size_t offset) {
    const cvec x = random_cvec(rng, n + offset);
    const rvec init = random_rvec(rng, n);
    rvec a = init, b = init;
    scalar_table().accumulate_mag2(a.data(), x.data() + offset, n);
    best_table().accumulate_mag2(b.data(), x.data() + offset, n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(std::memcmp(&a[i], &b[i], sizeof(double)), 0)
          << "accumulate_mag2 i=" << i << " n=" << n << " offset=" << offset;
    }
  });
}

TEST(KernelsEquivalence, TwoTapBitwise) {
  Rng rng = Rng::for_stream(1, 8);
  for_each_case([&](std::size_t n, std::size_t offset) {
    const cvec x = random_cvec(rng, n + offset);
    const double frac = rng.uniform(0.0, 1.0);
    cvec a = x, b = x;
    scalar_table().two_tap(a.data() + offset, n, 1.0 - frac, frac);
    best_table().two_tap(b.data() + offset, n, 1.0 - frac, frac);
    expect_bitwise(a, b, "two_tap", n, offset);
  });
}

TEST(KernelsEquivalence, EnergyBitwise) {
  Rng rng = Rng::for_stream(1, 9);
  for_each_case([&](std::size_t n, std::size_t offset) {
    const cvec x = random_cvec(rng, n + offset);
    const double a = scalar_table().energy(x.data() + offset, n);
    const double b = best_table().energy(x.data() + offset, n);
    EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0)
        << "energy n=" << n << " offset=" << offset << ": " << a << " vs "
        << b;
  });
}

TEST(KernelsEquivalence, DotConjBitwise) {
  Rng rng = Rng::for_stream(1, 10);
  for_each_case([&](std::size_t n, std::size_t offset) {
    const cvec x = random_cvec(rng, n + offset);
    const cvec y = random_cvec(rng, n + offset);
    const cplx a = scalar_table().dot_conj(x.data() + offset,
                                           y.data() + offset, n);
    const cplx b = best_table().dot_conj(x.data() + offset, y.data() + offset,
                                         n);
    EXPECT_EQ(std::memcmp(&a, &b, sizeof(cplx)), 0)
        << "dot_conj n=" << n << " offset=" << offset;
  });
}

/// One period of the periodic half-sine O-QPSK waveform of `chips` (bit j
/// set = chip +1; even chips on I, odd on Q; chip 31 wraps to sample 0):
/// chip_strip's reference, built sample by sample.
cvec periodic_oqpsk(std::uint32_t chips, std::size_t spc,
                    const rvec& pulse) {
  const auto amplitude = [&](std::size_t chip) {
    return ((chips >> chip) & 1U) != 0 ? 1.0 : -1.0;
  };
  cvec period(32 * spc);
  for (std::size_t m = 0; m < period.size(); ++m) {
    const std::size_t chip = m / spc;
    const double lead = amplitude(chip) * pulse[m % spc];
    const double trail = amplitude((chip + 31) % 32) * pulse[m % spc + spc];
    period[m] = chip % 2 == 0 ? cplx{lead, trail} : cplx{trail, lead};
  }
  return period;
}

TEST(KernelsEquivalence, ChipStripBitwise) {
  Rng rng = Rng::for_stream(1, 21);
  // Strip widths spanning the 4- and 16-offset AVX2 blocks and their tails.
  const std::vector<std::size_t> kStrips = {1,  2,  3,  4,  5,  7,  15,
                                            16, 17, 20, 31, 33, 64, 101};
  for (std::size_t spc = 1; spc <= 4; ++spc) {
    rvec pulse(2 * spc);
    for (std::size_t n = 0; n < pulse.size(); ++n) {
      pulse[n] = std::sin(kPi * static_cast<double>(n) /
                          static_cast<double>(pulse.size()));
    }
    for (std::size_t m : kStrips) {
      for (std::size_t offset : kOffsets) {
        const auto chips = static_cast<std::uint32_t>(rng.next_u64());
        const cvec x = random_cvec(rng, offset + m + 32 * spc - 1);
        const cvec r = periodic_oqpsk(chips, spc, pulse);
        cvec a(m), b(m);
        rvec work(chip_strip_work(m, spc));
        scalar_table().chip_strip(x.data() + offset, m, spc, pulse.data(),
                                  chips, work.data(), a.data());
        std::fill(work.begin(), work.end(), 0.0);
        best_table().chip_strip(x.data() + offset, m, spc, pulse.data(), chips,
                                work.data(), b.data());
        expect_bitwise(a, b, "chip_strip", m, offset);
        // The strip is dot_conj against the period regrouped by chips: the
        // same sum up to rounding, far inside 1e-13 of sum |x||r|.
        for (std::size_t s = 0; s < m; ++s) {
          const cplx exact =
              scalar_table().dot_conj(x.data() + offset + s, r.data(), r.size());
          double scale = 0.0;
          for (std::size_t i = 0; i < r.size(); ++i) {
            scale += std::abs(x[offset + s + i]) * std::abs(r[i]);
          }
          EXPECT_LE(std::abs(a[s] - exact), 1e-13 * scale)
              << "chip_strip vs dot_conj spc=" << spc << " m=" << m
              << " s=" << s << " offset=" << offset;
        }
      }
    }
  }
}

TEST(KernelsEquivalence, ChipStripPropagatesNonFinite) {
  // One NaN or Inf sample makes every strip value whose window covers it
  // non-finite at both levels, since every sample meets a reference value.
  const std::size_t spc = 2, m = 40;
  rvec pulse(2 * spc);
  for (std::size_t n = 0; n < pulse.size(); ++n) {
    pulse[n] = std::sin(kPi * static_cast<double>(n) / 4.0);
  }
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Rng rng = Rng::for_stream(1, 22);
  for (const cplx bad : {cplx{nan, 0.0}, cplx{inf, 0.0}, cplx{0.0, -inf}}) {
    for (std::size_t at : {0UL, 1UL, 20UL, 63UL, 64UL, 70UL}) {
      cvec x = random_cvec(rng, m + 32 * spc - 1);
      x[at] = bad;
      cvec a(m), b(m);
      rvec work(chip_strip_work(m, spc));
      scalar_table().chip_strip(x.data(), m, spc, pulse.data(), 0x12345678U,
                                work.data(), a.data());
      best_table().chip_strip(x.data(), m, spc, pulse.data(), 0x12345678U,
                              work.data(), b.data());
      expect_bitwise(a, b, "chip_strip non-finite", m, at);
      for (std::size_t s = 0; s < m; ++s) {
        const bool covered = s <= at && at < s + 32 * spc;
        EXPECT_EQ(std::isfinite(a[s].real()) && std::isfinite(a[s].imag()),
                  !covered)
            << "s=" << s << " at=" << at;
      }
    }
  }
}

TEST(KernelsEquivalence, CumulantAccBitwise) {
  Rng rng = Rng::for_stream(1, 11);
  for_each_case([&](std::size_t n, std::size_t offset) {
    const cvec x = random_cvec(rng, n + offset);
    CumulantLanes a{}, b{};
    scalar_table().cumulant_acc(x.data() + offset, n, &a);
    best_table().cumulant_acc(x.data() + offset, n, &b);
    EXPECT_EQ(std::memcmp(&a, &b, sizeof(CumulantLanes)), 0)
        << "cumulant lanes n=" << n << " offset=" << offset;
    const CumulantSums fa = a.fold();
    const CumulantSums fb = b.fold();
    EXPECT_EQ(std::memcmp(&fa, &fb, sizeof(CumulantSums)), 0)
        << "cumulant fold n=" << n << " offset=" << offset;
  });
}

TEST(KernelsEquivalence, AddGaussBitwise) {
  Rng rng = Rng::for_stream(1, 22);
  // Every tail length (0-9), a few passes plus a tail (31), one ZigBee text
  // frame (2818) and a maximum sentry lookahead (17501).
  const std::vector<std::size_t> lengths = {0, 1, 2,  3,    4,    5,    6,
                                            7, 8, 9, 31, 2818, 17501};
  for (std::size_t n : lengths) {
    for (std::size_t offset : {std::size_t{0}, std::size_t{1}}) {
      const cvec x = random_cvec(rng, n + offset);
      GaussLanes start{};
      for (auto& word : start.s) {
        for (auto& lane : word) lane = rng.next_u64();
      }
      const double sigma = rng.uniform(0.1, 2.0);
      cvec a = x, b = x;
      GaussLanes lanes_a = start, lanes_b = start;
      scalar_table().add_gauss(a.data() + offset, n, sigma, &lanes_a);
      best_table().add_gauss(b.data() + offset, n, sigma, &lanes_b);
      expect_bitwise(a, b, "add_gauss", n, offset);
      EXPECT_EQ(std::memcmp(&lanes_a, &lanes_b, sizeof(GaussLanes)), 0)
          << "add_gauss lane states n=" << n << " offset=" << offset;
      // Adding in place == drawing onto zeros, then adding.
      cvec noise(n + offset, cplx{0.0, 0.0});
      GaussLanes lanes_n = start;
      best_table().add_gauss(noise.data() + offset, n, sigma, &lanes_n);
      cvec c = x;
      for (std::size_t i = offset; i < c.size(); ++i) c[i] += noise[i];
      expect_bitwise(b, c, "add_gauss vs zeros + add", n, offset);
      EXPECT_EQ(std::memcmp(&lanes_n, &lanes_b, sizeof(GaussLanes)), 0);
    }
  }
}

/// fm_discriminate of `chips` chips from wave[offset] at both levels,
/// compared byte for byte (and the slot past the last chip untouched).
testing::AssertionResult fm_discriminate_bitwise(const cvec& wave,
                                                 std::size_t offset,
                                                 std::size_t chips,
                                                 std::size_t spc) {
  rvec a(chips + 1, 7.0);
  rvec b(chips + 1, 7.0);
  scalar_table().fm_discriminate(wave.data() + offset, chips, spc, a.data());
  best_table().fm_discriminate(wave.data() + offset, chips, spc, b.data());
  for (std::size_t i = 0; i <= chips; ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0) {
      return testing::AssertionFailure()
             << "fm_discriminate differs at chip " << i << " of " << chips
             << " (spc=" << spc << ", offset=" << offset << "): "
             << std::hexfloat << a[i] << " vs " << b[i];
    }
  }
  return testing::AssertionSuccess();
}

// The AVX2 kernel runs whole blocks of 32 steps (eight four-step passes)
// at spc = 2 and hands the chips past the last block, and every other spc,
// to the scalar table: chip counts at one and two blocks +-1 chip sit on
// that seam.
std::vector<std::size_t> fm_chip_counts(std::size_t spc) {
  // Every tail length at 1-4 samples per chip (0-9 chips), a few passes
  // plus a tail (31) and one text frame's discriminator chips (1408), +-1.
  std::vector<std::size_t> counts = {0, 1, 2,  3,    4,    5,   6,
                                     7, 8, 9, 31, 1407, 1408, 1409};
  for (std::size_t blocks : {1, 2}) {
    const std::size_t steps = 32 * blocks;
    for (std::size_t c = steps / spc - 1; c <= (steps + spc - 1) / spc + 1;
         ++c) {
      counts.push_back(c);
    }
  }
  return counts;
}

TEST(KernelsEquivalence, FmDiscriminateBitwise) {
  Rng rng = Rng::for_stream(1, 23);
  const double inf = std::numeric_limits<double>::infinity();
  // Component values that take fm_atan2's special branches, and magnitudes
  // whose ratios sit on s_atan's reduction thresholds and on fdlibm's 2^60
  // exponent-gap cutoffs.
  const std::vector<double> specials = {
      0.0, -0.0, inf, -inf, std::nan(""), 0x1p-1074, 1e-310, 1e300, -1e300,
      1e-300};
  const std::vector<double> ratios = {0x1p-27, 0.4375, 0.6875,
                                      1.1875,  2.4375, 0x1p60,
                                      0x1p-60, 0x1p61, 0x1p-61};
  for (std::size_t spc = 1; spc <= 4; ++spc) {
    for (std::size_t chips : fm_chip_counts(spc)) {
      for (std::size_t offset : {std::size_t{0}, std::size_t{1}}) {
        for (int variant = 0; variant < 4; ++variant) {
          cvec wave = random_cvec(rng, chips * spc + 1 + offset);
          for (std::size_t i = 0; i < wave.size(); ++i) {
            const std::size_t pick = rng.next_u64() % 16;
            if (variant == 1 && pick < 3) {
              // A special value in one component.
              const double v = specials[rng.next_u64() % specials.size()];
              if (pick == 0) {
                wave[i] = cplx{v, wave[i].imag()};
              } else {
                wave[i] = cplx{wave[i].real(), v};
              }
            } else if (variant == 2 && pick < 4) {
              // Steps whose squared magnitude straddles the 1e-24 gate.
              wave[i] *= std::sqrt(1e-24) * rng.uniform(0.5, 2.0);
            } else if (variant == 3 && i > 0 && pick < 6) {
              // The next step's im/re ratio lands on a threshold, +-1 ulp:
              // with prev = (1, 0) the step is (re, im) of this sample.
              double ratio = ratios[rng.next_u64() % ratios.size()];
              if (pick == 1) ratio = std::nextafter(ratio, 0.0);
              if (pick == 2) ratio = std::nextafter(ratio, inf);
              const double re = rng.uniform(0.5, 2.0) * (pick & 1 ? -1 : 1);
              wave[i - 1] = cplx{1.0, 0.0};
              wave[i] = cplx{re, re * ratio * (pick & 2 ? -1 : 1)};
            }
          }
          ASSERT_TRUE(fm_discriminate_bitwise(wave, offset, chips, spc))
              << "variant " << variant;
        }
      }
    }
  }
}

// Every special value in each component of the sample that ends step p,
// for each of the 32 step positions of a block (and so each lane of each
// of its eight passes), with the block followed by a second one and a
// scalar tail. The scalar fixup must finish every flagged lane.
TEST(KernelsEquivalence, FmDiscriminateFixupAtEveryStep) {
  Rng rng = Rng::for_stream(1, 25);
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> specials = {
      0.0, -0.0, inf, -inf, std::nan(""), 0x1p-1074, 1e-310, 1e300, -1e300,
      1e-300};
  for (std::size_t spc = 1; spc <= 4; ++spc) {
    const std::size_t chips = (68 + spc - 1) / spc;
    for (std::size_t step = 0; step < 32; ++step) {
      for (const double v : specials) {
        for (int component = 0; component < 2; ++component) {
          cvec wave = random_cvec(rng, chips * spc + 1);
          // Step `step` is wave[step + 1] * conj(wave[step]); prev = (1, 0)
          // makes the step the planted sample itself.
          wave[step] = cplx{1.0, 0.0};
          cplx& sample = wave[step + 1];
          if (component == 0) {
            sample.real(v);
          } else {
            sample.imag(v);
          }
          ASSERT_TRUE(fm_discriminate_bitwise(wave, 0, chips, spc))
              << "step " << step << " component " << component << " value "
              << v;
        }
      }
    }
  }
}

// At spc = 2 the AVX2 kernel sums a chip's two phases in vector registers
// as fl(fl(+0.0 + p0) + p1). A first step of (x, -0.0) has phase -0.0; when
// the second step's phase is -0.0 too, a plain p0 + p1 would give -0.0
// where the scalar sum, which starts at +0.0, gives +0.0.
TEST(KernelsEquivalence, FmDiscriminateNegativeZeroFirstStep) {
  Rng rng = Rng::for_stream(1, 26);
  const std::size_t spc = 2;
  const std::size_t chips = 40;
  for (std::size_t chip = 0; chip < chips; ++chip) {
    for (int second = 0; second < 3; ++second) {
      cvec wave = random_cvec(rng, chips * spc + 1);
      // Chip `chip` reads samples 2 chip .. 2 chip + 2. prev = (1, 0) and
      // sample = (x, -0.0) make its first step (x, -0.0), x > 0.
      const std::size_t start = chip * spc;
      wave[start] = cplx{1.0, 0.0};
      wave[start + 1] = cplx{1e10, -0.0};
      if (second == 1) {
        // Second step (+inf, -1e10): phase -0.0.
        wave[start + 2] = cplx{1e300, -1.0};
      } else if (second == 2) {
        // Second step gated out: it adds nothing.
        wave[start + 2] = cplx{1e-30, 1e-30};
      }
      ASSERT_TRUE(fm_discriminate_bitwise(wave, 0, chips, spc))
          << "chip " << chip << " second " << second;
      if (second == 1) {
        rvec out(chips);
        best_table().fm_discriminate(wave.data(), chips, spc, out.data());
        EXPECT_FALSE(std::signbit(out[chip])) << "chip " << chip;
        EXPECT_EQ(out[chip], 0.0) << "chip " << chip;
      }
    }
  }
}

/// The scale search's per-candidate loop: qam_level's rule as written
/// before the stepped grid, "plus 2 if s - level > 1" included, then each
/// candidate's sum in point order from 0.0.
double per_candidate_level(double value, double alpha) {
  const double scaled = value / alpha;
  double level = 2.0 * std::floor(scaled / 2.0) + 1.0;
  if (scaled - level > 1.0) level += 2.0;
  level = level > -7.0 ? level : -7.0;
  return level < 7.0 ? level : 7.0;
}

std::vector<double> per_candidate_costs(const cvec& points,
                                        const std::vector<double>& alphas) {
  std::vector<double> costs;
  for (const double alpha : alphas) {
    double cost = 0.0;
    for (const cplx& p : points) {
      const double dr = p.real() - alpha * per_candidate_level(p.real(), alpha);
      const double di = p.imag() - alpha * per_candidate_level(p.imag(), alpha);
      cost += (dr * dr) + (di * di);
    }
    costs.push_back(cost);
  }
  return costs;
}

/// qam_cost at both levels must equal the per-candidate loop byte for byte.
void expect_costs_match(const cvec& points, const std::vector<double>& alphas,
                        const std::string& what) {
  const std::vector<double> want = per_candidate_costs(points, alphas);
  for (const KernelTable* kt : {&scalar_table(), &best_table()}) {
    std::vector<double> got(alphas.size() + 1, 7.0);
    kt->qam_cost(points.data(), points.size(), alphas.data(), alphas.size(),
                 got.data());
    EXPECT_EQ(got.back(), 7.0) << what << ": wrote past m";
    for (std::size_t c = 0; c < alphas.size(); ++c) {
      ASSERT_EQ(std::memcmp(&got[c], &want[c], sizeof(double)), 0)
          << what << ": candidate " << c << " alpha " << alphas[c] << " got "
          << got[c] << " want " << want[c]
          << (kt == &scalar_table() ? " (scalar)" : " (best)");
    }
  }
}

/// An ascending grid of m candidates over [lo, hi], built like the scale
/// search's.
std::vector<double> grid(double lo, double hi, std::size_t m) {
  std::vector<double> alphas(m, lo);
  for (std::size_t i = 1; i < m; ++i) {
    alphas[i] = lo + (hi - lo) * static_cast<double>(i) /
                         static_cast<double>(m - 1);
  }
  return alphas;
}

TEST(KernelsEquivalence, QamCostBitwise) {
  Rng rng = Rng::for_stream(1, 24);
  // Power-of-two alphas make value / alpha exact, so points at alpha * 2k
  // sit exactly on the level boundaries (the nearest-level rule rounds an
  // even quotient up), +-1 ulp around them, on the +-6 / +-8 edges of the
  // +-7 clamp, and far past it (1e300 / alpha overflows every int). The
  // candidates ascend, as the kernel requires.
  const std::vector<double> alphas = {1e-3, 0.05, 0.25, 0.5, 1.0,
                                      2.0,  3.7,  5.0990195135927845, 40.0};
  std::vector<double> specials = {0.0,    -0.0,    0x1p-1074, -0x1p-1074,
                                  1e-310, -1e-310, 1e-300,    -1e-300};
  for (const double alpha : {0.25, 0.5, 1.0, 2.0}) {
    for (int k = -5; k <= 5; ++k) {
      const double edge = alpha * 2.0 * k;
      specials.push_back(edge);
      specials.push_back(std::nextafter(edge, -1e300));
      specials.push_back(std::nextafter(edge, 1e300));
    }
    specials.push_back(7.0 * alpha);
    specials.push_back(-7.0 * alpha);
  }
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                              std::size_t{1239}}) {
    for (int variant = 0; variant < 3; ++variant) {
      cvec points = random_cvec(rng, n);
      for (auto& p : points) p *= 8.0;
      if (variant >= 1) {
        for (auto& p : points) {
          const double re = specials[rng.next_u64() % specials.size()];
          const double im = specials[rng.next_u64() % specials.size()];
          p = cplx{re, im};
        }
      }
      // A component of +-1e300 squares to Inf, so every cost is Inf.
      if (variant == 2 && n > 0) points[n / 2] = cplx{1e300, -1e300};
      for (std::size_t m = 1; m <= alphas.size(); ++m) {
        expect_costs_match(
            points, std::vector<double>(alphas.begin(), alphas.begin() + m),
            "n=" + std::to_string(n) + " m=" + std::to_string(m) +
                " variant=" + std::to_string(variant));
      }
    }
  }
}

TEST(KernelsEquivalence, QamCostStepsLandOnTheirCandidates) {
  // Every component sits on a level boundary of some candidate of a
  // 400-candidate grid (v = 2k * alpha_c) or one ulp to either side, so
  // each step of the stepped grid must fall on exactly the candidate the
  // per-candidate loop puts it on.
  Rng rng = Rng::for_stream(1, 29);
  const std::vector<double> alphas = grid(0.05, 31.5, 400);
  cvec points;
  for (std::size_t i = 0; i < 600; ++i) {
    double parts[2];
    for (double& part : parts) {
      const double alpha = alphas[rng.next_u64() % alphas.size()];
      const double k = static_cast<double>(rng.next_u64() % 3 + 1);
      const double edge = (rng.next_u64() % 2 == 0 ? 2.0 : -2.0) * k * alpha;
      switch (rng.next_u64() % 3) {
        case 0: part = edge; break;
        case 1: part = std::nextafter(edge, -1e300); break;
        default: part = std::nextafter(edge, 1e300); break;
      }
    }
    points.push_back(cplx{parts[0], parts[1]});
  }
  expect_costs_match(points, alphas, "boundary grid");
  // The same points over power-of-two alphas, where v / alpha is exact.
  std::vector<double> exact;
  for (int e = -6; e <= 5; ++e) exact.push_back(std::ldexp(1.0, e));
  expect_costs_match(points, exact, "power-of-two alphas");
}

TEST(KernelsEquivalence, QamCostSpecialComponentsAndGrids) {
  Rng rng = Rng::for_stream(1, 30);
  cvec points = random_cvec(rng, 300);
  for (auto& p : points) p *= 12.0;
  // Signed zeros have no step; a tiny negative component's quotient
  // underflows to -0 at a large alpha, which steps its level from -1 to +1.
  const double specials[] = {0.0,     -0.0,    -0x1p-1074, -0x1p-1060,
                             -1e-310, -1e-300, 0x1p-1074};
  for (std::size_t i = 0; i < points.size(); i += 3) {
    points[i] =
        cplx{specials[rng.next_u64() % 7], specials[rng.next_u64() % 7]};
  }
  expect_costs_match(points, grid(0.05, 40.0, 400), "specials, uniform");
  expect_costs_match(points, grid(1.0, 1e300, 64), "specials, huge alphas");
  // Repeated alphas, one value repeated, m = 2, m not a multiple of 4, and
  // a non-uniform ascending grid.
  std::vector<double> repeated = grid(0.5, 9.0, 37);
  repeated.insert(repeated.begin() + 10, 4, repeated[10]);
  expect_costs_match(points, repeated, "repeated alphas");
  expect_costs_match(points, std::vector<double>(9, 2.5), "one alpha x9");
  expect_costs_match(points, {0.7, 3.1}, "m=2");
  expect_costs_match(points, grid(0.05, 20.0, 7), "m=7");
  expect_costs_match(points, grid(0.05, 20.0, 401), "m=401");
  std::vector<double> uneven;
  for (double a = 0.01; a < 60.0; a *= 1.07) uneven.push_back(a);
  expect_costs_match(points, uneven, "geometric grid");
  // NaN and infinite components have no step over a finite grid, and one
  // makes every cost NaN or Inf: each runs beside a few ordinary points.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double bad : {nan, inf, -inf}) {
    for (const bool real_part : {true, false}) {
      cvec few(points.begin() + 1, points.begin() + 6);
      few[2] = real_part ? cplx{bad, 3.0} : cplx{-3.0, bad};
      expect_costs_match(few, grid(0.05, 40.0, 400), "non-finite component");
      expect_costs_match(few, {1.5}, "non-finite component, m=1");
    }
  }
}

/// The convolution the resampler replaced, at each kernel level: x
/// zero-stuffed by `up`, convolved in full with the odd-length taps, the
/// group delay trimmed and every down-th sample kept (m of them).
/// `fused` picks the AVX2 level's arithmetic, one fma chain per output over
/// ascending tap index of the taps inside the stuffed signal; otherwise the
/// scalar level's scatter loop, which adds fl(x * tap) unfused in ascending
/// stuffed-sample order. Stuffed zeros take part in both.
cvec full_convolution(const cvec& x, std::size_t up, std::size_t down,
                      const rvec& taps, std::size_t m, bool fused) {
  const std::size_t stuffed = x.size() * up;
  const std::size_t t = taps.size();
  const auto sample = [&](std::size_t i) {
    return i % up == 0 ? x[i / up] : cplx{0.0, 0.0};
  };
  cvec full(stuffed + t - 1, cplx{0.0, 0.0});
  if (fused) {
    for (std::size_t k = 0; k < full.size(); ++k) {
      double re = 0.0;
      double im = 0.0;
      for (std::size_t j = k >= stuffed ? k - (stuffed - 1) : 0;
           j <= std::min(k, t - 1); ++j) {
        re = std::fma(sample(k - j).real(), taps[j], re);
        im = std::fma(sample(k - j).imag(), taps[j], im);
      }
      full[k] = cplx{re, im};
    }
  } else {
    for (std::size_t i = 0; i < stuffed; ++i) {
      for (std::size_t j = 0; j < t; ++j) full[i + j] += sample(i) * taps[j];
    }
  }
  cvec out(m, cplx{0.0, 0.0});
  for (std::size_t o = 0; o < m && o * down + (t - 1) / 2 < full.size(); ++o) {
    out[o] = full[o * down + (t - 1) / 2];
  }
  return out;
}

/// Same bits, or NaN in both: x86 passes on one NaN operand's payload and
/// sign, and which one depends on the operand order the compiler picks.
bool same_sample(cplx a, cplx b) {
  const auto same = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof x) == 0 ||
           (std::isnan(x) && std::isnan(y));
  };
  return same(a.real(), b.real()) && same(a.imag(), b.imag());
}

/// The resample kernel at both levels against its level's full convolution.
void expect_resample_matches(const cvec& x, std::size_t up, std::size_t down,
                             const rvec& taps, const std::string& what) {
  const std::size_t m = up > 1 ? x.size() * up : (x.size() + down - 1) / down;
  const std::vector<std::pair<const KernelTable*, bool>> levels = {
      {&scalar_table(), false},
      {&best_table(), best_supported_level() == SimdLevel::avx2}};
  for (const auto& [kt, fused] : levels) {
    const cvec want = full_convolution(x, up, down, taps, m, fused);
    cvec got(m + 1, cplx{7.0, 7.0});
    kt->resample(x.data(), x.size(), up, down, taps.data(), taps.size(),
                 got.data(), m);
    EXPECT_EQ(got.back(), cplx(7.0, 7.0)) << what << ": wrote past m";
    for (std::size_t o = 0; o < m; ++o) {
      ASSERT_TRUE(same_sample(got[o], want[o]))
          << what << (fused ? " (fused)" : " (scalar)") << ": output " << o
          << " of " << m << " is (" << got[o].real() << ", " << got[o].imag()
          << "), want (" << want[o].real() << ", " << want[o].imag() << ")";
    }
  }
}

/// The resampler's lowpass at `factor`: dsp::design_lowpass(0.5 / factor,
/// 12 * factor + 1), rebuilt here so the kernel suite needs no FIR design.
rvec resampling_taps(std::size_t factor) {
  const std::size_t t = factor * 12 + 1;
  const double cutoff = 0.5 / static_cast<double>(factor);
  const double center = static_cast<double>(t - 1) / 2.0;
  rvec taps(t);
  double sum = 0.0;
  for (std::size_t i = 0; i < t; ++i) {
    const double u = static_cast<double>(i) - center;
    const double x = kTwoPi * cutoff * u;
    const double window =
        0.54 - 0.46 * std::cos(kTwoPi * static_cast<double>(i) /
                               static_cast<double>(t - 1));
    taps[i] = 2.0 * cutoff * (u == 0.0 ? 1.0 : std::sin(x) / x) * window;
    sum += taps[i];
  }
  for (double& tap : taps) tap /= sum;
  return taps;
}

TEST(KernelsEquivalence, ResampleTolerance) {
  Rng rng = Rng::for_stream(1, 13);
  for (std::size_t factor = 1; factor <= 6; ++factor) {
    const rvec taps = resampling_taps(factor);
    for (std::size_t n : kLengths) {
      const cvec x = random_cvec(rng, n);
      for (const bool upsampling : {true, false}) {
        const std::size_t up = upsampling ? factor : 1;
        const std::size_t down = upsampling ? 1 : factor;
        const std::size_t m =
            upsampling ? n * factor : (n + factor - 1) / factor;
        cvec a(m), b(m);
        scalar_table().resample(x.data(), n, up, down, taps.data(),
                                taps.size(), a.data(), m);
        best_table().resample(x.data(), n, up, down, taps.data(), taps.size(),
                              b.data(), m);
        expect_close(a, b, 1e-12, "resample", n, factor);
      }
    }
  }
}

TEST(KernelsEquivalence, ResampleMatchesTheFullConvolutionBitwise) {
  Rng rng = Rng::for_stream(1, 31);
  for (std::size_t factor = 1; factor <= 6; ++factor) {
    const rvec taps = resampling_taps(factor);
    const std::size_t half = (taps.size() - 1) / 2;
    const std::size_t per_phase = (taps.size() + factor - 1) / factor;
    // Empty, one sample, shorter than half the filter, and lengths around
    // the vector blocks: upsampling runs blocks of 8 inputs from input
    // per_phase - 1, decimation blocks of 16 outputs from the first whose
    // window lies inside the input.
    std::vector<std::size_t> lengths = {0,        1,        2,
                                        half / 2, half - 1, half,
                                        half + 1, taps.size(), 3 * taps.size()};
    for (const std::size_t extra : {7, 8, 9, 15, 16, 17, 23, 24, 25, 33}) {
      lengths.push_back(per_phase - 1 + extra);
      lengths.push_back(2 * half + factor * extra + 1);
    }
    for (const std::size_t n : lengths) {
      for (int variant = 0; variant < 3; ++variant) {
        cvec x = random_cvec(rng, n);
        if (variant == 1) {
          // A few NaN, infinite, signed-zero and subnormal samples.
          const double specials[] = {
              std::numeric_limits<double>::quiet_NaN(),
              std::numeric_limits<double>::infinity(),
              -std::numeric_limits<double>::infinity(),
              0.0, -0.0, 0x1p-1074, -0x1p-1074, 1e-310};
          for (std::size_t k = 0; k < 3 && n > 0; ++k) {
            x[rng.next_u64() % n] = cplx{specials[rng.next_u64() % 8],
                                         specials[rng.next_u64() % 8]};
          }
        }
        if (variant == 2) {
          // Nothing but signed zeros and subnormals: here a fused step's
          // tiny negative sum rounds to -0.
          const double tiny[] = {0.0, -0.0, 0x1p-1074, -0x1p-1074, 1e-310,
                                 -1e-310};
          for (auto& v : x) {
            v = cplx{tiny[rng.next_u64() % 6], tiny[rng.next_u64() % 6]};
          }
        }
        const std::string what = "factor " + std::to_string(factor) +
                                 " n " + std::to_string(n) + " variant " +
                                 std::to_string(variant);
        expect_resample_matches(x, factor, 1, taps, "up, " + what);
        expect_resample_matches(x, 1, factor, taps, "down, " + what);
      }
    }
  }
}

TEST(KernelsEquivalence, RotateToleranceWithBitwisePhase) {
  Rng rng = Rng::for_stream(1, 14);
  for (std::size_t n : kLengths) {
    const cvec x = random_cvec(rng, n);
    const double phase = rng.uniform(-3.0, 3.0);
    const double step = rng.uniform(-0.3, 0.3);
    cvec a(n), b(n);
    const double pa = scalar_table().rotate(x.data(), n, a.data(), phase, step);
    const double pb = best_table().rotate(x.data(), n, b.data(), phase, step);
    // Samples: tolerance. Final phase: bitwise (mixer state must not fork
    // between dispatch levels).
    expect_close(a, b, 1e-11, "rotate", n, 0);
    EXPECT_EQ(std::memcmp(&pa, &pb, sizeof(double)), 0)
        << "rotate final phase n=" << n;
  }
}

TEST(KernelsEquivalence, RotateInPlaceMatchesOutOfPlace) {
  Rng rng = Rng::for_stream(1, 15);
  const cvec x = random_cvec(rng, 127);
  cvec out(127);
  cvec inplace = x;
  const double p1 = best_table().rotate(x.data(), x.size(), out.data(), 0.5,
                                        0.01);
  const double p2 = best_table().rotate(inplace.data(), inplace.size(),
                                        inplace.data(), 0.5, 0.01);
  EXPECT_EQ(p1, p2);
  expect_bitwise(out, inplace, "rotate in-place", x.size(), 0);
}

TEST(KernelsEquivalence, OqpskMfTolerance) {
  Rng rng = Rng::for_stream(1, 16);
  for (std::size_t num_chips : {std::size_t{1}, std::size_t{3}, std::size_t{8},
                                std::size_t{33}}) {
    for (std::size_t spc : {std::size_t{2}, std::size_t{4}}) {
      const std::size_t plen = 2 * spc;
      const cvec wave = random_cvec(rng, (num_chips + 1) * spc);
      const rvec pulse = random_rvec(rng, plen);
      double pulse_energy = 0.0;
      for (double p : pulse) pulse_energy += p * p;
      pulse_energy += 1.0;  // keep the divisor well away from zero
      rvec a(num_chips), b(num_chips);
      scalar_table().oqpsk_mf(wave.data(), num_chips, spc, pulse.data(), plen,
                              pulse_energy, a.data());
      best_table().oqpsk_mf(wave.data(), num_chips, spc, pulse.data(), plen,
                            pulse_energy, b.data());
      for (std::size_t i = 0; i < num_chips; ++i) {
        EXPECT_NEAR(a[i], b[i], 1e-12)
            << "oqpsk_mf chip " << i << " num_chips=" << num_chips
            << " spc=" << spc;
      }
    }
  }
}

TEST(KernelsEquivalence, PackHardChipsBitwise) {
  Rng rng = Rng::for_stream(1, 17);
  for (std::size_t m : {std::size_t{1}, std::size_t{3}, std::size_t{7},
                        std::size_t{8}, std::size_t{9}, std::size_t{20}}) {
    std::vector<std::uint8_t> chips(32 * m);
    for (auto& c : chips) c = static_cast<std::uint8_t>(rng.uniform_index(2));
    std::vector<std::uint32_t> a(m, 0xdeadbeefu), b(m, 0xfeedfaceu);
    scalar_table().pack_hard_chips(chips.data(), m, a.data());
    best_table().pack_hard_chips(chips.data(), m, b.data());
    EXPECT_EQ(a, b) << "pack_hard_chips m=" << m;
  }
}

TEST(KernelsEquivalence, PackSignChipsBitwise) {
  Rng rng = Rng::for_stream(1, 18);
  for (std::size_t m : {std::size_t{1}, std::size_t{3}, std::size_t{7},
                        std::size_t{8}, std::size_t{9}, std::size_t{20}}) {
    rvec freq = random_rvec(rng, 32 * m);
    freq[0] = 0.0;  // the > 0 boundary itself
    std::vector<std::uint32_t> a(m), b(m);
    scalar_table().pack_sign_chips(freq.data(), m, a.data());
    best_table().pack_sign_chips(freq.data(), m, b.data());
    EXPECT_EQ(a, b) << "pack_sign_chips m=" << m;
  }
}

TEST(KernelsEquivalence, DespreadWordsBitwise) {
  Rng rng = Rng::for_stream(1, 19);
  std::vector<std::uint32_t> rows(16);
  for (auto& r : rows) {
    r = static_cast<std::uint32_t>(rng.uniform_index(0x100000000ull));
  }
  // Duplicate a row so the lowest-index tie-break is actually exercised.
  rows[9] = rows[2];
  for (std::size_t m : {std::size_t{1}, std::size_t{5}, std::size_t{8},
                        std::size_t{13}, std::size_t{16}, std::size_t{40}}) {
    std::vector<std::uint32_t> received(m);
    for (auto& r : received) {
      r = static_cast<std::uint32_t>(rng.uniform_index(0x100000000ull));
    }
    received[0] = rows[2];  // exact match -> must pick symbol 2, never 9
    for (std::uint32_t mask : {~std::uint32_t{0}, ~std::uint32_t{1}}) {
      std::vector<std::uint8_t> sym_a(m), sym_b(m), dist_a(m), dist_b(m);
      scalar_table().despread_words(received.data(), m, rows.data(), mask,
                                    sym_a.data(), dist_a.data());
      best_table().despread_words(received.data(), m, rows.data(), mask,
                                  sym_b.data(), dist_b.data());
      EXPECT_EQ(sym_a, sym_b) << "despread symbols m=" << m;
      EXPECT_EQ(dist_a, dist_b) << "despread distances m=" << m;
      EXPECT_EQ(sym_a[0], 2u) << "tie-break must pick the lowest row";
    }
  }
}

TEST(KernelsEquivalence, Match16MatchesDespreadWords) {
  Rng rng = Rng::for_stream(1, 20);
  std::vector<std::uint32_t> rows(16);
  for (auto& r : rows) {
    r = static_cast<std::uint32_t>(rng.uniform_index(0x100000000ull));
  }
  for (int trial = 0; trial < 64; ++trial) {
    const auto word =
        static_cast<std::uint32_t>(rng.uniform_index(0x100000000ull));
    const std::uint32_t mask = trial % 2 == 0 ? ~std::uint32_t{0}
                                              : ~std::uint32_t{1};
    std::uint8_t sym_s = 0, dist_s = 0, sym_b = 0, dist_b = 0;
    scalar_table().match16(word, rows.data(), mask, &sym_s, &dist_s);
    best_table().match16(word, rows.data(), mask, &sym_b, &dist_b);
    EXPECT_EQ(sym_s, sym_b);
    EXPECT_EQ(dist_s, dist_b);
    std::uint8_t sym_w = 0, dist_w = 0;
    best_table().despread_words(&word, 1, rows.data(), mask, &sym_w, &dist_w);
    EXPECT_EQ(sym_s, sym_w);
    EXPECT_EQ(dist_s, dist_w);
  }
}

}  // namespace
}  // namespace ctc::dsp::kernels
