#include "zigbee/shr_sync.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "dsp/kernels/kernels.h"
#include "dsp/pulse.h"
#include "dsp/require.h"
#include "zigbee/chip_sequences.h"
#include "zigbee/transmitter.h"

namespace ctc::zigbee {

ShrSync::ShrSync(std::size_t samples_per_chip)
    : reference_(Transmitter({.samples_per_chip = samples_per_chip,
                              .normalize_power = true})
                     .shr_reference()),
      spc_(samples_per_chip) {
  const dsp::kernels::KernelTable& kt = dsp::kernels::active();
  const std::size_t window = reference_.size();
  reference_energy_ = kt.energy(reference_.data(), window);

  // Preamble-structure screen setup. The SHR is eight identical preamble
  // symbols followed by the SFD: with the O-QPSK half-sine pulse confined to
  // two chip periods, every preamble symbol after the first reproduces the
  // same sample block exactly (the first differs only in its leading chip,
  // which has no predecessor), and that block is one period of the periodic
  // waveform of symbol 0's chips, which is what the chip_strip kernel
  // correlates against. Both facts hold at every samples_per_chip; verify
  // them rather than assume them, since the screen's bound rests on them.
  seg_len_ = kChipsPerSymbol * spc_;
  preamble_len_ = 2 * kPreambleBytes * seg_len_;
  CTC_REQUIRE_MSG(window > preamble_len_ && preamble_len_ == 8 * seg_len_,
                  "SHR reference is not eight preamble symbols plus the SFD");
  for (std::size_t k = 2; k < 8; ++k) {
    CTC_REQUIRE_MSG(std::memcmp(reference_.data() + seg_len_,
                                reference_.data() + k * seg_len_,
                                seg_len_ * sizeof(cplx)) == 0,
                    "SHR preamble symbols do not repeat");
  }
  // Rebuild the repeated segment from (pulse, chip signs) and compare value
  // for value; == rather than memcmp, so the signed zeros of the
  // pulse[0] = 0 tap do not matter. Sample m of the segment carries chip
  // m / spc at tap m % spc and the chip before it (chip 31 for the first)
  // at tap m % spc + spc, each on I for an even chip and on Q for an odd.
  pulse_ = dsp::half_sine_pulse(spc_);
  preamble_chips_ = packed_chip_table()[0];
  const auto amplitude = [&](std::size_t chip) {
    return ((preamble_chips_ >> chip) & 1U) != 0 ? 1.0 : -1.0;
  };
  for (std::size_t m = 0; m < seg_len_; ++m) {
    const std::size_t chip = m / spc_;
    const std::size_t tap = m % spc_;
    const double lead = amplitude(chip) * pulse_[tap];
    const double trail =
        amplitude((chip + kChipsPerSymbol - 1) % kChipsPerSymbol) *
        pulse_[tap + spc_];
    const cplx rebuilt = chip % 2 == 0 ? cplx{lead, trail} : cplx{trail, lead};
    const cplx stored = reference_[seg_len_ + m];
    CTC_REQUIRE_MSG(rebuilt.real() == stored.real() &&
                        rebuilt.imag() == stored.imag(),
                    "SHR preamble segment does not rebuild from its chips");
  }
  seg0_energy_ = kt.energy(reference_.data(), seg_len_);
  tail_energy_ =
      kt.energy(reference_.data() + preamble_len_, window - preamble_len_);
}

ShrMatch ShrSync::search(const cplx* samples, const double* norms,
                         std::size_t limit, std::size_t search_end,
                         std::size_t guard) {
  CTC_REQUIRE(limit > 0 && limit <= search_end + 1);
  const dsp::kernels::KernelTable& kt = dsp::kernels::active();
  const std::size_t window = reference_.size();
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  // Sliding window energy via prefix sums, added left to right from offset
  // 0: float prefix differences depend on the anchor, so the stream's
  // scanner keeps its rounds' bytes only by anchoring at each round start.
  energy_prefix_.resize(search_end + window + 1);
  energy_prefix_[0] = 0.0;
  for (std::size_t i = 0; i < search_end + window; ++i) {
    energy_prefix_[i + 1] = energy_prefix_[i] + norms[i];
  }
  const auto window_energy = [&](std::size_t offset) {
    return energy_prefix_[offset + window] - energy_prefix_[offset];
  };
  ShrMatch match;
  const auto metric_at = [&](std::size_t offset) {
    ++match.exact;
    const cplx correlation =
        kt.dot_conj(samples + offset, reference_.data(), window);
    return std::norm(correlation) /
           (window_energy(offset) * reference_energy_);
  };

  // Preamble-structure screen. One chip_strip pass correlates the stream
  // against the repeated preamble segment at every offset the search can
  // touch (including each offset's seven segment-aligned echoes). For a
  // candidate offset o, the full-window correlation splits exactly (in real
  // arithmetic) into the head segment, seven repeated segments, and the
  // SFD/tail remainder:
  //
  //   |dot(o)| <= sqrt(7 * sum_k |c(o + k*seg)|^2)        (triangle + C-S
  //             + sqrt(E_sig(o, seg)        * E_seg0)      over segments,
  //             + sqrt(E_sig(o+8seg, tail)  * E_tail)      C-S on the rest)
  //
  // The strip sums the same reference values as dot_conj, grouped by chips
  // instead of by samples, so the two differ only by rounding: O(window *
  // eps) ~ 1e-13 of sum |x||r|, like the exact kernel's own summation
  // error. The 1e-6 slack swamps both, so a bound below a value proves the
  // exact metric is below it too. Offsets under the energy gate get a -inf
  // bound; a NaN bound (NaN or Inf samples in the window) is never a
  // reason to skip, so such offsets run the exact metric.
  const std::size_t strip = search_end + 6 * seg_len_ + 1;
  corr_strip_.resize(strip);
  strip_work_.resize(dsp::kernels::chip_strip_work(strip, spc_));
  kt.chip_strip(samples + seg_len_, strip, spc_, pulse_.data(),
                preamble_chips_, strip_work_.data(), corr_strip_.data());
  bounds_.resize(search_end + 1);
  for (std::size_t offset = 0; offset <= search_end; ++offset) {
    const double we = window_energy(offset);
    if (we <= kEnergyGate) {
      bounds_[offset] = -std::numeric_limits<double>::infinity();
      continue;
    }
    double seg_power = 0.0;
    for (std::size_t k = 0; k < 7; ++k) {
      seg_power += std::norm(corr_strip_[offset + k * seg_len_]);
    }
    const double head =
        energy_prefix_[offset + seg_len_] - energy_prefix_[offset];
    const double tail = energy_prefix_[offset + window] -
                        energy_prefix_[offset + preamble_len_];
    const double bound = std::sqrt(7.0 * seg_power) +
                         std::sqrt(head * seg0_energy_) +
                         std::sqrt(tail * tail_energy_);
    bounds_[offset] = bound * bound * (1.0 + 1e-6) / (we * reference_energy_);
  }

  // Best-first argmax. The answer is the first offset with the largest
  // metric at or above the threshold. The exact metric runs first where the
  // bound is largest, which is almost always the true peak, and then an
  // index-order sweep runs it only where the bound can still beat the
  // incumbent: left of it a tie wins on index, so bound >= best_metric;
  // right of it only bound > best_metric. An offset replaces the incumbent
  // on a greater metric, or on an equal one at a lower index, so the result
  // is the index-order first maximum whatever order the metrics ran in.
  std::size_t best = kNone;
  double best_metric = 0.0;
  const auto consider = [&](std::size_t offset) {
    const double metric = metric_at(offset);
    if (metric >= kThreshold &&
        (metric > best_metric ||
         (metric == best_metric && best != kNone && offset < best))) {
      best = offset;
      best_metric = metric;
    }
  };
  std::size_t first = kNone;
  double top = -std::numeric_limits<double>::infinity();
  for (std::size_t offset = 0; offset < limit; ++offset) {
    if (bounds_[offset] > top) {
      top = bounds_[offset];
      first = offset;
    }
  }
  if (first != kNone && top >= kThreshold) consider(first);
  for (std::size_t offset = 0; offset < limit; ++offset) {
    const double bound = bounds_[offset];
    if (offset == first || bound < kThreshold) continue;
    if (best != kNone &&
        (offset < best ? bound < best_metric : bound <= best_metric)) {
      continue;
    }
    consider(offset);
  }
  if (best == kNone) return match;

  // Hill-climb: whenever the argmax advances, the horizon extends another
  // `guard` offsets (never beyond search_end).
  std::size_t horizon = std::min(best + guard, search_end);
  for (std::size_t offset = best + 1; offset <= horizon; ++offset) {
    if (bounds_[offset] <= best_metric) {
      continue;  // bound can't beat the incumbent, so neither can the metric
    }
    if (const double metric = metric_at(offset); metric > best_metric) {
      best = offset;
      best_metric = metric;
      horizon = std::min(best + guard, search_end);
    }
  }
  match.offset = best;
  match.metric = best_metric;
  return match;
}

ShrMatch ShrSync::find(std::span<const cplx> capture, std::size_t max_offset) {
  const std::size_t window = reference_.size();
  if (capture.size() < window) return {};
  const std::size_t search_end = std::min(max_offset, capture.size() - window);
  const std::size_t read = search_end + window;
  norms_.resize(read);
  for (std::size_t i = 0; i < read; ++i) norms_[i] = std::norm(capture[i]);
  // A non-finite norm would make every later prefix energy NaN or Inf and
  // blind the search past it, so each finite stretch runs on its own.
  ShrMatch found;
  for (std::size_t start = 0; start + window <= read;) {
    std::size_t end = start;
    while (end < read && std::isfinite(norms_[end])) ++end;
    if (end - start >= window) {
      const std::size_t last = end - window - start;  // stretch's last offset
      const ShrMatch match = search(capture.data() + start,
                                    norms_.data() + start, last + 1, last, 0);
      found.exact += match.exact;
      if (match.offset && (!found.offset || match.metric > found.metric)) {
        found.offset = start + *match.offset;
        found.metric = match.metric;
      }
    }
    start = end + 1;
  }
  return found;
}

}  // namespace ctc::zigbee
