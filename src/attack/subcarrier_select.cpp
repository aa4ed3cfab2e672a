#include "attack/subcarrier_select.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "dsp/fft.h"
#include "dsp/require.h"
#include "wifi/ofdm.h"

namespace ctc::attack {

SubcarrierSelector::SubcarrierSelector(SelectionConfig config) : config_(config) {
  CTC_REQUIRE(config_.num_kept >= 1 && config_.num_kept <= wifi::kNumSubcarriers);
}

std::vector<rvec> SubcarrierSelector::window_magnitudes(
    std::span<const cplx> waveform20mhz) const {
  static const dsp::FftPlan plan(wifi::kNumSubcarriers);
  std::vector<rvec> magnitudes;
  const std::size_t slot = wifi::kSymbolLength;  // 80 samples
  for (std::size_t start = 0; start + slot <= waveform20mhz.size(); start += slot) {
    const auto window =
        waveform20mhz.subspan(start + wifi::kCyclicPrefixLength, wifi::kNumSubcarriers);
    const cvec spectrum = plan.forward(window);
    rvec magnitude(spectrum.size());
    for (std::size_t k = 0; k < spectrum.size(); ++k) magnitude[k] = std::abs(spectrum[k]);
    magnitudes.push_back(std::move(magnitude));
  }
  return magnitudes;
}

namespace {

/// Coarse estimation of one window: votes for every bin above `threshold`,
/// and the window's magnitudes added to the per-bin totals.
void tally(const double* window, std::size_t n, double threshold,
           std::vector<std::size_t>& votes, rvec& totals) {
  for (std::size_t k = 0; k < n; ++k) {
    if (window[k] > threshold) ++votes[k];
    totals[k] += window[k];
  }
}

/// Detailed estimation: the num_kept most-voted indexes (ties broken toward
/// larger total magnitude so the choice is deterministic and sensible),
/// ascending.
std::vector<std::size_t> most_voted(const std::vector<std::size_t>& votes,
                                    const rvec& totals, std::size_t num_kept) {
  std::vector<std::size_t> order(votes.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (votes[a] != votes[b]) return votes[a] > votes[b];
    return totals[a] > totals[b];
  });
  std::vector<std::size_t> bins(order.begin(), order.begin() + num_kept);
  std::sort(bins.begin(), bins.end());
  return bins;
}

}  // namespace

SelectionResult SubcarrierSelector::select(std::span<const rvec> magnitudes) const {
  CTC_REQUIRE_MSG(!magnitudes.empty(), "need at least one analysis window");
  const std::size_t n = magnitudes.front().size();
  SelectionResult result;
  result.votes.assign(n, 0);
  result.magnitudes.assign(magnitudes.begin(), magnitudes.end());
  rvec totals(n, 0.0);
  for (const rvec& window : magnitudes) {
    CTC_REQUIRE(window.size() == n);
    tally(window.data(), n, config_.coarse_threshold, result.votes, totals);
  }
  result.bins = most_voted(result.votes, totals, config_.num_kept);
  return result;
}

SelectionResult SubcarrierSelector::select_from_spectra(
    std::span<const cplx> spectra, std::span<const std::size_t> windows) const {
  CTC_REQUIRE_MSG(!windows.empty(), "need at least one analysis window");
  const std::size_t n = wifi::kNumSubcarriers;
  CTC_REQUIRE(spectra.size() % n == 0);
  rvec magnitudes(spectra.size());
  for (std::size_t i = 0; i < spectra.size(); ++i) {
    magnitudes[i] = std::abs(spectra[i]);
  }
  SelectionResult result;
  result.votes.assign(n, 0);
  rvec totals(n, 0.0);
  for (const std::size_t window : windows) {
    CTC_REQUIRE(window < spectra.size() / n);
    tally(magnitudes.data() + window * n, n, config_.coarse_threshold,
          result.votes, totals);
  }
  result.bins = most_voted(result.votes, totals, config_.num_kept);
  return result;
}

SelectionResult SubcarrierSelector::select_from_waveform(
    std::span<const cplx> waveform20mhz) const {
  const auto magnitudes = window_magnitudes(waveform20mhz);
  return select(magnitudes);
}

std::vector<std::size_t> SubcarrierSelector::paper_default_bins() {
  return {0, 1, 2, 3, 61, 62, 63};
}

}  // namespace ctc::attack
