// Portable kernel table: thin bindings over scalar_impl.h.
//
// Compiled with -ffp-contract=off (see src/dsp/CMakeLists.txt) so the
// multiply-add structure written in scalar_impl.h is what actually runs —
// the bitwise scalar/AVX2 contracts depend on it.
#include "dsp/kernels/kernels_internal.h"
#include "dsp/kernels/scalar_impl.h"

namespace ctc::dsp::kernels::detail {

const KernelTable& scalar_table() {
  static constexpr KernelTable table = {
      .resample = scalar_impl::resample,
      .rotate = scalar_impl::rotate,
      .rscale = scalar_impl::rscale,
      .apply_window = scalar_impl::apply_window,
      .accumulate_mag2 = scalar_impl::accumulate_mag2,
      .two_tap = scalar_impl::two_tap,
      .cdiv = scalar_impl::cdiv,
      .energy = scalar_impl::energy,
      .dot_conj = scalar_impl::dot_conj,
      .cumulant_acc = scalar_impl::cumulant_acc,
      .chip_strip = scalar_impl::chip_strip,
      .add_gauss = scalar_impl::add_gauss,
      .fm_discriminate = scalar_impl::fm_discriminate,
      .qam_cost = scalar_impl::qam_cost,
      .oqpsk_mf = scalar_impl::oqpsk_mf,
      .pack_hard_chips = scalar_impl::pack_hard_chips,
      .pack_sign_chips = scalar_impl::pack_sign_chips,
      .despread_words = scalar_impl::despread_words,
      .match16 = scalar_impl::match16,
  };
  return table;
}

void chip_filter_scalar(const cplx* x, std::size_t t0, std::size_t t1,
                        std::size_t spc, const double* pulse, double* zr,
                        double* zi) {
  scalar_impl::chip_filter(x, t0, t1, spc, pulse, zr, zi);
}

void chip_edge_scalar(const cplx* x, std::size_t s0, std::size_t s1,
                      std::size_t spc, const double* pulse, double* er,
                      double* ei) {
  scalar_impl::chip_edge(x, s0, s1, spc, pulse, er, ei);
}

}  // namespace ctc::dsp::kernels::detail

namespace ctc::dsp::kernels {

double gauss_log(double x) { return scalar_impl::gauss_log(x); }

void gauss_sincos_2pi(double u, double* sin_out, double* cos_out) {
  scalar_impl::gauss_sincos_2pi(u, sin_out, cos_out);
}

double fm_atan2(double y, double x) { return scalar_impl::fm_atan2(y, x); }

double qam_level(double value, double alpha) {
  return scalar_impl::qam_level(value, alpha);
}

}  // namespace ctc::dsp::kernels
