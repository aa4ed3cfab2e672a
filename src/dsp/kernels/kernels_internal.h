// Private wiring between the dispatcher (kernels.cpp) and the per-level
// implementation TUs. Not installed; include only from src/dsp/kernels/.
#pragma once

#include "dsp/kernels/kernels.h"

namespace ctc::dsp::kernels::detail {

/// Portable reference table (kernels_scalar.cpp).
const KernelTable& scalar_table();

/// chip_strip's two filter passes (scalar_impl::chip_filter, chip_edge)
/// compiled in the scalar TU, for the AVX2 form's tails: like the
/// elementwise tails, they stay out of the AVX2 TU so no flag set can fuse
/// their multiply-adds.
void chip_filter_scalar(const cplx* x, std::size_t t0, std::size_t t1,
                        std::size_t spc, const double* pulse, double* zr,
                        double* zi);
void chip_edge_scalar(const cplx* x, std::size_t s0, std::size_t s1,
                      std::size_t spc, const double* pulse, double* er,
                      double* ei);

/// AVX2+FMA table (kernels_avx2.cpp). On non-x86-64 builds this TU is
/// compiled without intrinsics and returns false from avx2_compiled().
const KernelTable& avx2_table();
bool avx2_compiled();

}  // namespace ctc::dsp::kernels::detail
