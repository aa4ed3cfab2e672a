// IQ capture file I/O.
//
// "cf32": raw interleaved little-endian float32 I/Q, the format GNU Radio
// file sinks/sources use (and what the paper's USRP captures would be
// stored as), so captures from this library interoperate with SDR tooling.
#pragma once

#include <filesystem>
#include <iosfwd>
#include <span>

#include "dsp/types.h"

namespace ctc::dsp {

/// Writes raw interleaved float32 I/Q. Throws ctc::ContractError on I/O
/// failure.
void write_cf32(const std::filesystem::path& path, std::span<const cplx> samples);

/// Writes raw interleaved float32 I/Q to an open binary stream, so a caller
/// can open its output before it has the samples. Throws
/// ctc::ContractError when the stream fails.
void write_cf32(std::ostream& out, std::span<const cplx> samples);

/// Reads a whole cf32 file. Throws on I/O failure or odd float counts.
cvec read_cf32(const std::filesystem::path& path);

}  // namespace ctc::dsp
