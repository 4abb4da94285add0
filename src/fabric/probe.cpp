#include "fabric/probe.hpp"

#include "common/check.hpp"

namespace btwc {

LogicalFailureProbe::LogicalFailureProbe(const RotatedSurfaceCode &code)
{
    const CheckType error_types[2] = {CheckType::X, CheckType::Z};
    decoders_.reserve(2);
    corrections_.reserve(2);
    for (const CheckType err : error_types) {
        decoders_.push_back(
            std::make_unique<MwpmDecoder>(code, detector_of_error(err)));
        corrections_.emplace_back(code, err);
    }
}

bool
LogicalFailureProbe::logical_parity(const ErrorFrame &frame)
{
    if (frame.syndrome_clear()) {
        return frame.logical_flipped();
    }
    const size_t type = static_cast<size_t>(frame.error_type());
    frame.measure_perfect(syndrome_);
    const Decoder::Result result = decoders_[type]->decode_syndrome(syndrome_);
    ErrorFrame &correction = corrections_[type];
    correction.reset();
    correction.apply_mask(result.correction);
    // The residual's syndrome is the XOR of the two, so it is clear
    // exactly when they are equal.
    BTWC_CHECK_MSG(correction.syndrome() == frame.syndrome(),
                   "an MWPM correction clears the probed syndrome "
                   "(every defect is matched)");
    return frame.logical_flipped() != correction.logical_flipped();
}

} // namespace btwc
