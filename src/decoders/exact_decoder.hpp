#pragma once

#include "matching/mwpm.hpp"

namespace btwc {

/**
 * Brute-force exact matching decoder tier.
 *
 * Shares the oracle distances, path recovery and pooled scratch with
 * `MwpmDecoder` (batches take the base `Decoder::decode_batch` loop,
 * which reuses that scratch call after call) but solves the defect pairing with the subset DP of
 * matching/exact.hpp (exact by construction, O(2^k * k) in the defect
 * count k). It is the correctness oracle for the blossom-backed
 * production tier and an alternative final tier for cross-validation
 * runs; above ~18 defects it transparently falls back to blossom.
 */
class ExactDecoder : public MwpmDecoder
{
  public:
    /**
     * The rare > ~18-defect blossom fallback solves the same savings
     * graph as `MwpmDecoder`; it leaves out only pairs that save
     * nothing over two boundary retirements, and tests pin its weight
     * to a dense complete-graph solve.
     */
    ExactDecoder(const RotatedSurfaceCode &code, CheckType detector,
                 int space_weight = 1, int time_weight = 1)
        : MwpmDecoder(code, detector, space_weight, time_weight,
                      Matcher::ExactDp)
    {
    }

    const char *name() const override;
};

} // namespace btwc
