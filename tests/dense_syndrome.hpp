#pragma once

/**
 * @file
 * Test-only dense references for a frame's derived state: the
 * syndrome as a per-check parity sweep over each support, and the
 * logical indicator as a parity over the dual logical support. They
 * read only the check supports and the logical supports, never the
 * incidence lists `ErrorFrame` updates from, which is what makes them
 * useful oracles for its maintained state.
 */

#include <cstdint>
#include <vector>

#include "surface/lattice.hpp"

namespace btwc {

/**
 * Noiseless syndrome: for every check of type `detector`, the parity
 * of `error` (one byte per data qubit, nonzero = flipped) over the
 * check support. `out` is resized to the check count.
 */
inline void
dense_syndrome(const RotatedSurfaceCode &code, CheckType detector,
               const std::vector<uint8_t> &error, std::vector<uint8_t> &out)
{
    const std::vector<Check> &checks = code.checks(detector);
    out.assign(checks.size(), 0);
    for (const Check &check : checks) {
        uint8_t parity = 0;
        for (const int data : check.data) {
            parity ^= (error[data] & 1);
        }
        out[check.id] = parity;
    }
}

/**
 * True when `error` (of `error_type`) anticommutes with the opposite
 * type's logical operator: odd overlap with that logical support.
 */
inline bool
dense_logical_flipped(const RotatedSurfaceCode &code, CheckType error_type,
                      const std::vector<uint8_t> &error)
{
    uint8_t parity = 0;
    for (const int data :
         code.logical_support(detector_of_error(error_type))) {
        parity ^= (error[data] & 1);
    }
    return parity != 0;
}

} // namespace btwc
