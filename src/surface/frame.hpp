#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "surface/lattice.hpp"
#include "surface/packed.hpp"

namespace btwc {

/**
 * Error state and noisy syndrome extraction for one error type.
 *
 * Tracks which data qubits currently carry an error of the configured
 * type (X or Z) and produces per-round syndrome measurements of the
 * detecting check type, optionally with measurement flips. This is the
 * "Pauli frame" of one half of the independently-decoded lattice.
 *
 * The frame holds the bit-packed error (`error_packed()`) and keeps
 * two things derived from it current: the noiseless syndrome of the
 * detector type (`syndrome()`) and the error's parity over the dual
 * logical support (`logical_flipped()`). Every mutator goes through
 * one private `toggle`, which flips the error bit, the qubit's 1-2
 * owning checks and, on the logical support, the parity bit. Reading
 * the syndrome therefore costs a word copy however heavy the error
 * has grown, and `weight()` is a popcount. `audit()` re-derives both
 * from the error.
 */
class ErrorFrame
{
  public:
    /** Create an all-clear frame for errors of `error_type`. */
    ErrorFrame(const RotatedSurfaceCode &code, CheckType error_type);

    /** The tracked error type. */
    CheckType error_type() const { return error_type_; }

    /** The check type whose measurements detect the tracked errors. */
    CheckType detector() const { return detector_; }

    /** Clear all errors. */
    void reset();

    /** Toggle the error on one data qubit (`data < num_data()`). */
    void flip(int data);

    /**
     * Inject i.i.d. errors: each data qubit flips with probability p.
     * Uses geometric gap skipping, so cost is O(d^2 p + 1).
     */
    void inject(double p, Rng &rng);

    /** Apply a correction: toggle every listed data qubit. */
    void apply(const std::vector<int> &corrections);

    /**
     * Apply a correction mask (one byte per data qubit). Throws
     * CheckFailure unless the mask has exactly num_data() entries.
     */
    void apply_mask(const std::vector<uint8_t> &mask);

    /**
     * Apply a packed correction mask (one bit per data qubit). Throws
     * CheckFailure unless the mask is num_data() bits wide.
     */
    void apply_packed(const PackedBits &mask);

    /**
     * One noisy measurement round: `out[c]` is the parity of the
     * current error over check c's support, flipped with probability
     * p_meas. `out` is resized to the check count.
     */
    void measure(double p_meas, Rng &rng, std::vector<uint8_t> &out) const;

    /**
     * Packed equivalent of `measure`: bit-exact with the byte form
     * (same syndrome, same RNG consumption). The noiseless part is a
     * word copy of the maintained syndrome, so the cost is the check
     * width plus the measurement flips, independent of the error
     * weight; allocation-free once `out` has the check width (the
     * per-`BtwcSystem::Half` scratch idiom).
     */
    void measure_packed(double p_meas, Rng &rng, PackedSyndrome &out) const;

    /** Noiseless measurement round. */
    void measure_perfect(std::vector<uint8_t> &out) const;

    /** The noiseless syndrome of the current error, one bit per check. */
    const PackedSyndrome &syndrome() const { return syndrome_; }

    /** True when the noiseless syndrome is all zero. */
    bool syndrome_clear() const { return syndrome_.none(); }

    /** Number of data qubits currently in error. */
    int weight() const;

    /**
     * True when the current error pattern anticommutes with the dual
     * logical operator. Meaningful as a *failure* indicator only when
     * the syndrome is clear.
     */
    bool logical_flipped() const { return logical_parity_; }

    /** Bit-packed per-qubit error indicators. */
    const PackedBits &error_packed() const { return packed_; }

    /**
     * Re-derive the syndrome and the logical parity from the error
     * (an incidence walk over its set bits, a walk over the dual
     * logical support) and compare them with the maintained state;
     * also checks the packed tail invariants. Costs O(error weight +
     * d); callers run it at AuditLevel::Deep. Throws CheckFailure.
     */
    void audit() const;

    /** The underlying code. */
    const RotatedSurfaceCode &code() const { return code_; }

  private:
    /** Flip one qubit's error bit and everything derived from it. */
    void toggle(int data);

    const RotatedSurfaceCode &code_;
    CheckType error_type_;
    CheckType detector_;
    PackedBits packed_;
    PackedSyndrome syndrome_;  ///< noiseless syndrome of packed_
    PackedBits logical_mask_;  ///< dual logical support, built once
    bool logical_parity_ = false;  ///< parity of packed_ & logical_mask_
};

} // namespace btwc
