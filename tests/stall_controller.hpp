#pragma once

/**
 * @file
 * Test-only reference model of decode-overflow execution stalling
 * (§5.2 of the paper): the oracle `OffchipQueue` is pinned against at
 * latency 0, and `fleet_trace` cycle for cycle. It is the plain
 * Lindley recursion backlog' = max(0, backlog + fresh - B) with the
 * stall flag, nothing else, so a reader can check it by eye.
 */

#include <cstdint>

#include "core/offchip_queue.hpp"

namespace btwc {

/**
 * Decode-overflow execution stalling (§5.2 of the paper).
 *
 * Models the off-chip decode queue of a multi-logical-qubit machine
 * with a fixed provisioned bandwidth B (decodes per cycle). When the
 * pending demand of a cycle (fresh requests plus carryover from
 * previous overflows) exceeds B, the next cycle must be a stall cycle:
 * the waveform generator issues identity gates (Fig. 10), no program
 * progress is made, but qubits keep decohering, so fresh errors (and
 * fresh off-chip requests) still arrive during the stall.
 */
class StallController
{
  public:
    /** @param bandwidth provisioned off-chip decodes per cycle (>= 1) */
    explicit StallController(uint64_t bandwidth)
        : bandwidth_(bandwidth ? bandwidth : 1)
    {
    }

    /** Whether the *upcoming* cycle is a stall (no program progress). */
    bool stall_pending() const { return stall_next_; }

    /**
     * Advance one cycle.
     *
     * @param new_requests off-chip decode requests generated this cycle
     * @return true when the cycle made program progress (not a stall)
     */
    bool step(uint64_t new_requests)
    {
        const bool was_stall = stall_next_;
        ++total_cycles_;
        if (was_stall) {
            ++stall_cycles_;
        } else {
            ++work_cycles_;
        }
        const uint64_t demand = backlog_ + new_requests;
        const uint64_t served = demand < bandwidth_ ? demand : bandwidth_;
        backlog_ = demand - served;
        served_ += served;
        stall_next_ = backlog_ > 0;
        max_backlog_ = backlog_ > max_backlog_ ? backlog_ : max_backlog_;
        return !was_stall;
    }

    /** Provisioned bandwidth in decodes per cycle. */
    uint64_t bandwidth() const { return bandwidth_; }

    /** Cycles elapsed. */
    uint64_t total_cycles() const { return total_cycles_; }

    /** Cycles that made program progress. */
    uint64_t work_cycles() const { return work_cycles_; }

    /** Cycles spent stalled. */
    uint64_t stall_cycles() const { return stall_cycles_; }

    /** Requests still queued. */
    uint64_t backlog() const { return backlog_; }

    /** Largest backlog ever observed. */
    uint64_t max_backlog() const { return max_backlog_; }

    /** Total decodes shipped off-chip. */
    uint64_t served() const { return served_; }

    /**
     * Relative execution-time increase caused by stalling:
     * stall_cycles / work_cycles (the paper's Fig. 16 x-axis); +inf
     * for an all-stall run (see `stall_execution_time_increase`).
     */
    double execution_time_increase() const
    {
        return stall_execution_time_increase(stall_cycles_, work_cycles_);
    }

  private:
    uint64_t bandwidth_;
    uint64_t backlog_ = 0;
    uint64_t total_cycles_ = 0;
    uint64_t work_cycles_ = 0;
    uint64_t stall_cycles_ = 0;
    uint64_t max_backlog_ = 0;
    uint64_t served_ = 0;
    bool stall_next_ = false;
};

} // namespace btwc
