#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace btwc {

/**
 * Link scheduling disciplines of the decode fabric (src/fabric/).
 *
 * `Fifo` is the paper's baseline and every `SharedOffchipService`'s
 * default: it serves the arrival-ordered table head (EDF over
 * deadline-free lanes orders identically, pinned in
 * tests/test_fabric.cpp). The other disciplines re-order
 * *which* waiting requests enter service; they never change *how
 * many* do (work conservation), so the link's backlog/stall/served
 * accounting is discipline-invariant and only the per-request delay
 * (and therefore per-tenant fidelity) moves.
 */
enum class SchedulerKind : uint8_t
{
    Fifo = 0,          ///< strict arrival order across owners
    Priority = 1,      ///< tenant priority lanes with backlog-age aging
    Deadline = 2,      ///< earliest deadline first (EDF)
    WeightedFair = 3,  ///< weighted-fair queuing over tenant lanes
};

/** Canonical name of a discipline ("fifo" | "priority" | ...). */
const char *scheduler_kind_name(SchedulerKind kind);

/** Parse a discipline name (accepts "edf" and "wfq" aliases). */
bool parse_scheduler_kind(const std::string &value, SchedulerKind *out);

/**
 * Per-tenant scheduling parameters, registered on the link via
 * `SharedOffchipService::set_tenant_lane`. The decode fabric derives
 * them from the fleet's noise profile (fabric.hpp); unregistered
 * tenants run at the defaults below.
 */
struct TenantLane
{
    /** Higher = served earlier under `Priority`. */
    int priority = 0;
    /** Relative service share under `WeightedFair` (>= 1). */
    int weight = 1;
    /**
     * Deadline budget in cycles: a request enqueued at cycle t wants
     * its correction landed by t + deadline. Drives the `Deadline`
     * ordering and the per-tenant deadline-miss accounting of every
     * discipline. 0 = no deadline (never counted as missed).
     */
    uint64_t deadline = 0;
};

/**
 * Scheduling metadata of one waiting request — what a scheduler may
 * legitimately look at. Payloads, halves, and corrections stay inside
 * the service; a discipline that inspected decode content would break
 * the accounting-only contract that keeps audits metrics-invariant.
 */
struct SchedView
{
    int owner = 0;
    uint64_t seq = 0;            ///< link-wide arrival stamp
    uint64_t arrival_cycle = 0;  ///< link cycle of the enqueue
    uint64_t deadline_cycle = 0; ///< arrival + lane deadline; 0 = none
    int priority = 0;            ///< lane priority
    int weight = 1;              ///< lane weight
};

/** Lane extremes across a link's registered tenants (audit input). */
struct LaneExtremes
{
    int min_priority = 0;
    int max_priority = 0;
    int min_weight = 1;
    int max_weight = 1;
    uint64_t min_deadline = 0;
    uint64_t max_deadline = 0;
};

/**
 * Pluggable serve-selection discipline of a `SharedOffchipService`
 * link (the ROADMAP's "priority/deadline scheduling hooks").
 *
 * Contract: each service cycle the link computes how many requests
 * enter service (`min(bandwidth, backlog)` — the discipline has no
 * say in the count, only the order) and calls `pick` that many times.
 * `waiting` is always non-empty and ordered by arrival (ascending
 * seq); the chosen entry is removed before the next call. A pick must
 * be a pure function of the views, the cycle, and the scheduler's own
 * deterministic state — no randomness, no payload access — so that a
 * fabric run stays bit-reproducible for a fixed (cycles, threads,
 * seed) triple like every other harness.
 */
class FabricScheduler
{
  public:
    virtual ~FabricScheduler() = default;

    virtual SchedulerKind kind() const = 0;

    /** Canonical discipline name (scheduler_kind_name(kind())). */
    const char *name() const { return scheduler_kind_name(kind()); }

    /**
     * Index into `waiting` of the request entering service next at
     * link cycle `cycle`. Ties break toward the smallest sequence
     * number (arrival order), keeping every discipline deterministic.
     */
    virtual size_t pick(const std::vector<SchedView> &waiting,
                        uint64_t cycle) = 0;

    /**
     * Sound upper bound, in cycles, on how long any request may wait
     * before entering service on a link with `bandwidth` served
     * requests per cycle (>= 1), `owners` tenants (so the backlog is
     * bounded at 2 * owners by the one-request-per-(owner, half)
     * contract), and tenant lanes within `lanes`. The service audit
     * checks every waiting request against this bound ("no starvation
     * beyond the aging bound"); the bounds are deliberately loose —
     * sound, not tight — so they hold for adversarial arrival
     * patterns (tested with one tenant flooding a narrow link).
     */
    virtual uint64_t starvation_bound(int owners, uint64_t bandwidth,
                                      const LaneExtremes &lanes) const;
};

/**
 * Build a discipline instance. `aging_cycles` parameterizes the
 * `Priority` discipline's backlog-age aging: a waiting request gains
 * one effective priority level per `aging_cycles` cycles waited, so
 * no priority gap can starve a tenant for more than
 * aging_cycles * (gap + 1) cycles (audited). Must be >= 1; the other
 * disciplines ignore it.
 */
std::unique_ptr<FabricScheduler> make_scheduler(SchedulerKind kind,
                                                uint64_t aging_cycles);

} // namespace btwc
