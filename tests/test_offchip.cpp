/**
 * @file
 * Tests for the asynchronous off-chip decode service: the
 * latency/bandwidth OffchipQueue (core/offchip_queue.hpp), its
 * equivalence with the stall-model oracle at zero latency, the
 * queued-correction semantics of BtwcSystem (zero-latency
 * bit-exactness against a synchronous reference loop that applies
 * every off-chip decode in its own cycle, corrections landing
 * mid-filter-window,
 * backlog growth under a narrow link), the batched decode path, and
 * `--threads` determinism of the new queue statistics.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "core/filter.hpp"
#include "core/offchip_queue.hpp"
#include "core/system.hpp"
#include "sim/engine.hpp"
#include "sim/fleet.hpp"
#include "sim/lifetime.hpp"
#include "stall_controller.hpp"
#include "surface/lattice.hpp"
#include "surface/noise.hpp"

namespace btwc {
namespace {

TEST(OffchipQueue, SynchronousConfigurationLandsSameCycle)
{
    // latency 0 + unlimited bandwidth: every request is served and
    // lands in the cycle it arrives -- the synchronous model.
    OffchipQueue queue;
    for (uint64_t n : {0u, 1u, 3u, 0u, 7u}) {
        const auto out = queue.step(n);
        EXPECT_EQ(out.served, n);
        EXPECT_EQ(out.landed, n);
        EXPECT_EQ(queue.backlog(), 0u);
        EXPECT_EQ(queue.in_flight(), 0u);
    }
    EXPECT_EQ(queue.stall_cycles(), 0u);
    EXPECT_EQ(queue.delay_histogram().max_value(), 0u);
    EXPECT_EQ(queue.delay_histogram().total(), 11u);
}

TEST(OffchipQueue, LatencyDelaysLandingExactly)
{
    OffchipQueue queue(OffchipQueueConfig{0, 3, 0});
    auto out = queue.step(2);  // cycle 0: served, lands cycle 3
    EXPECT_EQ(out.served, 2u);
    EXPECT_EQ(out.landed, 0u);
    EXPECT_EQ(queue.in_flight(), 2u);
    for (int cycle = 1; cycle < 3; ++cycle) {
        out = queue.step(0);
        EXPECT_EQ(out.landed, 0u) << "cycle " << cycle;
    }
    out = queue.step(0);  // cycle 3
    EXPECT_EQ(out.landed, 2u);
    EXPECT_EQ(queue.in_flight(), 0u);
    // Unlimited bandwidth: the only delay is the service latency.
    EXPECT_EQ(queue.delay_histogram().percentile(0.0), 3u);
    EXPECT_EQ(queue.delay_histogram().max_value(), 3u);
    // Latency alone never stalls: the link kept up with demand.
    EXPECT_EQ(queue.stall_cycles(), 0u);
}

TEST(OffchipQueue, ZeroLatencyMatchesStallControllerStepForStep)
{
    // The queue generalizes StallController: with latency 0 the stall
    // accounting, backlog, and served counts must agree every cycle.
    for (const uint64_t bandwidth : {1u, 2u, 5u}) {
        OffchipQueue queue(OffchipQueueConfig{bandwidth, 0, 0});
        StallController reference(bandwidth);
        Rng rng(99 + bandwidth);
        for (int cycle = 0; cycle < 2000; ++cycle) {
            const uint64_t demand = rng.next_below(2 * bandwidth + 2);
            queue.step(demand);
            reference.step(demand);
            ASSERT_EQ(queue.backlog(), reference.backlog());
            ASSERT_EQ(queue.stall_pending(), reference.stall_pending());
        }
        EXPECT_EQ(queue.work_cycles(), reference.work_cycles());
        EXPECT_EQ(queue.stall_cycles(), reference.stall_cycles());
        EXPECT_EQ(queue.served(), reference.served());
        EXPECT_EQ(queue.max_backlog(), reference.max_backlog());
        EXPECT_DOUBLE_EQ(queue.execution_time_increase(),
                         reference.execution_time_increase());
    }
}

TEST(OffchipQueue, BacklogGrowsWhenBandwidthBelowDemand)
{
    // bandwidth 1, demand 3/cycle: the backlog must grow ~2 per cycle
    // and the queueing delay keep climbing (the decode backlog
    // problem the synchronous model cannot express).
    OffchipQueue queue(OffchipQueueConfig{1, 2, 0});
    uint64_t last_delay = 0;
    for (int cycle = 0; cycle < 500; ++cycle) {
        queue.step(3);
        const uint64_t delay = queue.delay_histogram().max_value();
        EXPECT_GE(delay, last_delay);
        last_delay = delay;
    }
    EXPECT_GE(queue.backlog(), 2u * 500u - 3u);
    EXPECT_GT(queue.stall_cycles(), 490u);
    // FIFO service of an ever-growing queue: the latest served
    // request waited for nearly the whole run.
    EXPECT_GT(last_delay, 300u);
}

TEST(OffchipQueue, BatchHistogramRespectsCap)
{
    OffchipQueue queue(OffchipQueueConfig{0, 0, 4});
    queue.step(10);  // batches of 4, 4, 2
    queue.step(3);   // one batch of 3
    const CountHistogram &batches = queue.batch_histogram();
    EXPECT_EQ(batches.total(), 4u);
    EXPECT_EQ(batches.max_value(), 4u);
    ASSERT_GT(batches.counts().size(), 4u);
    EXPECT_EQ(batches.counts()[4], 2u);
    EXPECT_EQ(batches.counts()[3], 1u);
    EXPECT_EQ(batches.counts()[2], 1u);
}

TEST(StallModel, AllStallRunReadsAsInfiniteSlowdown)
{
    // The Fig. 16 ratio must saturate to +inf when stalls occurred
    // but no work cycle ever completed -- not read as "no slowdown".
    EXPECT_TRUE(std::isinf(stall_execution_time_increase(5, 0)));
    EXPECT_GT(stall_execution_time_increase(5, 0), 0.0);
    EXPECT_DOUBLE_EQ(stall_execution_time_increase(0, 0), 0.0);
    EXPECT_DOUBLE_EQ(stall_execution_time_increase(1, 4), 0.25);
}

/**
 * Synchronous reference pipeline: the same noise, measurement, filter
 * and tier walk as BtwcSystem, with every off-chip decode resolved in
 * the cycle that escalated it -- the chain's off-chip tiers run
 * in-step under the Mwpm policy, and the Oracle policy clears the
 * error state in-step. No link, no queue, no reconciliation: this is
 * the model a zero-latency unlimited-bandwidth link must reproduce.
 */
class SyncReference
{
  public:
    SyncReference(const RotatedSurfaceCode &code, NoiseParams noise,
                  const SystemConfig &config, uint64_t seed)
        : noise_(noise), rng_(seed)
    {
        options_.stop_before_offchip =
            config.offchip == OffchipPolicy::Oracle;
        for (const CheckType err : {CheckType::X, CheckType::Z}) {
            const CheckType detector = detector_of_error(err);
            frames_.emplace_back(code, err);
            chains_.emplace_back(code, detector, config.tiers);
            filters_.emplace_back(code.num_checks(detector),
                                  config.filter_rounds);
        }
    }

    CycleReport step()
    {
        CycleReport report;
        for (size_t t = 0; t < 2; ++t) {
            ErrorFrame &frame = frames_[t];
            frame.inject(noise_.p_data, rng_);
            frame.measure_packed(noise_.p_meas, rng_, raw_);
            report.raw_weight += raw_.popcount();
            chains_[t].decode_syndrome(filters_[t].push(raw_), options_,
                                       outcome_[t]);
            const int detector = static_cast<int>(frame.detector());
            report.type_verdict[detector] = classify_decode(outcome_[t]);
            report.tier_used[detector] = outcome_[t].tier;
            report.type_offchip[detector] = outcome_[t].offchip;
            if (report.type_verdict[detector] == CliqueVerdict::Complex) {
                report.verdict = CliqueVerdict::Complex;
            } else if (report.type_verdict[detector] ==
                           CliqueVerdict::Trivial &&
                       report.verdict == CliqueVerdict::AllZeros) {
                report.verdict = CliqueVerdict::Trivial;
            }
            report.offchip |= outcome_[t].offchip;
        }
        for (size_t t = 0; t < 2; ++t) {
            const TierChain::Result &outcome = outcome_[t];
            if (outcome.decode.defects == 0) {
                continue;
            }
            if (outcome.resolved) {
                frames_[t].apply_mask(outcome.decode.correction);
                if (outcome.tier_index == 0) {
                    report.clique_corrections +=
                        static_cast<int>(outcome.decode.weight);
                }
            } else if (outcome.offchip && options_.stop_before_offchip) {
                frames_[t].reset();  // the oracle's in-step resolution
            }
        }
        return report;
    }

    const ErrorFrame &frame(CheckType error_type) const
    {
        return frames_[static_cast<size_t>(error_type)];
    }

  private:
    NoiseParams noise_;
    Rng rng_;
    TierChain::Options options_;
    std::vector<ErrorFrame> frames_;  ///< indexed by error type
    std::vector<TierChain> chains_;
    std::vector<PackedMeasurementFilter> filters_;
    PackedSyndrome raw_;
    TierChain::Result outcome_[2];
};

/** Step the reference and the system; require identical reports and
 * error frames every cycle. */
void
expect_lockstep(SyncReference &a, BtwcSystem &b, int cycles)
{
    for (int i = 0; i < cycles; ++i) {
        const CycleReport ra = a.step();
        const CycleReport rb = b.step();
        ASSERT_EQ(ra.verdict, rb.verdict) << "cycle " << i;
        ASSERT_EQ(ra.offchip, rb.offchip) << "cycle " << i;
        ASSERT_EQ(ra.raw_weight, rb.raw_weight) << "cycle " << i;
        ASSERT_EQ(ra.clique_corrections, rb.clique_corrections)
            << "cycle " << i;
        for (int t = 0; t < 2; ++t) {
            ASSERT_EQ(ra.type_verdict[t], rb.type_verdict[t])
                << "cycle " << i;
            ASSERT_EQ(ra.tier_used[t], rb.tier_used[t]) << "cycle " << i;
            ASSERT_EQ(ra.type_offchip[t], rb.type_offchip[t])
                << "cycle " << i;
        }
        // Nothing is ever held back or left in flight at L=0.
        ASSERT_EQ(rb.suppressed, 0) << "cycle " << i;
        ASSERT_EQ(rb.landed, rb.queued) << "cycle " << i;
        for (const CheckType err : {CheckType::X, CheckType::Z}) {
            ASSERT_EQ(a.frame(err).error_packed(),
                      b.frame(err).error_packed())
                << "cycle " << i;
        }
    }
}

TEST(QueuedService, ZeroLatencyBitExactWithInlineOracle)
{
    const RotatedSurfaceCode code(7);
    const SystemConfig config;
    SyncReference a(code, NoiseParams::uniform(5e-3), config, 11);
    BtwcSystem b(code, NoiseParams::uniform(5e-3), config, 11);
    expect_lockstep(a, b, 3000);
}

TEST(QueuedService, ZeroLatencyBitExactWithInlineMwpm)
{
    const RotatedSurfaceCode code(5);
    SystemConfig config;
    config.offchip = OffchipPolicy::Mwpm;
    SyncReference a(code, NoiseParams::uniform(8e-3), config, 12);
    BtwcSystem b(code, NoiseParams::uniform(8e-3), config, 12);
    expect_lockstep(a, b, 3000);
}

TEST(QueuedService, ZeroLatencyBitExactDeepChain)
{
    // The deep Clique -> UF -> MWPM chain: on-chip mid-tiers keep
    // running in phase 1, only the off-chip remainder is queued.
    const RotatedSurfaceCode code(7);
    SystemConfig config;
    config.offchip = OffchipPolicy::Mwpm;
    config.tiers = TierChainConfig::deep();
    SyncReference a(code, NoiseParams::uniform(8e-3), config, 13);
    BtwcSystem b(code, NoiseParams::uniform(8e-3), config, 13);
    expect_lockstep(a, b, 2000);
}

TEST(QueuedService, RunLifetimeZeroLatencyReproducesSynchronousStats)
{
    // The acceptance criterion: --offchip-latency 0 reproduces the
    // synchronous reference bit-for-bit (same seed and shard plan),
    // for both policies.
    for (const OffchipPolicy policy :
         {OffchipPolicy::Oracle, OffchipPolicy::Mwpm}) {
        LifetimeConfig config;
        config.distance = 5;
        config.p = 5e-3;
        config.cycles = 5000;
        config.mode = LifetimeMode::Pipeline;
        config.offchip = policy;
        config.threads = 2;
        const LifetimeStats queued = run_lifetime(config);

        // The reference over the same shard plan run_lifetime uses.
        const RotatedSurfaceCode code(config.distance);
        SystemConfig sys_config;
        sys_config.offchip = policy;
        LifetimeStats sync;
        for (const Shard &shard :
             plan_shards(config.cycles, config.threads, config.seed)) {
            SyncReference reference(code, NoiseParams::uniform(config.p),
                                    sys_config, shard.seed);
            for (uint64_t cycle = 0; cycle < shard.cycles; ++cycle) {
                const CycleReport report = reference.step();
                sync.all_zero_cycles +=
                    report.verdict == CliqueVerdict::AllZeros ? 1 : 0;
                sync.trivial_cycles +=
                    report.verdict == CliqueVerdict::Trivial ? 1 : 0;
                sync.complex_cycles +=
                    report.verdict == CliqueVerdict::Complex ? 1 : 0;
                sync.offchip_cycles += report.offchip ? 1 : 0;
                sync.clique_corrections +=
                    static_cast<uint64_t>(report.clique_corrections);
                sync.raw_weight.add(
                    static_cast<uint64_t>(report.raw_weight));
                for (int t = 0; t < 2; ++t) {
                    const bool complex =
                        report.type_verdict[t] == CliqueVerdict::Complex;
                    sync.complex_halves += complex ? 1 : 0;
                    sync.offchip_halves +=
                        complex && report.type_offchip[t] ? 1 : 0;
                }
            }
        }

        EXPECT_EQ(sync.all_zero_cycles, queued.all_zero_cycles);
        EXPECT_EQ(sync.trivial_cycles, queued.trivial_cycles);
        EXPECT_EQ(sync.complex_cycles, queued.complex_cycles);
        EXPECT_EQ(sync.offchip_cycles, queued.offchip_cycles);
        EXPECT_EQ(sync.clique_corrections, queued.clique_corrections);
        EXPECT_EQ(sync.raw_weight.counts(), queued.raw_weight.counts());
        EXPECT_EQ(sync.complex_halves, queued.complex_halves);
        EXPECT_EQ(sync.offchip_halves, queued.offchip_halves);
        // Synchronous service: nothing suppressed, nothing pending,
        // every delay zero.
        EXPECT_EQ(queued.suppressed_escalations, 0u);
        EXPECT_EQ(queued.pending_offchip, 0u);
        EXPECT_EQ(queued.offchip_queue_delay.max_value(), 0u);
    }
}

TEST(QueuedService, CorrectionsLandAfterExactlyTheConfiguredLatency)
{
    // Unlimited bandwidth: no queueing wait, so every landed
    // correction's enqueue-to-landing delay equals the latency -- and
    // with latency inside the filter window the loop must still
    // converge (late corrections reconcile against the intervening
    // syndromes instead of oscillating).
    const RotatedSurfaceCode code(5);
    SystemConfig config;
    config.offchip = OffchipPolicy::Mwpm;
    config.filter_rounds = 3;
    config.offchip_latency = 2;  // lands mid-filter-window
    BtwcSystem system(code, NoiseParams::uniform(8e-3), config, 21);
    uint64_t queued = 0;
    uint64_t landed = 0;
    for (int i = 0; i < 4000; ++i) {
        const CycleReport report = system.step();
        queued += static_cast<uint64_t>(report.queued);
        landed += static_cast<uint64_t>(report.landed);
    }
    ASSERT_GT(queued, 0u);
    EXPECT_EQ(landed + system.pending_offchip(), queued);
    EXPECT_EQ(system.offchip_queue().delay_histogram().percentile(0.0),
              2u);
    EXPECT_EQ(system.offchip_queue().delay_histogram().max_value(), 2u);
    // Latency makes escalated errors linger, so some cycles re-flag
    // them while the decode is in flight; those are absorbed, not
    // re-sent (the reconciliation contract).
    EXPECT_GT(system.suppressed_escalations(), 0u);
    // The loop stays closed: the syndrome does not wander off.
    for (const CheckType err : {CheckType::X, CheckType::Z}) {
        std::vector<uint8_t> syndrome;
        system.frame(err).measure_perfect(syndrome);
        int weight = 0;
        for (const uint8_t s : syndrome) {
            weight += s;
        }
        EXPECT_LT(weight, code.num_checks(detector_of_error(err)) / 3);
    }
}

TEST(QueuedService, OraclePolicySupportsLatentCorrections)
{
    // Under the Oracle policy the queued payload is the
    // escalation-time error snapshot; applied L cycles later it must
    // remove exactly that component and leave the loop stable.
    const RotatedSurfaceCode code(7);
    SystemConfig config;
    config.offchip_latency = 4;
    BtwcSystem system(code, NoiseParams::uniform(5e-3), config, 23);
    uint64_t landed = 0;
    for (int i = 0; i < 5000; ++i) {
        landed += static_cast<uint64_t>(system.step().landed);
    }
    ASSERT_GT(landed, 0u);
    EXPECT_EQ(system.offchip_queue().delay_histogram().max_value(), 4u);
    for (const CheckType err : {CheckType::X, CheckType::Z}) {
        std::vector<uint8_t> syndrome;
        system.frame(err).measure_perfect(syndrome);
        int weight = 0;
        for (const uint8_t s : syndrome) {
            weight += s;
        }
        EXPECT_LT(weight, code.num_checks(detector_of_error(err)) / 3);
    }
}

TEST(QueuedService, NarrowLinkDefersLandingsBehindCapacity)
{
    // bandwidth 1 with both halves escalating in one cycle: the
    // second request waits a cycle for the link, so its delay exceeds
    // the bare latency.
    const RotatedSurfaceCode code(9);
    SystemConfig config;
    config.offchip = OffchipPolicy::Mwpm;
    config.offchip_latency = 1;
    config.offchip_bandwidth = 1;
    BtwcSystem system(code, NoiseParams::uniform(2e-2), config, 31);
    for (int i = 0; i < 4000; ++i) {
        system.step();
    }
    const CountHistogram &delay =
        system.offchip_queue().delay_histogram();
    ASSERT_GT(delay.total(), 0u);
    EXPECT_EQ(delay.percentile(0.0), 1u);   // uncontended requests
    EXPECT_GT(delay.max_value(), 1u);       // contended ones waited
    EXPECT_GT(system.offchip_queue().max_backlog(), 0u);
}

TEST(QueuedService, ThreadedQueueStatsAreDeterministic)
{
    LifetimeConfig config;
    config.distance = 7;
    config.p = 8e-3;
    config.cycles = 10000;
    config.mode = LifetimeMode::Pipeline;
    config.offchip = OffchipPolicy::Mwpm;
    config.offchip_latency = 2;
    config.offchip_bandwidth = 1;
    config.threads = 4;
    const LifetimeStats a = run_lifetime(config);
    const LifetimeStats b = run_lifetime(config);
    ASSERT_GT(a.offchip_queue_delay.total(), 0u);
    EXPECT_EQ(a.offchip_queue_delay.counts(),
              b.offchip_queue_delay.counts());
    EXPECT_EQ(a.offchip_batch_sizes.counts(),
              b.offchip_batch_sizes.counts());
    EXPECT_EQ(a.suppressed_escalations, b.suppressed_escalations);
    EXPECT_EQ(a.pending_offchip, b.pending_offchip);
    EXPECT_EQ(a.complex_cycles, b.complex_cycles);
}

TEST(FleetLatency, ZeroLatencyFleetRunMatchesLegacyBitExact)
{
    // run_fleet_with_bandwidth drives an OffchipQueue; at latency 0
    // its stall/backlog trajectory must be the stall-model oracle's
    // and every served decode's delay must be 0.
    FleetConfig config;
    config.num_qubits = 1000;
    config.cycles = 20000;
    config.offchip_prob = 0.02;
    const FleetRunResult run = run_fleet_with_bandwidth(config, 40);
    EXPECT_EQ(run.work_cycles, config.cycles);
    EXPECT_EQ(run.max_queue_delay, 0u);
    EXPECT_DOUBLE_EQ(run.mean_queue_delay, 0.0);

    // Reference trajectory straight off the oracle with the identical
    // demand stream.
    Rng rng(config.seed);
    StallController reference(40);
    while (reference.work_cycles() < config.cycles) {
        reference.step(rng.binomial(
            static_cast<uint64_t>(config.num_qubits),
            config.offchip_prob));
    }
    EXPECT_EQ(run.total_cycles, reference.total_cycles());
    EXPECT_EQ(run.stall_cycles, reference.stall_cycles());
    EXPECT_EQ(run.max_backlog, reference.max_backlog());
}

TEST(FleetLatency, LatencyShiftsDelayWithoutChangingStalls)
{
    FleetConfig config;
    config.num_qubits = 1000;
    config.cycles = 20000;
    config.offchip_prob = 0.02;
    const FleetRunResult base = run_fleet_with_bandwidth(config, 40);
    config.offchip_latency = 10;
    const FleetRunResult latent = run_fleet_with_bandwidth(config, 40);
    // Latency is pipelined: the stall curve is untouched ...
    EXPECT_EQ(latent.stall_cycles, base.stall_cycles);
    EXPECT_EQ(latent.max_backlog, base.max_backlog);
    // ... but every correction lands 10 cycles later.
    EXPECT_NEAR(latent.mean_queue_delay, base.mean_queue_delay + 10.0,
                1e-9);
}

TEST(FleetLatency, StallCurveDegradesMonotonicallyAsBandwidthShrinks)
{
    // The acceptance-criterion shape: narrowing the link can only
    // stall more and queue longer (nonzero latency configuration).
    FleetConfig config;
    config.num_qubits = 1000;
    config.cycles = 20000;
    config.offchip_prob = 0.02;
    config.offchip_latency = 5;
    uint64_t last_stalls = 0;
    double last_delay = 0.0;
    for (const uint64_t bandwidth : {60u, 45u, 35u, 30u, 27u}) {
        const FleetRunResult run =
            run_fleet_with_bandwidth(config, bandwidth);
        ASSERT_EQ(run.work_cycles, config.cycles)
            << "bandwidth " << bandwidth << " diverged";
        EXPECT_GE(run.stall_cycles, last_stalls)
            << "bandwidth " << bandwidth;
        EXPECT_GE(run.mean_queue_delay, last_delay)
            << "bandwidth " << bandwidth;
        last_stalls = run.stall_cycles;
        last_delay = run.mean_queue_delay;
    }
    EXPECT_GT(last_stalls, 0u);
}

} // namespace
} // namespace btwc
