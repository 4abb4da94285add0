/**
 * @file
 * Tests for the fault-injection & graceful-degradation layer
 * (src/faults/ plus its hooks in core/fabric/sim/api): fault-plan
 * grammar round-trips and diagnostics, injector determinism and the
 * structural zero-fault contract (a no-op plan is bit-exact with the
 * unfaulted path at queue, exact-fleet, and fabric granularity),
 * outage/spike/shed semantics of the counting queue, the service-side
 * fault ledger (drops, duplicates, corruption, give-ups, stale
 * landings, shed nacks), tenant timeout/retry/fallback degradation,
 * link failover migration, the spec grammar's cross-field validation
 * matrix for the chaos keys, the degraded-vs-disabled acceptance
 * experiment, a 10k-cycle flapping-link soak under deep audits, and
 * the failover give-up regression (a timed-out request is given up
 * on the link that holds it, not the one the tenant moved to).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/registry.hpp"
#include "api/report.hpp"
#include "api/run.hpp"
#include "api/scenario.hpp"
#include "common/check.hpp"
#include "core/offchip_queue.hpp"
#include "core/offchip_service.hpp"
#include "fabric/harness.hpp"
#include "fabric/scheduler.hpp"
#include "faults/fault_plan.hpp"
#include "sim/fleet.hpp"
#include "surface/lattice.hpp"

namespace btwc {
namespace {

// ------------------------------------------------- fault plan grammar

TEST(FaultPlan, ParsesEveryClauseAndRoundTrips)
{
    const std::string text =
        "outage:500:60;spike:150:24:6:1;drop:0.04;dup:0.03;"
        "corrupt:0.04;surge:300:60:2:1;fseed:7";
    FaultPlan plan;
    std::string error;
    ASSERT_TRUE(FaultPlan::try_parse(text, &plan, &error)) << error;
    EXPECT_TRUE(plan.enabled);
    EXPECT_TRUE(plan.any_faults());
    ASSERT_EQ(plan.outages.size(), 1u);
    EXPECT_EQ(plan.outages[0].period, 500u);
    EXPECT_EQ(plan.outages[0].duration, 60u);
    EXPECT_EQ(plan.outages[0].link, -1);
    ASSERT_EQ(plan.spikes.size(), 1u);
    EXPECT_EQ(plan.spikes[0].extra, 6u);
    EXPECT_EQ(plan.spikes[0].link, 1);
    EXPECT_DOUBLE_EQ(plan.drop, 0.04);
    EXPECT_DOUBLE_EQ(plan.duplicate, 0.03);
    EXPECT_DOUBLE_EQ(plan.corrupt, 0.04);
    ASSERT_EQ(plan.surges.size(), 1u);
    EXPECT_EQ(plan.surges[0].count, 2u);
    EXPECT_EQ(plan.surges[0].tenant, 1);
    EXPECT_EQ(plan.seed, 7u);
    // Canonical string re-parses to an identical plan.
    EXPECT_EQ(plan.to_string(), text);
    FaultPlan back;
    ASSERT_TRUE(FaultPlan::try_parse(plan.to_string(), &back, &error));
    EXPECT_EQ(back.to_string(), plan.to_string());
}

TEST(FaultPlan, NoneIsTheEnabledZeroFaultPlan)
{
    FaultPlan plan;
    EXPECT_FALSE(plan.enabled);  // default-constructed = not installed
    ASSERT_TRUE(FaultPlan::try_parse("none", &plan, nullptr));
    EXPECT_TRUE(plan.enabled);
    EXPECT_FALSE(plan.any_faults());
    EXPECT_EQ(plan.to_string(), "none");
}

TEST(FaultPlan, RejectsMalformedClausesWithDiagnostics)
{
    for (const char *bad :
         {"", "outage:10", "outage:5:9", "outage:5:5", "spike:10:2:0",
          "drop:1.5", "drop:nan", "dup:-0.1", "surge:10:2:0",
          "fseed:-1", "none:1", "bogus:1", "drop:0.1;;drop:0.2"}) {
        FaultPlan plan;
        std::string error;
        EXPECT_FALSE(FaultPlan::try_parse(bad, &plan, &error))
            << "accepted '" << bad << "'";
        EXPECT_FALSE(error.empty()) << bad;
    }
}

// --------------------------------------------------- injector algebra

TEST(FaultInjector, ZeroPlanNeverFiresAndInjectorsAreDeterministic)
{
    FaultPlan none;
    ASSERT_TRUE(FaultPlan::try_parse("none", &none, nullptr));
    const FaultInjector quiet(none, 0);
    for (uint64_t i = 0; i < 2000; ++i) {
        ASSERT_FALSE(quiet.link_down(i));
        ASSERT_EQ(quiet.extra_latency(i), 0u);
        ASSERT_FALSE(quiet.drop_delivery(i));
        ASSERT_FALSE(quiet.duplicate_delivery(i));
        ASSERT_FALSE(quiet.corrupt_delivery(i));
    }
    FaultPlan noisy;
    ASSERT_TRUE(FaultPlan::try_parse("drop:0.3;dup:0.3;corrupt:0.3",
                                     &noisy, nullptr));
    const FaultInjector a(noisy, 3);
    const FaultInjector b(noisy, 3);
    uint64_t fires = 0;
    for (uint64_t i = 0; i < 2000; ++i) {
        ASSERT_EQ(a.drop_delivery(i), b.drop_delivery(i));
        ASSERT_EQ(a.duplicate_delivery(i), b.duplicate_delivery(i));
        ASSERT_EQ(a.corrupt_delivery(i), b.corrupt_delivery(i));
        fires += a.drop_delivery(i) ? 1 : 0;
    }
    // Bernoulli(0.3) over 2000 indices: far from 0 and from all.
    EXPECT_GT(fires, 400u);
    EXPECT_LT(fires, 800u);
    // Different links draw from different streams.
    const FaultInjector other(noisy, 4);
    uint64_t differs = 0;
    for (uint64_t i = 0; i < 2000; ++i) {
        differs += a.drop_delivery(i) != other.drop_delivery(i) ? 1 : 0;
    }
    EXPECT_GT(differs, 0u);
}

TEST(FaultInjector, WindowsOpenAtPeriodAndFilterByLink)
{
    FaultPlan plan;
    ASSERT_TRUE(FaultPlan::try_parse("outage:100:10:1;spike:50:5:7:0",
                                     &plan, nullptr));
    const FaultInjector link0(plan, 0);
    const FaultInjector link1(plan, 1);
    // The first window opens at cycle `period` — a warmup prefix.
    for (uint64_t c = 0; c < 100; ++c) {
        ASSERT_FALSE(link1.link_down(c)) << c;
    }
    EXPECT_TRUE(link1.link_down(100));
    EXPECT_TRUE(link1.link_down(109));
    EXPECT_FALSE(link1.link_down(110));
    EXPECT_TRUE(link1.link_down(200));
    // The outage clause names link 1; link 0 never goes down.
    for (uint64_t c = 0; c < 400; ++c) {
        ASSERT_FALSE(link0.link_down(c)) << c;
    }
    // And symmetrically for the spike clause on link 0.
    EXPECT_EQ(link0.extra_latency(50), 7u);
    EXPECT_EQ(link0.extra_latency(49), 0u);
    EXPECT_EQ(link1.extra_latency(50), 0u);
}

// ------------------------------------------------ counting-queue faults

TEST(OffchipQueueFaults, OutageFreezesServiceAndStretchesDelays)
{
    const ScopedAuditLevel deep(AuditLevel::Deep);
    OffchipQueue queue(OffchipQueueConfig{1, 2, 0});
    // Cycle 0: two arrivals, one enters service (lands at cycle 2).
    OffchipQueue::StepResult sr = queue.step(2);
    EXPECT_EQ(sr.served, 1u);
    EXPECT_EQ(sr.landed, 0u);
    queue.audit();
    OffchipQueue::StepFaults outage;
    outage.outage = true;
    // Cycle 1: down. Nothing serves, nothing lands.
    sr = queue.step(0, outage);
    EXPECT_EQ(sr.served, 0u);
    EXPECT_EQ(sr.landed, 0u);
    queue.audit();
    // Cycle 2: still down; the due in-service front is postponed.
    sr = queue.step(0, outage);
    EXPECT_EQ(sr.landed, 0u);
    EXPECT_EQ(queue.outage_cycles(), 2u);
    queue.audit();
    // Cycle 3: healthy again — the postponed correction lands with a
    // stretched delay (2 cycles of latency + 1 postponement), and the
    // backlogged request finally enters service.
    sr = queue.step(0);
    EXPECT_EQ(sr.landed, 1u);
    EXPECT_EQ(sr.served, 1u);
    EXPECT_EQ(queue.delay_histogram().max_value(), 3u);
    queue.audit();
    while (queue.in_flight() > 0) {
        queue.step(0);
        queue.audit();
    }
    // Conservation: every request is served + shed + backlog.
    EXPECT_EQ(queue.enqueued(),
              queue.served() + queue.shed_total() + queue.backlog());
    EXPECT_EQ(queue.landed(), 2u);
}

TEST(OffchipQueueFaults, SpikeDelaysLandingWithoutOvertaking)
{
    const ScopedAuditLevel deep(AuditLevel::Deep);
    OffchipQueue queue(OffchipQueueConfig{0, 1, 0});
    OffchipQueue::StepFaults spike;
    spike.extra_latency = 3;
    // Cycle 0 under the spike: lands at 0 + 1 + 3 = 4.
    queue.step(1, spike);
    queue.audit();
    // Cycle 1 healthy: would land at 2, but the link is FIFO — the
    // later serve is clamped behind the spiked one.
    queue.step(1);
    queue.audit();
    uint64_t landed_at = 0;
    uint64_t landed = 0;
    for (uint64_t cycle = 2; cycle <= 4; ++cycle) {
        const OffchipQueue::StepResult sr = queue.step(0);
        queue.audit();
        if (sr.landed > 0) {
            landed_at = cycle;
            landed += sr.landed;
        }
    }
    EXPECT_EQ(landed_at, 4u);
    EXPECT_EQ(landed, 2u);  // both land together, in order
}

TEST(OffchipQueueFaults, ShedRemovesWaitingRequestsFromTheLedger)
{
    const ScopedAuditLevel deep(AuditLevel::Deep);
    OffchipQueue queue(OffchipQueueConfig{1, 0, 0});
    queue.step(3);  // serve 1, backlog 2
    EXPECT_EQ(queue.backlog(), 2u);
    queue.shed(1);
    queue.audit();
    EXPECT_EQ(queue.backlog(), 1u);
    EXPECT_EQ(queue.shed_total(), 1u);
    queue.step(0);
    queue.audit();
    EXPECT_EQ(queue.enqueued(),
              queue.served() + queue.shed_total() + queue.backlog());
    // Shedding more than the backlog is a contract violation.
    EXPECT_THROW(queue.shed(5), CheckFailure);
}

// ------------------------------------------------ service fault ledger

SharedOffchipService::Request
oracle_request(int owner, int half,
               std::vector<uint8_t> payload = {0, 0, 0})
{
    SharedOffchipService::Request request;
    request.owner = owner;
    request.half = half;
    request.oracle = true;
    request.payload = std::move(payload);
    return request;
}

std::unique_ptr<FaultInjector>
injector_for(const std::string &text, int link)
{
    FaultPlan plan;
    std::string error;
    BTWC_CHECK_MSG(FaultPlan::try_parse(text, &plan, &error),
                   "test plans parse");
    return std::make_unique<FaultInjector>(plan, link);
}

TEST(ServiceFaults, DropsAreCountedPerTenantAndLedgerCloses)
{
    const ScopedAuditLevel deep(AuditLevel::Deep);
    const RotatedSurfaceCode code(3);
    SharedOffchipService service(code, TierChainConfig::legacy(),
                                 OffchipQueueConfig{0, 1, 0});
    service.set_scheduler(make_scheduler(SchedulerKind::Fifo, 64));
    service.set_fault_injector(injector_for("drop:1", 0));
    uint64_t received = 0;
    for (int i = 0; i < 6; ++i) {
        service.enqueue(oracle_request(i % 3, i % 2));
        received += service.step().size();
    }
    while (service.pending() > 0) {
        received += service.step().size();
    }
    EXPECT_EQ(received, 0u);  // every delivery lost on the down-link
    EXPECT_EQ(service.dropped(), 6u);
    EXPECT_EQ(service.delivered(), 0u);
    EXPECT_EQ(service.tenant_stats()[0].dropped, 2u);
    EXPECT_EQ(service.queue().landed(),
              service.delivered() + service.dropped() +
                  service.stale_discards() + service.surge_landed());
}

TEST(ServiceFaults, DuplicatesDeliverTwiceAndCorruptionFlipsOneByte)
{
    const ScopedAuditLevel deep(AuditLevel::Deep);
    const RotatedSurfaceCode code(3);
    SharedOffchipService service(code, TierChainConfig::legacy(),
                                 OffchipQueueConfig{0, 0, 0});
    service.set_scheduler(make_scheduler(SchedulerKind::Fifo, 64));
    service.set_fault_injector(injector_for("dup:1;corrupt:1", 0));
    service.enqueue(oracle_request(0, 0, {1, 0, 0, 1}));
    const std::vector<SharedOffchipService::Delivery> landings =
        service.step();
    ASSERT_EQ(landings.size(), 2u);  // duplicated
    EXPECT_EQ(service.duplicated(), 1u);
    EXPECT_EQ(service.delivered(), 1u);  // duplicates are extras
    EXPECT_EQ(service.corrupted(), 1u);
    // Exactly one byte differs from the correction that was sent, and
    // the duplicate repeats the corrupted bytes verbatim.
    const std::vector<uint8_t> sent = {1, 0, 0, 1};
    size_t flipped = 0;
    for (size_t i = 0; i < sent.size(); ++i) {
        flipped += landings[0].correction[i] != sent[i] ? 1 : 0;
    }
    EXPECT_EQ(flipped, 1u);
    EXPECT_EQ(landings[1].correction, landings[0].correction);
}

TEST(ServiceFaults, GiveUpCancelsWaitingStalesInflightThenGone)
{
    const ScopedAuditLevel deep(AuditLevel::Deep);
    const RotatedSurfaceCode code(3);
    SharedOffchipService service(code, TierChainConfig::legacy(),
                                 OffchipQueueConfig{1, 3, 0});
    service.set_scheduler(make_scheduler(SchedulerKind::Fifo, 64));
    // Two requests, bandwidth 1: after one step the first is in
    // flight, the second still waits.
    service.enqueue(oracle_request(0, 0));
    service.enqueue(oracle_request(0, 1));
    service.step();
    EXPECT_EQ(service.queue().backlog(), 1u);
    // The waiting one cancels outright (shed from the queue ledger).
    EXPECT_EQ(service.give_up(0, 1),
              SharedOffchipService::GiveUpResult::Canceled);
    EXPECT_EQ(service.canceled(), 1u);
    EXPECT_EQ(service.queue().shed_total(), 1u);
    // The in-flight one cannot be recalled: it is marked stale, and a
    // second give-up on the same half finds nothing.
    EXPECT_EQ(service.give_up(0, 0),
              SharedOffchipService::GiveUpResult::Stale);
    EXPECT_EQ(service.give_up(0, 0),
              SharedOffchipService::GiveUpResult::Gone);
    // Its landing is swallowed, never delivered.
    uint64_t received = 0;
    while (service.pending() > 0) {
        received += service.step().size();
    }
    EXPECT_EQ(received, 0u);
    EXPECT_EQ(service.stale_discards(), 1u);
    EXPECT_EQ(service.delivered(), 0u);
    service.audit();
}

TEST(ServiceFaults, SheddingNacksExpiredRequestsAndBallast)
{
    const ScopedAuditLevel deep(AuditLevel::Deep);
    const RotatedSurfaceCode code(3);
    SharedOffchipService service(code, TierChainConfig::legacy(),
                                 OffchipQueueConfig{1, 4, 0});
    service.set_scheduler(make_scheduler(SchedulerKind::Fifo, 64));
    TenantLane lane;
    lane.deadline = 2;
    service.set_tenant_lane(0, lane);
    service.set_tenant_lane(1, lane);
    service.enable_shedding(true);
    // Four requests then two synthetic ballast entries contend for a
    // bandwidth-1 link; everything still waiting past deadline 2 is
    // shed. The link serves at most three before the budget expires,
    // so at least one real request sheds (an empty-correction nack to
    // its owner) and the trailing ballast sheds silently (counted,
    // no nack).
    service.enqueue(oracle_request(0, 0));
    service.enqueue(oracle_request(0, 1));
    service.enqueue(oracle_request(1, 0));
    service.enqueue(oracle_request(1, 1));
    service.enqueue_synthetic(0, 2);
    EXPECT_EQ(service.surge_enqueued(), 2u);
    uint64_t nacks = 0;
    for (int cycle = 0; cycle < 12; ++cycle) {
        for (const SharedOffchipService::Delivery &landing :
             service.step()) {
            nacks += landing.correction.empty() ? 1 : 0;
        }
    }
    ASSERT_GT(nacks, 0u);
    EXPECT_GE(service.shed_requests(), nacks + 2);  // ballast shed too
    EXPECT_EQ(service.queue().shed_total(),
              service.shed_requests() + service.canceled());
    EXPECT_EQ(service.pending(), 0u);
    service.audit();
}

// -------------------------------------------- zero-fault bit-exactness

FabricFleetConfig
quick_fabric_config()
{
    // The fabric-quick registry point (registry.cpp), in config form.
    FabricFleetConfig config;
    config.fleet.distance = 3;
    config.fleet.p = 6e-3;
    config.fleet.num_qubits = 6;
    config.fleet.cycles = 2000;
    config.fleet.seed = 1;
    config.fleet.shared_link = true;
    config.fleet.offchip = OffchipPolicy::Mwpm;
    config.fleet.offchip_latency = 2;
    config.fleet.offchip_bandwidth = 1;
    config.fleet.tenant_probs =
        hotspot_probs(6, config.fleet.p, 0.25, 4.0);
    config.topology.links = 2;
    config.topology.scheduler = SchedulerKind::Priority;
    config.topology.placement = PlacementKind::LeastLoaded;
    config.topology.deadline = 6;
    return config;
}

void
expect_fabric_stats_equal(const FabricStats &a, const FabricStats &b)
{
    EXPECT_EQ(a.demand.counts(), b.demand.counts());
    EXPECT_EQ(a.queue_delay.counts(), b.queue_delay.counts());
    EXPECT_EQ(a.batch_sizes.counts(), b.batch_sizes.counts());
    EXPECT_EQ(a.backlog.counts(), b.backlog.counts());
    EXPECT_EQ(a.enqueued, b.enqueued);
    EXPECT_EQ(a.served, b.served);
    EXPECT_EQ(a.landed, b.landed);
    EXPECT_EQ(a.suppressed, b.suppressed);
    EXPECT_EQ(a.pending, b.pending);
    EXPECT_EQ(a.stall_cycles, b.stall_cycles);
    EXPECT_EQ(a.work_cycles, b.work_cycles);
    EXPECT_EQ(a.max_backlog, b.max_backlog);
    EXPECT_EQ(a.deadline_misses, b.deadline_misses);
    EXPECT_EQ(a.probes, b.probes);
    EXPECT_EQ(a.probe_failures, b.probe_failures);
    ASSERT_EQ(a.per_tenant.size(), b.per_tenant.size());
    for (size_t q = 0; q < a.per_tenant.size(); ++q) {
        EXPECT_EQ(a.per_tenant[q].enqueued, b.per_tenant[q].enqueued);
        EXPECT_EQ(a.per_tenant[q].landed, b.per_tenant[q].landed);
        EXPECT_EQ(a.per_tenant[q].failures, b.per_tenant[q].failures);
        EXPECT_EQ(a.per_tenant[q].delay.counts(),
                  b.per_tenant[q].delay.counts());
    }
    ASSERT_EQ(a.per_link.size(), b.per_link.size());
    for (size_t k = 0; k < a.per_link.size(); ++k) {
        EXPECT_EQ(a.per_link[k].enqueued, b.per_link[k].enqueued);
        EXPECT_EQ(a.per_link[k].landed, b.per_link[k].landed);
        EXPECT_EQ(a.per_link[k].delay.counts(),
                  b.per_link[k].delay.counts());
    }
}

TEST(ZeroFaultContract, NoOpPlanIsBitExactOnTheFabric)
{
    // The structural contract: installing the enabled no-op plan runs
    // the full fault plumbing (injectors, fault-aware queue stepping)
    // yet perturbs nothing — frames (via probe failures), delivery
    // order (via per-tenant delay histograms), demand (the RNG
    // stream), and every counter are bit-identical.
    const FabricStats plain = run_fabric(quick_fabric_config());
    FabricFleetConfig faulted = quick_fabric_config();
    ASSERT_TRUE(
        FaultPlan::try_parse("none", &faulted.faults, nullptr));
    const FabricStats noop = run_fabric(faulted);
    ASSERT_GT(noop.enqueued, 0u);
    expect_fabric_stats_equal(plain, noop);
    EXPECT_EQ(noop.faults.outage_cycles, 0u);
    EXPECT_EQ(noop.faults.dropped + noop.faults.duplicated +
                  noop.faults.corrupted + noop.faults.shed +
                  noop.faults.canceled + noop.faults.surge_enqueued +
                  noop.faults.retried + noop.faults.degraded +
                  noop.faults.migrations,
              0u);
}

TEST(ZeroFaultContract, NoOpPlanIsBitExactOnTheSharedFleet)
{
    // fleet-shared-narrow (registry.cpp) at a test-sized cycle budget.
    ExactFleetConfig config;
    config.distance = 5;
    config.p = 6e-3;
    config.num_qubits = 12;
    config.cycles = 1500;
    config.seed = 1;
    config.shared_link = true;
    config.offchip_latency = 2;
    config.offchip_bandwidth = 1;
    const ExactFleetStats plain = fleet_demand_exact_stats(config);
    ExactFleetConfig faulted = config;
    ASSERT_TRUE(FaultPlan::try_parse("none", &faulted.faults, nullptr));
    const ExactFleetStats noop = fleet_demand_exact_stats(faulted);
    ASSERT_GT(noop.enqueued, 0u);
    EXPECT_EQ(noop.demand.counts(), plain.demand.counts());
    EXPECT_EQ(noop.queue_delay.counts(), plain.queue_delay.counts());
    EXPECT_EQ(noop.batch_sizes.counts(), plain.batch_sizes.counts());
    EXPECT_EQ(noop.backlog.counts(), plain.backlog.counts());
    EXPECT_EQ(noop.enqueued, plain.enqueued);
    EXPECT_EQ(noop.served, plain.served);
    EXPECT_EQ(noop.landed, plain.landed);
    EXPECT_EQ(noop.suppressed, plain.suppressed);
    EXPECT_EQ(noop.pending, plain.pending);
    EXPECT_EQ(noop.stall_cycles, plain.stall_cycles);
    EXPECT_EQ(noop.max_backlog, plain.max_backlog);
    ASSERT_EQ(noop.per_qubit.size(), plain.per_qubit.size());
    for (size_t q = 0; q < noop.per_qubit.size(); ++q) {
        EXPECT_EQ(noop.per_qubit[q].enqueued,
                  plain.per_qubit[q].enqueued);
        EXPECT_EQ(noop.per_qubit[q].landed, plain.per_qubit[q].landed);
    }
    EXPECT_EQ(noop.outage_cycles + noop.dropped + noop.duplicated +
                  noop.corrupted + noop.surge_enqueued,
              0u);
}

// --------------------------------------- degradation & the acceptance

FabricFleetConfig
chaos_config(bool degradation)
{
    // A plan hostile enough to need every mechanism: recurring
    // all-link outages, latency spikes, delivery loss, and a surge
    // well beyond the links' combined bandwidth.
    FabricFleetConfig config = quick_fabric_config();
    config.fleet.cycles = 2500;
    config.topology.scheduler = SchedulerKind::Deadline;
    config.topology.deadline = 8;
    BTWC_CHECK(FaultPlan::try_parse(
        "outage:400:60;spike:150:24:6;drop:0.05;surge:100:80:3:1",
        &config.faults, nullptr));
    if (degradation) {
        config.timeout = 12;
        config.retries = 2;
        config.shed = true;
        config.topology.migrate_threshold = 48;
    }
    return config;
}

TEST(Degradation, TimeoutRetryFallbackKeepTailsBoundedUnderChaos)
{
    // The issue's acceptance experiment: under the hostile plan with
    // the full degradation stack, every tenant's p99 queue delay stays
    // bounded and the fleet's probed LER stays within 2x the
    // fault-free baseline.
    const FabricStats healthy = run_fabric(quick_fabric_config());
    const FabricStats stats = run_fabric(chaos_config(true));
    ASSERT_GT(stats.enqueued, 0u);
    // The machinery actually engaged.
    EXPECT_GT(stats.faults.outage_cycles, 0u);
    EXPECT_GT(stats.faults.surge_enqueued, 0u);
    EXPECT_GT(stats.faults.shed, 0u);
    EXPECT_GT(stats.faults.canceled + stats.faults.retried +
                  stats.faults.degraded,
              0u);
    for (size_t q = 0; q < stats.per_tenant.size(); ++q) {
        if (stats.per_tenant[q].delay.total() == 0) {
            continue;
        }
        EXPECT_LE(stats.per_tenant[q].delay.percentile(0.99), 64u)
            << "tenant " << q;
    }
    ASSERT_GT(stats.probes, 0u);
    ASSERT_GT(healthy.probes, 0u);
    const double chaos_ler =
        static_cast<double>(stats.probe_failures) /
        static_cast<double>(stats.probes);
    const double healthy_ler =
        static_cast<double>(healthy.probe_failures) /
        static_cast<double>(healthy.probes);
    EXPECT_LE(chaos_ler, 2.0 * healthy_ler)
        << "chaos " << chaos_ler << " vs healthy " << healthy_ler;
}

TEST(Degradation, DisabledDegradationLetsTheBacklogGrowUnbounded)
{
    // Same plan, no timeout / shedding / failover: the beyond-
    // bandwidth surge piles up and the backlog grows with the run
    // length instead of plateauing.
    FabricFleetConfig off_short = chaos_config(false);
    off_short.fleet.cycles = 1200;
    FabricFleetConfig off_long = chaos_config(false);
    off_long.fleet.cycles = 2400;
    const uint64_t backlog_short =
        run_fabric(off_short).max_backlog;
    const uint64_t backlog_long = run_fabric(off_long).max_backlog;
    EXPECT_GT(backlog_short, 100u);
    EXPECT_GE(backlog_long, backlog_short + backlog_short / 2);
    // With the degradation stack on, the same horizon stays flat.
    const FabricStats degraded = run_fabric(chaos_config(true));
    EXPECT_LT(degraded.max_backlog, backlog_long / 4);
}

TEST(Degradation, ExhaustedRetriesFallBackToOnchipDecode)
{
    // One link, no failover target, half of every period dark: a
    // request that times out retries once, and when the retry times
    // out too the tenant decodes on-chip with the UF fallback instead
    // of stalling forever (the `degraded` outcome).
    FabricFleetConfig config = quick_fabric_config();
    config.topology.links = 1;
    config.topology.scheduler = SchedulerKind::Deadline;
    config.topology.deadline = 8;
    config.timeout = 6;
    config.retries = 1;
    BTWC_CHECK(FaultPlan::try_parse("outage:200:100", &config.faults,
                                    nullptr));
    const FabricStats stats = run_fabric(config);
    EXPECT_GT(stats.faults.retried, 0u);
    EXPECT_GT(stats.faults.degraded, 0u);
    EXPECT_GT(stats.faults.canceled, 0u);
    EXPECT_EQ(stats.faults.migrations, 0u);  // nowhere to go
    EXPECT_GT(stats.landed, 0u);  // healthy halves of the period work
}

TEST(Degradation, OutageTriggersFailoverMigration)
{
    // A link-0-only outage longer than the migrate threshold: its
    // tenants must re-home to link 1 and keep landing corrections.
    FabricFleetConfig config = quick_fabric_config();
    config.topology.scheduler = SchedulerKind::Deadline;
    config.topology.deadline = 8;
    config.topology.migrate_threshold = 16;
    config.timeout = 12;
    config.retries = 1;
    BTWC_CHECK(FaultPlan::try_parse("outage:300:120:0", &config.faults,
                                    nullptr));
    const FabricStats stats = run_fabric(config);
    EXPECT_GT(stats.faults.migrations, 0u);
    EXPECT_GT(stats.faults.outage_cycles, 0u);
    EXPECT_GT(stats.landed, 0u);
}

// --------------------------------------------- spec validation matrix

TEST(SpecValidation, ChaosKeysAreFabricOnly)
{
    ScenarioSpec spec;
    std::string error;
    // Satellite pin: the pre-existing fabric-key rejections hold.
    EXPECT_FALSE(
        ScenarioSpec::try_parse("kind=memory,links=2", &spec, &error));
    EXPECT_NE(error.find("fabric"), std::string::npos);
    EXPECT_FALSE(ScenarioSpec::try_parse("kind=lifetime,deadline=4",
                                         &spec, &error));
    EXPECT_FALSE(ScenarioSpec::try_parse(
        "kind=stream,scheduler=priority", &spec, &error));
    // The new degradation knobs reject everywhere but the fabric.
    for (const char *bad :
         {"kind=lifetime,timeout=4", "kind=memory,shed=true",
          "kind=exact-fleet,retries=1", "kind=fleet,migrate=8",
          "kind=stream,timeout=2"}) {
        EXPECT_FALSE(ScenarioSpec::try_parse(bad, &spec, &error))
            << bad;
        EXPECT_NE(error.find("fabric"), std::string::npos) << bad;
    }
    // faults= needs an injectable shared service.
    EXPECT_FALSE(ScenarioSpec::try_parse("kind=lifetime,faults=none",
                                         &spec, &error));
    EXPECT_FALSE(ScenarioSpec::try_parse(
        "kind=exact-fleet,faults=drop:0.1", &spec, &error));
    EXPECT_NE(error.find("shared"), std::string::npos);
    EXPECT_TRUE(ScenarioSpec::try_parse(
        "kind=exact-fleet,shared,faults=drop:0.1", &spec, &error))
        << error;
    EXPECT_TRUE(spec.service.faults.enabled);
    // A malformed plan surfaces the fault grammar's diagnostic.
    EXPECT_FALSE(ScenarioSpec::try_parse("kind=fabric,faults=drop:2",
                                         &spec, &error));
    EXPECT_NE(error.find("faults"), std::string::npos);
}

TEST(SpecValidation, ChaosSpecRoundTripsThroughTheGrammar)
{
    const std::string text =
        "kind=fabric,policy=mwpm,latency=2,bandwidth=1,"
        "scheduler=deadline,links=2,deadline=8,"
        "faults=outage:500:60;drop:0.04;surge:300:60:2:1,"
        "timeout=12,retries=2,shed=true,migrate=64,fleet=6,cycles=2000";
    ScenarioSpec spec;
    std::string error;
    ASSERT_TRUE(ScenarioSpec::try_parse(text, &spec, &error)) << error;
    EXPECT_EQ(spec.service.timeout, 12u);
    EXPECT_EQ(spec.service.retries, 2);
    EXPECT_TRUE(spec.service.shed);
    EXPECT_EQ(spec.service.migrate, 64u);
    EXPECT_TRUE(spec.service.faults.enabled);
    ScenarioSpec back;
    ASSERT_TRUE(
        ScenarioSpec::try_parse(spec.to_string(), &back, &error))
        << error;
    EXPECT_EQ(back, spec);
    // The adapter threads every knob through to the harness config.
    const FabricFleetConfig config = spec.to_fabric_config();
    EXPECT_EQ(config.timeout, 12u);
    EXPECT_EQ(config.retries, 2);
    EXPECT_TRUE(config.shed);
    EXPECT_EQ(config.topology.migrate_threshold, 64u);
    EXPECT_TRUE(config.faults.enabled);
    EXPECT_FALSE(config.fleet.faults.enabled);  // plan lives fabric-side
}

TEST(SpecValidation, FabricChaosRegistryEntryParses)
{
    ScenarioSpec spec;
    std::string error;
    ASSERT_TRUE(find_scenario("fabric-chaos", &spec, &error)) << error;
    EXPECT_EQ(spec.kind, ScenarioKind::Fabric);
    EXPECT_TRUE(spec.service.faults.enabled);
    EXPECT_TRUE(spec.service.faults.any_faults());
    EXPECT_GT(spec.service.timeout, 0u);
    EXPECT_TRUE(spec.service.shed);
}

// ------------------------------------------------- flapping-link soak

TEST(FaultSoak, TenThousandCycleFlappingLinkHoldsEveryContract)
{
    // A long flapping-link run under deep audits: every step re-proves
    // the queue conservation, the fault ledger, and the fabric's
    // cross-link conservation; the test then checks the run ended in a
    // steady state (bounded backlog, bounded pending) rather than
    // having leaked requests into any container.
    const ScopedAuditLevel deep(AuditLevel::Deep);
    FabricFleetConfig config;
    config.fleet.distance = 3;
    config.fleet.p = 6e-3;
    config.fleet.num_qubits = 4;
    config.fleet.cycles = 10000;
    config.fleet.seed = 5;
    config.fleet.shared_link = true;
    config.fleet.offchip = OffchipPolicy::Mwpm;
    config.fleet.offchip_latency = 2;
    config.fleet.offchip_bandwidth = 1;
    config.topology.links = 2;
    config.topology.scheduler = SchedulerKind::Deadline;
    config.topology.deadline = 8;
    config.topology.migrate_threshold = 32;
    config.timeout = 10;
    config.retries = 1;
    config.shed = true;
    BTWC_CHECK(FaultPlan::try_parse(
        "outage:500:60;drop:0.05;dup:0.05;corrupt:0.05;surge:250:40:2",
        &config.faults, nullptr));
    const FabricStats stats = run_fabric(config);
    ASSERT_GT(stats.enqueued, 0u);
    EXPECT_GT(stats.faults.outage_cycles, 0u);
    EXPECT_GT(stats.faults.surge_enqueued, 0u);
    // Steady state, not a leak: pending is bounded by the fleet's
    // one-outstanding contract (+ transient ballast) and the backlog
    // plateaued far below the run length.
    EXPECT_LE(stats.pending,
              2u * static_cast<uint64_t>(config.fleet.num_qubits) + 8u);
    EXPECT_LT(stats.max_backlog, 500u);
    // The ledger balances fleet-wide: everything enqueued on the links
    // (real + synthetic) was served+landed, shed, or still pending —
    // the structural audit ran every cycle, so here we just pin that
    // the run engaged each outcome at least once.
    EXPECT_GT(stats.faults.shed + stats.faults.canceled, 0u);
    EXPECT_GT(stats.faults.dropped + stats.faults.duplicated +
                  stats.faults.corrupted,
              0u);
    EXPECT_GT(stats.landed, 0u);
}

// ------------------------------------------- failover give-up regression

TEST(FaultSoak, GiveUpAfterFailoverTargetsTheHoldingLink)
{
    // The benchmark's fabric-chaos-d5 spec (perfbench/README.md) under
    // deep audits: timeouts, failover migration and a surge together.
    // A tenant re-homed by a failover still has a request on its old
    // link; when that request times out, the give-up must reach the
    // old link. Sent to the new link instead, the old request was never
    // marked stale, the half re-escalated, and the link's
    // one-outstanding-per-half check threw mid-run on every seed.
    const std::string chaos_d5 =
        "kind=fabric,d=5,p=5e-3,policy=mwpm,fleet=12,links=2,"
        "scheduler=deadline,placement=least-loaded,hot_fraction=0.25,"
        "hot_mult=3,latency=2,bandwidth=1,deadline=8,timeout=12,"
        "retries=2,shed=true,migrate=32,faults=outage:500:60:0;"
        "spike:150:24:6;drop:0.04;dup:0.03;corrupt:0.04;"
        "surge:300:60:2:1,threads=1,audit=deep,cycles=2000";
    for (const int seed : {1, 2, 3}) {
        const ScenarioSpec spec = ScenarioSpec::parse(
            chaos_d5 + ",seed=" + std::to_string(seed));
        Report report;
        ASSERT_NO_THROW(report = run_scenario(spec)) << "seed " << seed;
        const auto metric = [&](const std::string &path) {
            uint64_t value = 0;
            EXPECT_TRUE(report.lookup_uint("metrics." + path, &value))
                << path;
            return value;
        };
        // The run exercised what the defect needed ...
        EXPECT_GT(metric("faults.migrations"), 0u) << "seed " << seed;
        EXPECT_GT(metric("faults.retried") + metric("faults.degraded"),
                  0u)
            << "seed " << seed;
        // ... and its ledgers balance: every link enqueue is a tenant
        // escalation or surge ballast, and every link landing is
        // delivered, dropped, stale or swallowed ballast.
        uint64_t shipped = 0;
        for (int q = 0; q < spec.service.fleet_size; ++q) {
            shipped += metric("fabric.tenants.t" + std::to_string(q) +
                              ".enqueued");
        }
        EXPECT_EQ(metric("enqueued"),
                  shipped + metric("faults.surge_enqueued"))
            << "seed " << seed;
        EXPECT_LE(metric("landed"), metric("served")) << "seed " << seed;
    }
}

} // namespace
} // namespace btwc
