#include "replicas.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <vector>

#include "api/run.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/system.hpp"
#include "decoders/stream_window.hpp"
#include "decoders/tier_chain.hpp"
#include "fabric/fabric.hpp"
#include "fabric/harness.hpp"
#include "fabric/probe.hpp"
#include "sim/lifetime.hpp"
#include "sim/stream.hpp"
#include "surface/frame.hpp"
#include "surface/lattice.hpp"
#include "surface/packed.hpp"

namespace perfbench {

using namespace btwc;

namespace {

void
require_single_shard(const ScenarioSpec &spec)
{
    if (spec.engine.threads != 1) {
        throw std::invalid_argument("replicas need threads=1");
    }
}

/** The chain layer a classified half-decode belongs to. */
Layer
chain_layer(CliqueVerdict verdict, DecoderTier tier)
{
    switch (verdict) {
      case CliqueVerdict::AllZeros:
        return Layer::ChainAllZero;
      case CliqueVerdict::Trivial:
        return Layer::ChainClique;
      case CliqueVerdict::Complex:
        break;
    }
    return tier == DecoderTier::UnionFind ? Layer::ChainUf
                                          : Layer::ChainEscalated;
}

/** count_half of sim/lifetime.cpp. */
void
count_half(LifetimeStats &stats, CliqueVerdict verdict, DecoderTier tier,
           bool offchip)
{
    switch (verdict) {
      case CliqueVerdict::AllZeros:
        ++stats.all_zero_halves;
        break;
      case CliqueVerdict::Trivial:
        ++stats.trivial_halves;
        break;
      case CliqueVerdict::Complex:
        ++stats.complex_halves;
        ++stats.tier_halves[static_cast<int>(tier)];
        stats.offchip_halves += offchip ? 1 : 0;
        break;
    }
}

} // namespace

Report
trace_signature(const ScenarioSpec &spec, Trace &trace)
{
    require_single_shard(spec);
    const LifetimeConfig config = spec.to_lifetime_config();
    if (config.mode != LifetimeMode::Signature) {
        throw std::invalid_argument("trace_signature needs signature mode");
    }
    const RotatedSurfaceCode code(config.distance);
    Rng rng(config.seed);
    LifetimeStats stats;
    stats.cycles = config.cycles;

    struct Half
    {
        Half(const RotatedSurfaceCode &c, CheckType error_type,
             const TierChainConfig &tiers)
            : frame(c, error_type),
              chain(c, detector_of_error(error_type), tiers)
        {
        }
        ErrorFrame frame;
        TierChain chain;
        PackedSyndrome round;
        PackedSyndrome filtered;
        TierChain::Result out;
    };
    Half halves[2] = {Half(code, CheckType::X, config.tiers),
                      Half(code, CheckType::Z, config.tiers)};
    TierChain::Options chain_options;
    chain_options.stop_before_offchip = true;
    const double p_meas = config.meas_probability();

    for (uint64_t cycle = 0; cycle < config.cycles; ++cycle) {
        const uint64_t t_loop = trace.begin();
        CliqueVerdict verdict = CliqueVerdict::AllZeros;
        bool cycle_offchip = false;
        uint64_t raw_weight = 0;
        for (Half &half : halves) {
            half.frame.reset();
            uint64_t t = trace.begin();
            half.frame.inject(config.p, rng);
            trace.end(Layer::Inject, t, cycle);
            for (int r = 0; r < config.filter_rounds; ++r) {
                t = trace.begin();
                half.frame.measure_packed(p_meas, rng, half.round);
                trace.end(Layer::Measure, t, cycle);
                if (r == 0) {
                    half.filtered = half.round;
                } else {
                    half.filtered &= half.round;
                }
            }
            raw_weight += static_cast<uint64_t>(half.round.popcount());
            t = trace.begin();
            half.chain.decode_syndrome(half.filtered, chain_options,
                                       half.out);
            const CliqueVerdict half_verdict = classify_decode(half.out);
            trace.end(chain_layer(half_verdict, half.out.tier), t, cycle);
            const TierChain::Result &out = half.out;
            count_half(stats, half_verdict, out.tier, out.offchip);
            if (half_verdict == CliqueVerdict::Complex) {
                verdict = CliqueVerdict::Complex;
            } else if (half_verdict == CliqueVerdict::Trivial &&
                       verdict == CliqueVerdict::AllZeros) {
                verdict = CliqueVerdict::Trivial;
            }
            cycle_offchip |= out.offchip;
            if (half_verdict == CliqueVerdict::Trivial) {
                stats.clique_corrections +=
                    static_cast<uint64_t>(out.decode.weight);
            }
        }
        switch (verdict) {
          case CliqueVerdict::AllZeros:
            ++stats.all_zero_cycles;
            break;
          case CliqueVerdict::Trivial:
            ++stats.trivial_cycles;
            break;
          case CliqueVerdict::Complex:
            ++stats.complex_cycles;
            break;
        }
        stats.offchip_cycles += cycle_offchip ? 1 : 0;
        stats.raw_weight.add(raw_weight);
        trace.end(Layer::Loop, t_loop, cycle);
    }
    return lifetime_metrics_report(stats);
}

Report
trace_stream(const ScenarioSpec &spec, Trace &trace)
{
    require_single_shard(spec);
    const StreamConfig config = spec.to_stream_config();
    const RotatedSurfaceCode code(config.distance);
    const CheckType detector = detector_of_error(config.error_type);

    StreamWindowConfig window_config;
    window_config.window = config.window;
    window_config.overlap = config.overlap;
    window_config.screen = stream_screen_tiers(config.tiers);
    StreamWindowDecoder decoder(code, detector, window_config);

    ErrorFrame frame(code, config.error_type);
    Rng rng(config.seed);
    PackedSyndrome raw(code.num_checks(detector));
    std::vector<uint8_t> perfect;
    const double p_meas = config.meas_probability();

    for (uint64_t round = 0; round < config.rounds; ++round) {
        const uint64_t t_loop = trace.begin();
        uint64_t t = trace.begin();
        frame.inject(config.p, rng);
        trace.end(Layer::Inject, t, round);
        t = trace.begin();
        frame.measure_packed(p_meas, rng, raw);
        trace.end(Layer::Measure, t, round);
        const uint64_t windows = decoder.stats().windows;
        t = trace.begin();
        decoder.push_round(raw);
        trace.end(decoder.stats().windows != windows ? Layer::StreamWindow
                                                     : Layer::StreamBuffer,
                  t, round);
        trace.end(Layer::Loop, t_loop, round);
    }
    // The noiseless closing round, flush and commit of the harness.
    const uint64_t t_loop = trace.begin();
    frame.measure_perfect(perfect);
    raw.from_bytes(perfect);
    const uint64_t t = trace.begin();
    decoder.push_round(raw);
    decoder.flush();
    trace.end(Layer::StreamFlush, t, config.rounds);
    frame.apply_packed(decoder.committed_correction());
    trace.end(Layer::Loop, t_loop, config.rounds);

    StreamStats stats;
    stats.window = decoder.stats();
    stats.streams = 1;
    stats.unclear_syndromes = frame.syndrome_clear() ? 0 : 1;
    stats.logical_failures = frame.logical_flipped() ? 1 : 0;
    return stream_metrics_report(stats);
}

Report
trace_fabric(const ScenarioSpec &spec, Trace &trace)
{
    require_single_shard(spec);
    const FabricFleetConfig config = spec.to_fabric_config();
    const ExactFleetConfig &fleet = config.fleet;
    validate_tenant_profile(fleet);
    for (const int d : fleet.tenant_distances) {
        if (d != fleet.distance) {
            throw std::invalid_argument(
                "trace_fabric replicates uniform-distance fleets only");
        }
    }
    const RotatedSurfaceCode code(fleet.distance);
    std::vector<double> probs;
    probs.reserve(static_cast<size_t>(fleet.num_qubits));
    for (int q = 0; q < fleet.num_qubits; ++q) {
        probs.push_back(tenant_prob(fleet, q));
    }

    Rng seeder(fleet.seed);
    SystemConfig sconfig;
    sconfig.offchip = fleet.offchip;
    sconfig.tiers = fleet.tiers;
    sconfig.offchip_timeout = config.timeout;
    sconfig.offchip_retries = config.retries;
    std::vector<BtwcSystem> qubits;
    qubits.reserve(static_cast<size_t>(fleet.num_qubits));
    for (int q = 0; q < fleet.num_qubits; ++q) {
        qubits.emplace_back(code, NoiseParams::uniform(tenant_prob(fleet, q)),
                            sconfig, seeder.next_u64());
    }
    Fabric fabric(config.topology, code, fleet.tiers,
                  OffchipQueueConfig{fleet.offchip_bandwidth,
                                     fleet.offchip_latency,
                                     fleet.offchip_batch},
                  probs);
    if (config.faults.enabled) {
        fabric.set_fault_plan(config.faults);
    }
    if (config.shed) {
        fabric.enable_shedding(true);
    }
    for (size_t q = 0; q < qubits.size(); ++q) {
        qubits[q].attach_shared_service(
            &fabric.link(static_cast<size_t>(
                fabric.link_of(static_cast<int>(q)))),
            static_cast<int>(q));
    }
    LogicalFailureProbe probe(code);
    std::vector<std::array<bool, 2>> last_parity(qubits.size(),
                                                 {false, false});
    FabricStats stats;
    stats.per_link.resize(fabric.num_links());
    stats.per_tenant.resize(qubits.size());
    uint64_t shipped = 0;
    for (uint64_t cycle = 0; cycle < fleet.cycles; ++cycle) {
        const uint64_t t_loop = trace.begin();
        uint64_t offchip = 0;
        for (size_t q = 0; q < qubits.size(); ++q) {
            const uint64_t t = trace.begin();
            const CycleReport report = qubits[q].step();
            trace.end(report.queued > 0 || report.degraded > 0
                          ? Layer::StepEscalating
                          : Layer::StepQuiet,
                      t, cycle);
            offchip += report.queued > 0 ? 1 : 0;
            shipped += static_cast<uint64_t>(report.queued);
            TenantFabricStats &mine = stats.per_tenant[q];
            mine.enqueued += static_cast<uint64_t>(report.queued);
            mine.suppressed += static_cast<uint64_t>(report.suppressed);
        }
        uint64_t t = trace.begin();
        const std::vector<SharedOffchipService::Delivery> &landings =
            fabric.step();
        trace.end(Layer::FabricStep, t, cycle);
        for (const SharedOffchipService::Delivery &landing : landings) {
            const size_t owner = static_cast<size_t>(landing.owner);
            t = trace.begin();
            qubits[owner].deliver_offchip_correction(landing.half,
                                                     landing.correction);
            trace.end(Layer::Deliver, t, cycle);
            if (!landing.correction.empty()) {
                ++stats.per_tenant[owner].landed;
            }
        }
        for (const int q : fabric.migrated_now()) {
            qubits[static_cast<size_t>(q)].attach_shared_service(
                &fabric.link(static_cast<size_t>(fabric.link_of(q))), q);
        }
        stats.backlog.add(fabric.backlog());
        stats.demand.add(offchip);
        if (audit_deep()) {
            fabric.audit(shipped);
        }
        if (config.probe_interval > 0 &&
            (cycle + 1) % config.probe_interval == 0) {
            for (size_t q = 0; q < qubits.size(); ++q) {
                t = trace.begin();
                const bool parity_x =
                    probe.logical_parity(qubits[q].frame(CheckType::X));
                trace.end(Layer::Probe, t, cycle);
                t = trace.begin();
                const bool parity_z =
                    probe.logical_parity(qubits[q].frame(CheckType::Z));
                trace.end(Layer::Probe, t, cycle);
                const bool flipped = parity_x != last_parity[q][0] ||
                                     parity_z != last_parity[q][1];
                last_parity[q] = {parity_x, parity_z};
                TenantFabricStats &mine = stats.per_tenant[q];
                ++mine.probes;
                ++stats.probes;
                if (flipped) {
                    ++mine.failures;
                    ++stats.probe_failures;
                }
            }
        }
        trace.end(Layer::Loop, t_loop, cycle);
    }

    // The harness's end-of-run harvest of links and tenants.
    for (size_t k = 0; k < fabric.num_links(); ++k) {
        const SharedOffchipService &service = fabric.link(k);
        const OffchipQueue &link = service.queue();
        LinkFabricStats &mine = stats.per_link[k];
        mine.enqueued = link.enqueued();
        mine.served = link.served();
        mine.landed = link.landed();
        mine.stall_cycles = link.stall_cycles();
        mine.work_cycles = link.work_cycles();
        mine.max_backlog = link.max_backlog();
        mine.deadline_misses = service.deadline_misses();
        mine.outage_cycles = link.outage_cycles();
        mine.dropped = service.dropped();
        mine.duplicated = service.duplicated();
        mine.corrupted = service.corrupted();
        mine.shed = service.shed_requests();
        mine.canceled = service.canceled();
        mine.stale_discards = service.stale_discards();
        mine.surge_enqueued = service.surge_enqueued();
        mine.surge_landed = service.surge_landed();
        mine.delay = service.delay_histogram();
        stats.queue_delay.merge(service.delay_histogram());
        stats.batch_sizes.merge(link.batch_histogram());
        stats.stall_cycles += link.stall_cycles();
        stats.work_cycles += link.work_cycles();
        stats.max_backlog = std::max(stats.max_backlog, link.max_backlog());
        stats.enqueued += link.enqueued();
        stats.served += link.served();
        stats.landed += link.landed();
        stats.deadline_misses += service.deadline_misses();
        stats.faults.outage_cycles += link.outage_cycles();
        stats.faults.dropped += service.dropped();
        stats.faults.duplicated += service.duplicated();
        stats.faults.corrupted += service.corrupted();
        stats.faults.shed += service.shed_requests();
        stats.faults.canceled += service.canceled();
        stats.faults.stale_discards += service.stale_discards();
        stats.faults.surge_enqueued += service.surge_enqueued();
        stats.faults.surge_landed += service.surge_landed();
        const std::vector<SharedOffchipService::TenantLinkStats> &tenants =
            service.tenant_stats();
        for (size_t q = 0; q < tenants.size(); ++q) {
            TenantFabricStats &mine_t = stats.per_tenant[q];
            mine_t.deadline_misses += tenants[q].deadline_misses;
            mine_t.dropped += tenants[q].dropped;
            mine_t.shed += tenants[q].shed;
            mine_t.canceled += tenants[q].canceled;
            mine_t.delay.merge(tenants[q].delay);
        }
    }
    for (size_t q = 0; q < qubits.size(); ++q) {
        TenantFabricStats &mine = stats.per_tenant[q];
        mine.link = fabric.link_of(static_cast<int>(q));
        mine.retried = qubits[q].retried_decodes();
        mine.degraded = qubits[q].degraded_decodes();
        stats.faults.retried += mine.retried;
        stats.faults.degraded += mine.degraded;
        stats.faults.nacks += qubits[q].shared_nacks();
        stats.faults.duplicate_drops += qubits[q].duplicate_drops();
    }
    stats.faults.migrations = fabric.migrations();
    stats.pending = fabric.pending();
    for (const TenantFabricStats &mine : stats.per_tenant) {
        stats.suppressed += mine.suppressed;
    }
    const bool chaos = config.faults.enabled || config.timeout > 0 ||
                       config.retries > 0 || config.shed ||
                       config.topology.migrate_threshold > 0;
    return fabric_metrics_report(stats, chaos);
}

} // namespace perfbench
