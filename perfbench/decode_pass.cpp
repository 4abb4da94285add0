#include "decode_pass.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "api/run.hpp"
#include "core/system.hpp"
#include "decoders/stream_window.hpp"
#include "decoders/tier_chain.hpp"
#include "replicas.hpp"
#include "sim/lifetime.hpp"
#include "sim/stream.hpp"
#include "surface/frame.hpp"
#include "surface/lattice.hpp"
#include "surface/packed.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace btwc;

namespace {

/** Inputs generated per chunk: bounds the pass's memory. */
constexpr uint64_t kChunkRounds = 8192;
/** Rounds per timed block: short enough that host contention, which
 * comes and goes over tens of milliseconds, spares some passes' copy
 * of each block; long enough that the clock reads cost under 1%. */
constexpr size_t kSignatureBlock = 1024;
constexpr size_t kStreamBlock = 64;

uint64_t
reference_uint(const Report &reference, const std::string &key)
{
    uint64_t value = 0;
    expect(reference.lookup_uint(key, &value),
           "reference metrics lack " + key);
    return value;
}

} // namespace

void
expect(bool ok, const std::string &what)
{
    if (!ok) {
        throw std::runtime_error(what);
    }
}

void
expect_same_metrics(const Report &actual, const Report &expected,
                    const char *what)
{
    const auto a = actual.flat();
    const auto b = expected.flat();
    for (size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
        if (i >= a.size() || i >= b.size() || a[i] != b[i]) {
            const std::string key = i < b.size() ? b[i].first : a[i].first;
            throw std::runtime_error(std::string(what) +
                                     " differs from run_scenario at " + key);
        }
    }
}

DecodePass
decode_signature(const ScenarioSpec &spec, const Report &reference,
                 bool latency)
{
    const LifetimeConfig config = spec.to_lifetime_config();
    expect(config.mode == LifetimeMode::Signature && config.threads == 1,
           "decode_signature needs a single-shard signature spec");
    const RotatedSurfaceCode code(config.distance);
    Rng rng(config.seed);
    ErrorFrame frames[2] = {ErrorFrame(code, CheckType::X),
                            ErrorFrame(code, CheckType::Z)};
    TierChain chains[2] = {
        TierChain(code, detector_of_error(CheckType::X), config.tiers),
        TierChain(code, detector_of_error(CheckType::Z), config.tiers)};
    TierChain::Result outs[2];
    TierChain::Options options;
    options.stop_before_offchip = true;
    const double p_meas = config.meas_probability();

    // Two inputs per cycle (X then Z half, the harness order); one
    // outcome byte each, tallied outside the timed region.
    std::vector<PackedSyndrome> inputs(2 * kChunkRounds);
    std::vector<uint8_t> outcomes(2 * kChunkRounds);
    PackedSyndrome round;
    LifetimeStats tally;

    DecodePass pass;
    pass.rounds = config.cycles;
    if (latency) {
        pass.window_ns.reserve(static_cast<size_t>(config.cycles));
    }
    for (uint64_t done = 0; done < config.cycles;) {
        const size_t n = static_cast<size_t>(
            std::min(kChunkRounds, config.cycles - done));
        for (size_t i = 0; i < 2 * n; ++i) {
            ErrorFrame &frame = frames[i & 1];
            frame.reset();
            frame.inject(config.p, rng);
            for (int r = 0; r < config.filter_rounds; ++r) {
                frame.measure_packed(p_meas, rng, round);
                if (r == 0) {
                    inputs[i] = round;
                } else {
                    inputs[i] &= round;
                }
            }
        }
        const auto decode = [&](size_t i) {
            TierChain::Result &out = outs[i & 1];
            chains[i & 1].decode_syndrome(inputs[i], options, out);
            outcomes[i] = static_cast<uint8_t>(
                static_cast<int>(classify_decode(out)) |
                static_cast<int>(out.tier) << 2 | (out.offchip ? 0x80 : 0));
        };
        if (latency) {
            for (size_t c = 0; c < n; ++c) {
                const uint64_t t0 = wall_ns();
                decode(2 * c);
                decode(2 * c + 1);
                pass.window_ns.push_back(
                    static_cast<double>(wall_ns() - t0));
            }
        } else {
            for (size_t b = 0; b < n; b += kSignatureBlock) {
                const size_t end = std::min(n, b + kSignatureBlock);
                const uint64_t t0 = thread_cpu_ns();
                for (size_t i = 2 * b; i < 2 * end; ++i) {
                    decode(i);
                }
                pass.block_ns.push_back(
                    static_cast<double>(thread_cpu_ns() - t0));
            }
        }
        for (size_t i = 0; i < 2 * n; ++i) {
            const uint8_t o = outcomes[i];
            switch (static_cast<CliqueVerdict>(o & 0x3)) {
              case CliqueVerdict::AllZeros:
                ++tally.all_zero_halves;
                break;
              case CliqueVerdict::Trivial:
                ++tally.trivial_halves;
                break;
              case CliqueVerdict::Complex:
                ++tally.complex_halves;
                ++tally.tier_halves[(o >> 2) & 0x7];
                tally.offchip_halves += (o & 0x80) ? 1 : 0;
                break;
            }
        }
        done += n;
    }

    // The decoder's verdict and per-tier counts must be the harness's.
    const Report got = lifetime_metrics_report(tally);
    for (const char *key :
         {"all_zero_halves", "trivial_halves", "complex_halves",
          "offchip_halves", "tier_halves.clique", "tier_halves.union_find",
          "tier_halves.mwpm", "tier_halves.exact", "tier_halves.lut"}) {
        expect(reference_uint(got, key) == reference_uint(reference, key),
               std::string("decode-only pass: ") + key +
                   " differs from run_scenario");
    }
    return pass;
}

DecodePass
decode_stream(const ScenarioSpec &spec, const Report &reference, bool)
{
    const StreamConfig config = spec.to_stream_config();
    expect(config.threads == 1, "decode_stream needs a single-shard spec");
    const RotatedSurfaceCode code(config.distance);
    const CheckType detector = detector_of_error(config.error_type);
    StreamWindowConfig window_config;
    window_config.window = config.window;
    window_config.overlap = config.overlap;
    window_config.screen = stream_screen_tiers(config.tiers);
    StreamWindowDecoder decoder(code, detector, window_config);
    ErrorFrame frame(code, config.error_type);
    Rng rng(config.seed);
    const double p_meas = config.meas_probability();

    std::vector<PackedSyndrome> inputs(kChunkRounds);
    DecodePass pass;
    pass.rounds = config.rounds;
    pass.window_ns.reserve(static_cast<size_t>(
        config.rounds / static_cast<uint64_t>(window_config.commit_rounds()) +
        2));
    for (uint64_t done = 0; done < config.rounds;) {
        const size_t n = static_cast<size_t>(
            std::min(kChunkRounds, config.rounds - done));
        for (size_t i = 0; i < n; ++i) {
            frame.inject(config.p, rng);
            frame.measure_packed(p_meas, rng, inputs[i]);
        }
        for (size_t b = 0; b < n; b += kStreamBlock) {
            const size_t end = std::min(n, b + kStreamBlock);
            const uint64_t t0 = thread_cpu_ns();
            for (size_t i = b; i < end; ++i) {
                const uint64_t windows = decoder.stats().windows;
                const uint64_t w0 = wall_ns();
                decoder.push_round(inputs[i]);
                const uint64_t w1 = wall_ns();
                if (decoder.stats().windows != windows) {
                    pass.window_ns.push_back(static_cast<double>(w1 - w0));
                }
            }
            pass.block_ns.push_back(
                static_cast<double>(thread_cpu_ns() - t0));
        }
        done += n;
    }
    std::vector<uint8_t> perfect;
    frame.measure_perfect(perfect);
    PackedSyndrome closing(code.num_checks(detector));
    closing.from_bytes(perfect);
    const uint64_t t0 = thread_cpu_ns();
    decoder.push_round(closing);
    decoder.flush();
    pass.block_ns.push_back(static_cast<double>(thread_cpu_ns() - t0));
    frame.apply_packed(decoder.committed_correction());

    // The committed correction clears the stream, the ledger balances,
    // and the decoder's statistics and logical outcome are the
    // harness's.
    const StreamWindowStats &stats = decoder.stats();
    expect(frame.syndrome_clear(),
           "decode-only pass: committed correction leaves a syndrome");
    expect(stats.defects_in == stats.defects_committed,
           "decode-only pass: defects_in != defects_committed");
    expect((frame.logical_flipped() ? 1u : 0u) ==
               reference_uint(reference, "logical_failures"),
           "decode-only pass: logical outcome differs from run_scenario");
    StreamStats got;
    got.window = stats;
    got.streams = 1;
    got.logical_failures = frame.logical_flipped() ? 1 : 0;
    expect_same_metrics(stream_metrics_report(got), reference,
                        "decode-only stream statistics");
    return pass;
}

DecodePass
decode_fabric(const ScenarioSpec &spec, const Report &reference, bool)
{
    Trace trace(1u << static_cast<int>(Layer::FabricStep));
    trace.reserve(static_cast<size_t>(spec.engine.cycles));
    expect_same_metrics(trace_fabric(spec, trace), reference,
                        "fabric replica");
    DecodePass pass;
    pass.rounds = spec.engine.cycles *
                  static_cast<uint64_t>(spec.service.fleet_size);
    pass.window_ns.reserve(trace.spans().size());
    for (const Span &span : trace.spans()) {
        pass.window_ns.push_back(static_cast<double>(span.dur_ns));
    }
    pass.block_ns = pass.window_ns;
    return pass;
}

} // namespace perfbench
