#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/report.hpp"
#include "api/scenario.hpp"

namespace perfbench {

/**
 * What a decode-only pass measured. Passes over the same spec decode
 * identical inputs in identical order, so the i-th sample of two passes
 * times the same work: the caller keeps each sample's best over passes.
 */
struct DecodePass
{
    uint64_t rounds = 0;  ///< syndrome rounds decoded
    /** Decoder time of each consecutive block of rounds (throughput). */
    std::vector<double> block_ns;
    /** Latency of each completed decode window, in order. */
    std::vector<double> window_ns;
};

/*
 * Decode-only passes. The inputs are generated from the spec's seed
 * with the harness's RNG order, a bounded chunk at a time, and only
 * the decoder calls are timed. Every pass checks the decoder's output
 * against `reference`, the `metrics` subtree run_scenario reported for
 * the same spec, and throws std::runtime_error on a mismatch.
 */

/**
 * kind=lifetime signature mode: the on-chip chain walk of both halves.
 * A window is one cycle's two half-decodes. Its decodes are too short
 * to time one by one without inflating the total, so a pass measures
 * either throughput (`latency` false: blocks timed with the thread-CPU
 * clock) or latency (each window timed with the wall clock).
 */
DecodePass decode_signature(const btwc::ScenarioSpec &spec,
                            const btwc::Report &reference, bool latency);

/**
 * kind=stream: push_round for every round plus the closing round and
 * flush, in thread-CPU blocks. A window is a push_round call that
 * completed a window decode, timed with the wall clock in the same
 * pass (the clock reads are well under 1% of a round's decode), so
 * `latency` is ignored.
 */
DecodePass decode_stream(const btwc::ScenarioSpec &spec,
                         const btwc::Report &reference, bool latency);

/**
 * kind=fabric: corrections feed back into the fleet's inputs, so there
 * is nothing to pre-generate. The pass runs the harness replica with
 * only Fabric::step timed (the link service, where the fabric's MWPM
 * decodes run). A window and a block are one Fabric::step call; a
 * round is one tenant-cycle. `latency` is ignored.
 */
DecodePass decode_fabric(const btwc::ScenarioSpec &spec,
                         const btwc::Report &reference, bool latency);

/** Throw std::runtime_error(what) unless `ok`. */
void expect(bool ok, const std::string &what);

/** Throw std::runtime_error naming the first leaf where the two
 * reports differ, if they differ. */
void expect_same_metrics(const btwc::Report &actual,
                         const btwc::Report &expected, const char *what);

} // namespace perfbench
