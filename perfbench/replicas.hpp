#pragma once

#include "api/report.hpp"
#include "api/scenario.hpp"
#include "trace.hpp"

namespace perfbench {

/*
 * Traced replicas of the harness loops behind run_scenario. Each one
 * makes the harness's public calls in the harness's own order, with a
 * span around every call, and returns the `metrics` subtree
 * run_scenario reports for the same spec. The caller compares the two
 * bit-exactly, so a harness change a replica misses fails the
 * benchmark instead of being mis-attributed.
 *
 * Single-shard specs (threads=1) only: that is the shard whose seed is
 * the spec's own.
 */

/** run_signature (sim/lifetime.cpp): kind=lifetime, signature mode. */
btwc::Report trace_signature(const btwc::ScenarioSpec &spec, Trace &trace);

/** run_stream_shard (sim/stream.cpp): kind=stream. */
btwc::Report trace_stream(const btwc::ScenarioSpec &spec, Trace &trace);

/** run_fabric (fabric/harness.cpp): kind=fabric, uniform distance. */
btwc::Report trace_fabric(const btwc::ScenarioSpec &spec, Trace &trace);

} // namespace perfbench
