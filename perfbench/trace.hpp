#pragma once

#include <chrono>
#include <cstdint>
#include <ctime>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic wall clock in ns. Cheap (vDSO), so it times single calls. */
inline uint64_t
wall_ns()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * CPU time of the calling thread in ns. A system call on Linux, so it
 * brackets whole runs and input chunks, never a single span.
 */
inline uint64_t
thread_cpu_ns()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<uint64_t>(ts.tv_nsec);
}

/**
 * The layer boundaries a span can sit on. `Loop` is one iteration of a
 * harness loop (a cycle or a round): the parent of every other span
 * recorded in that iteration.
 */
enum class Layer : uint8_t
{
    Loop,
    Inject,          ///< ErrorFrame::inject
    Measure,         ///< ErrorFrame::measure_packed (one round)
    ChainAllZero,    ///< decode_syndrome + classify, nothing fired
    ChainClique,     ///< ... resolved by the Clique tier
    ChainUf,         ///< ... escalated and absorbed by Union-Find
    ChainEscalated,  ///< ... escalated past every on-chip tier
    StreamWindow,    ///< push_round that completed a window decode
    StreamBuffer,    ///< push_round that only buffered the round
    StreamFlush,     ///< closing push_round + flush
    StepQuiet,       ///< BtwcSystem::step, nothing queued or degraded
    StepEscalating,  ///< BtwcSystem::step that queued or degraded
    Deliver,         ///< BtwcSystem::deliver_offchip_correction
    FabricStep,      ///< Fabric::step
    Probe,           ///< LogicalFailureProbe::logical_parity (one half)
    Count
};

constexpr int kNumLayers = static_cast<int>(Layer::Count);

/** Metric-name prefix of a layer, e.g. "surface.inject". */
const char *layer_name(Layer layer);

/** One recorded call: start, duration and the iteration that caused it. */
struct Span
{
    uint64_t start_ns = 0;
    uint32_t dur_ns = 0;
    uint32_t parent = 0;  ///< index of the enclosing Loop iteration
    Layer layer = Layer::Loop;
};

/**
 * In-memory span recorder. `begin()` reads the clock; `end()` reads it
 * again and keeps the span when its layer is enabled, so a trace that
 * enables one layer times that layer alone at the cost of a clock read
 * elsewhere.
 */
class Trace
{
  public:
    static constexpr uint32_t kAllLayers = (1u << kNumLayers) - 1;

    explicit Trace(uint32_t layer_mask = kAllLayers) : mask_(layer_mask) {}

    uint64_t begin() const { return wall_ns(); }

    void end(Layer layer, uint64_t t0, uint64_t parent)
    {
        const uint64_t t1 = wall_ns();
        if ((mask_ >> static_cast<int>(layer)) & 1u) {
            spans_.push_back(Span{t0, static_cast<uint32_t>(t1 - t0),
                                  static_cast<uint32_t>(parent), layer});
        }
    }

    void reserve(size_t spans) { spans_.reserve(spans); }
    void clear() { spans_.clear(); }
    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Write every span as a CSV row `layer,parent,start_ns,dur_ns`
     * (start relative to the first span). Returns false on I/O error.
     */
    bool write_csv(const std::string &path) const;

  private:
    uint32_t mask_;
    std::vector<Span> spans_;
};

/** Aggregate of one layer's spans. */
struct LayerStats
{
    uint64_t count = 0;
    uint64_t total_ns = 0;
    double p50_ns = 0.0;
    double p99_ns = 0.0;
};

/** Per-layer aggregates of a trace, plus the harness loop's self time. */
struct TraceSummary
{
    LayerStats layers[kNumLayers];
    /** Loop time not covered by any child span. */
    uint64_t loop_self_ns = 0;

    const LayerStats &operator[](Layer layer) const
    {
        return layers[static_cast<int>(layer)];
    }
};

TraceSummary summarize(const Trace &trace);

/** What recording one span costs, measured on empty spans. */
struct SpanCost
{
    /** Run time added per span (two clock reads plus the store). */
    double cost_ns = 0.0;
    /** Median duration an empty span records: the timer's own share of
     * every recorded duration, subtracted for the net figures. */
    double floor_ns = 0.0;
};

SpanCost calibrate_span_cost(size_t spans);

} // namespace perfbench
