#include "trace.hpp"

#include <cstdio>
#include <memory>

#include "common/stats.hpp"

namespace perfbench {

const char *
layer_name(Layer layer)
{
    switch (layer) {
      case Layer::Loop: return "sim.loop";
      case Layer::Inject: return "surface.inject";
      case Layer::Measure: return "surface.measure";
      case Layer::ChainAllZero: return "decoders.chain.allzero";
      case Layer::ChainClique: return "decoders.chain.clique";
      case Layer::ChainUf: return "decoders.chain.uf";
      case Layer::ChainEscalated: return "decoders.chain.escalated";
      case Layer::StreamWindow: return "decoders.stream.window";
      case Layer::StreamBuffer: return "decoders.stream.buffer";
      case Layer::StreamFlush: return "decoders.stream.flush";
      case Layer::StepQuiet: return "core.system.step.quiet";
      case Layer::StepEscalating: return "core.system.step.escalating";
      case Layer::Deliver: return "core.system.deliver";
      case Layer::FabricStep: return "fabric.step";
      case Layer::Probe: return "fabric.probe";
      case Layer::Count: break;
    }
    return "unknown";
}

bool
Trace::write_csv(const std::string &path) const
{
    std::unique_ptr<FILE, int (*)(FILE *)> out(std::fopen(path.c_str(), "w"),
                                               &std::fclose);
    if (!out) {
        return false;
    }
    const uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(out.get(), "layer,parent,start_ns,dur_ns\n");
    for (const Span &span : spans_) {
        std::fprintf(out.get(), "%s,%u,%llu,%u\n", layer_name(span.layer),
                     span.parent,
                     static_cast<unsigned long long>(span.start_ns - origin),
                     span.dur_ns);
    }
    return std::ferror(out.get()) == 0;
}

TraceSummary
summarize(const Trace &trace)
{
    TraceSummary summary;
    std::vector<double> durations[kNumLayers];
    uint64_t child_ns = 0;
    for (const Span &span : trace.spans()) {
        const int l = static_cast<int>(span.layer);
        ++summary.layers[l].count;
        summary.layers[l].total_ns += span.dur_ns;
        durations[l].push_back(static_cast<double>(span.dur_ns));
        if (span.layer != Layer::Loop) {
            child_ns += span.dur_ns;
        }
    }
    const uint64_t loop_ns = summary[Layer::Loop].total_ns;
    summary.loop_self_ns = loop_ns > child_ns ? loop_ns - child_ns : 0;
    for (int l = 0; l < kNumLayers; ++l) {
        summary.layers[l].p50_ns = btwc::percentile_of(durations[l], 0.50);
        summary.layers[l].p99_ns = btwc::percentile_of(durations[l], 0.99);
    }
    return summary;
}

SpanCost
calibrate_span_cost(size_t spans)
{
    Trace trace;
    trace.reserve(spans);
    const uint64_t t0 = thread_cpu_ns();
    for (size_t i = 0; i < spans; ++i) {
        trace.end(Layer::Loop, trace.begin(), i);
    }
    const uint64_t t1 = thread_cpu_ns();
    std::vector<double> recorded;
    recorded.reserve(spans);
    for (const Span &span : trace.spans()) {
        recorded.push_back(static_cast<double>(span.dur_ns));
    }
    SpanCost cost;
    cost.cost_ns = spans == 0 ? 0.0
                              : static_cast<double>(t1 - t0) /
                                    static_cast<double>(spans);
    cost.floor_ns = btwc::percentile_of(std::move(recorded), 0.50);
    return cost;
}

} // namespace perfbench
