// perfbench: times the library's layers from outside, through their
// public calls. See perfbench/README.md for the workloads, the metrics
// and what each per-layer metric should move.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans-out <path>]
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}; a provenance record precedes it.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "api/report.hpp"
#include "api/run.hpp"
#include "api/scenario.hpp"
#include "common/check.hpp"
#include "common/stats.hpp"
#include "decode_pass.hpp"
#include "replicas.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using btwc::Report;
using btwc::ScenarioKind;
using btwc::ScenarioSpec;

struct Workload
{
    const char *name;
    const char *why;
    /** Base spec; threads, audit, cycles and seed are appended. */
    const char *spec;
    /** Cycles of the setup_s runs: the fewest that always run every
     * decoder the workload uses, so lazily built tables count. */
    uint64_t setup_cycles;
    uint64_t repeat_cycles;  ///< per timed run_scenario repeat
    uint64_t decode_cycles;  ///< per decode-only pass
    uint64_t traced_cycles;  ///< per traced replica run
    uint64_t audit_cycles;   ///< the audit=deep pass
    Report (*replica)(const ScenarioSpec &, Trace &);
    DecodePass (*decode)(const ScenarioSpec &, const Report &, bool);
    /** Throughput and latency need separate passes (sub-us windows,
     * where per-window clock reads would inflate the throughput). */
    bool split_latency;
};

const Workload kWorkloads[] = {
    {"signature-d21",
     "Common case at the paper's Fig. 4 point: noise, extraction, Clique "
     "and UF do all the work; off-chip tiers never run.",
     "kind=lifetime,d=21,p=1e-3,tiers=clique,uf:2,mwpm,signature", 1,
     25000, 50000, 100000, 2000, &trace_signature, &decode_signature,
     true},
    // A 1-round stream runs the matcher only when that round has a
    // defect (about half the seeds); 7 rounds always do.
    {"stream-d21",
     "Worst case at the same point: every window goes through the dense "
     "blossom MWPM.",
     "kind=stream,d=21,p=1e-3,window=21,overlap=7", 7, 1500, 28000, 14000,
     2000, &trace_stream, &decode_stream, false},
    {"fabric-chaos-d5",
     "12 closed-loop pipelines on a 2-link fabric past its bandwidth "
     "under faults: BtwcSystem::step, scheduler, degradation, probe.",
     "kind=fabric,d=5,p=5e-3,policy=mwpm,fleet=12,links=2,"
     "scheduler=deadline,placement=least-loaded,hot_fraction=0.25,"
     "hot_mult=3,latency=2,bandwidth=1,deadline=8,timeout=12,retries=2,"
     "shed=true,migrate=32,faults=outage:500:60:0;spike:150:24:6;"
     "drop:0.04;dup:0.03;corrupt:0.04;surge:300:60:2:1",
     1, 2500, 5000, 20000, 2000, &trace_fabric, &decode_fabric, false},
};

/**
 * Every timing is the best of repeats of identical work (same seed,
 * same inputs). On a shared host, contention from other tenants comes
 * and goes within a run and only ever slows a repeat; the fastest
 * repeat is what stays put from run to run.
 */
constexpr double kNever = std::numeric_limits<double>::infinity();
/** Inputs (seeds drawn from --seed) of the timed run_scenario calls:
 * together they average out the content of any one input, while each
 * call stays short enough to fall between bursts of contention. */
constexpr uint64_t kRepeatInputs = 8;
/** Share of --seconds an untraced run spends before its audit pass. */
constexpr double kRunShare = 0.92;
/** Share of --seconds spent on traced/untraced pairs in a traced run. */
constexpr double kTracedShare = 0.85;
constexpr size_t kCalibrationSpans = 200000;

struct Options
{
    const Workload *workload = nullptr;
    uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string spans_out;
};

std::string
spec_text(const Workload &w, uint64_t cycles, uint64_t seed,
          const char *audit)
{
    return std::string(w.spec) + ",threads=1,audit=" + audit +
           ",cycles=" + std::to_string(cycles) +
           ",seed=" + std::to_string(seed);
}

/** Syndrome rounds a spec simulates: cycles x logical qubits. */
uint64_t
rounds_of(const ScenarioSpec &spec)
{
    const uint64_t qubits =
        spec.kind == ScenarioKind::Fabric
            ? static_cast<uint64_t>(spec.service.fleet_size)
            : 1;
    return spec.engine.cycles * qubits;
}

uint64_t
metric_uint(const Report &metrics, const std::string &key)
{
    uint64_t value = 0;
    if (!metrics.lookup_uint(key, &value)) {
        throw std::runtime_error("metrics lack " + key);
    }
    return value;
}

double
metric_or_zero(const Report &metrics, const std::string &key)
{
    double value = 0.0;
    return metrics.lookup_double(key, &value) ? value : 0.0;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** The ledgers and counted runtime checks of one run's statistics. */
void
check_ledger(const ScenarioSpec &spec, const Report &m)
{
    switch (spec.kind) {
      case ScenarioKind::Lifetime: {
        const uint64_t cycles = metric_uint(m, "cycles");
        expect(metric_uint(m, "all_zero_cycles") +
                       metric_uint(m, "trivial_cycles") +
                       metric_uint(m, "complex_cycles") ==
                   cycles,
               "cycle verdicts do not sum to cycles");
        expect(metric_uint(m, "all_zero_halves") +
                       metric_uint(m, "trivial_halves") +
                       metric_uint(m, "complex_halves") ==
                   2 * cycles,
               "half verdicts do not sum to two per cycle");
        uint64_t tiers = 0;
        for (const char *tier :
             {"clique", "union_find", "mwpm", "exact", "lut"}) {
            tiers += metric_uint(m, std::string("tier_halves.") + tier);
        }
        expect(tiers == metric_uint(m, "complex_halves"),
               "tier_halves do not sum to complex_halves");
        break;
      }
      case ScenarioKind::Stream:
        expect(metric_uint(m, "unclear_syndromes") == 0,
               "unclear_syndromes is nonzero");
        expect(metric_uint(m, "defects_in") ==
                   metric_uint(m, "defects_committed"),
               "defects_in != defects_committed");
        break;
      case ScenarioKind::Fabric: {
        uint64_t shipped = 0;
        for (int q = 0; q < spec.service.fleet_size; ++q) {
            shipped += metric_uint(
                m, "fabric.tenants.t" + std::to_string(q) + ".enqueued");
        }
        expect(metric_uint(m, "enqueued") ==
                   shipped + metric_uint(m, "faults.surge_enqueued"),
               "link enqueues != tenant escalations + surge");
        break;
      }
      default:
        throw std::runtime_error("no ledger for this scenario kind");
    }
}

/** run_scenario plus the ledger check; returns the metrics subtree. */
Report
scenario_metrics(const ScenarioSpec &spec)
{
    Report report = btwc::run_scenario(spec);
    Report metrics = std::move(report.child("metrics"));
    check_ledger(spec, metrics);
    return metrics;
}

/**
 * Failure accounting: an operation is one checked unit of work, named
 * by `what`, and the same set of them runs in every run of a workload.
 * The repeats that time an operation do not add operations, so
 * attempted and failed do not depend on how fast the host ran. An
 * operation fails if any of its repeats throws (CheckFailure
 * included). Operations that check a measured output (ledgers, repeat
 * agreement, replica identity, decode-only verification) also decide
 * `correct`; the untimed audit=deep pass counts as an operation only.
 */
class Ledger
{
  public:
    enum class Kind { OutputCheck, Audit };

    void run(const std::string &what, const std::function<void()> &op,
             Kind kind = Kind::OutputCheck)
    {
        bool &failed = failed_[what];
        try {
            op();
        } catch (const std::exception &e) {
            if (!failed) {
                std::fprintf(stderr, "perfbench: %s failed: %s\n",
                             what.c_str(), e.what());
            }
            failed = true;
            outputs_correct_ &= kind != Kind::OutputCheck;
        }
    }

    uint64_t attempted() const { return failed_.size(); }
    uint64_t failed() const
    {
        uint64_t count = 0;
        for (const auto &op : failed_) {
            count += op.second ? 1 : 0;
        }
        return count;
    }
    bool outputs_correct() const { return outputs_correct_; }

  private:
    /** Operation -> whether any of its repeats failed. */
    std::map<std::string, bool> failed_;
    bool outputs_correct_ = true;
};

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

/** Elapsed share of the run's --seconds budget. */
class Budget
{
  public:
    explicit Budget(double seconds)
        : start_(wall_ns()), budget_ns_(seconds * 1e9)
    {
    }
    double used() const
    {
        return static_cast<double>(wall_ns() - start_) / budget_ns_;
    }

  private:
    uint64_t start_;
    double budget_ns_;
};

/** The audit=deep pass: must run clean and leave every metric as it
 * is with audits off. Untimed. */
void
audit_pass(const Workload &w, uint64_t seed, Ledger &ledger)
{
    ledger.run("audit=deep pass", [&] {
        const Report deep = scenario_metrics(
            ScenarioSpec::parse(spec_text(w, w.audit_cycles, seed, "deep")));
        const Report off = scenario_metrics(
            ScenarioSpec::parse(spec_text(w, w.audit_cycles, seed, "off")));
        expect_same_metrics(deep, off, "audit=deep run");
    }, Ledger::Kind::Audit);
}

/**
 * Peak resident set of this process image in kB: VmHWM, which starts
 * afresh at exec. (getrusage's ru_maxrss would also carry the peak of
 * the process that forked this one.)
 */
double
peak_rss_kb()
{
    std::unique_ptr<FILE, int (*)(FILE *)> status(
        std::fopen("/proc/self/status", "r"), &std::fclose);
    char line[256];
    while (status && std::fgets(line, sizeof(line), status.get())) {
        unsigned long kb = 0;
        if (std::sscanf(line, "VmHWM: %lu kB", &kb) == 1) {
            return static_cast<double>(kb);
        }
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss);
}

void
refuse_unless_audits_off()
{
    if (btwc::audit_level() != btwc::AuditLevel::Off) {
        std::fprintf(stderr, "perfbench: refusing to time with audits on\n");
        std::exit(3);
    }
}

/** Keep, sample by sample, the fastest of the passes seen so far. */
void
keep_best(std::vector<double> &best, const std::vector<double> &pass)
{
    if (best.empty()) {
        best = pass;
        return;
    }
    expect(best.size() == pass.size(),
           "two passes over one spec timed different work");
    for (size_t i = 0; i < best.size(); ++i) {
        best[i] = std::min(best[i], pass[i]);
    }
}

std::vector<Metric>
run_untraced(const Options &opt, Ledger &ledger, Report &samples)
{
    const Workload &w = *opt.workload;
    const Budget budget(opt.seconds);

    // setup_s: parse the spec and build everything, in the shortest run
    // that always reaches the decoders' lazily built tables. One sample
    // after every repeat and pass spreads them over the whole run.
    const std::string setup_text =
        spec_text(w, w.setup_cycles, opt.seed, "off");
    double setup_ns = kNever;
    uint64_t setup_runs = 0;
    const auto sample_setup = [&] {
        ledger.run("setup run", [&] {
            const uint64_t t0 = wall_ns();
            scenario_metrics(ScenarioSpec::parse(setup_text));
            setup_ns =
                std::min(setup_ns, static_cast<double>(wall_ns() - t0));
            ++setup_runs;
        });
    };
    ledger.run("allocator warm-up", [&] {
        scenario_metrics(ScenarioSpec::parse(setup_text));
    });

    // sim_rounds_per_cpu_s: untraced run_scenario calls on
    // kRepeatInputs inputs drawn from the seed, round robin; each
    // input's repeats must agree, and its fastest repeat counts.
    std::vector<ScenarioSpec> inputs;
    for (uint64_t j = 0; j < kRepeatInputs; ++j) {
        inputs.push_back(ScenarioSpec::parse(spec_text(
            w, w.repeat_cycles, opt.seed * kRepeatInputs + j, "off")));
    }
    std::vector<Report> firsts(kRepeatInputs);
    std::vector<double> best_ns(kRepeatInputs, kNever);
    uint64_t repeats = 0;
    const auto repeat_once = [&] {
        const size_t j = repeats % kRepeatInputs;
        ++repeats;
        const std::string what =
            "run_scenario repeat of input " + std::to_string(j);
        ledger.run(what, [&] {
            const uint64_t t0 = thread_cpu_ns();
            Report m = scenario_metrics(inputs[j]);
            const double ns = static_cast<double>(thread_cpu_ns() - t0);
            if (firsts[j].size() == 0) {
                firsts[j] = std::move(m);
            } else {
                expect_same_metrics(m, firsts[j], "run_scenario repeat");
            }
            best_ns[j] = std::min(best_ns[j], ns);
        });
        sample_setup();
    };

    // Decode-only passes over one input, checked against run_scenario
    // on the same spec; signature alternates throughput and latency
    // passes.
    const ScenarioSpec decode_spec =
        ScenarioSpec::parse(spec_text(w, w.decode_cycles, opt.seed, "off"));
    Report reference;
    bool have_reference = false;
    std::vector<double> blocks, windows;
    uint64_t passes = 0, block_passes = 0, window_passes = 0, rounds = 0;
    const auto decode_once = [&] {
        const bool latency = w.split_latency && passes % 2 == 1;
        ++passes;
        ledger.run("decode-only pass", [&] {
            expect(have_reference, "no run_scenario reference to check");
            const DecodePass pass = w.decode(decode_spec, reference, latency);
            rounds = pass.rounds;
            if (!pass.block_ns.empty()) {
                keep_best(blocks, pass.block_ns);
                ++block_passes;
            }
            if (!pass.window_ns.empty()) {
                keep_best(windows, pass.window_ns);
                ++window_passes;
            }
        });
        sample_setup();
    };

    // Every untimed-size run_scenario call first, for peak_rss_mb: one
    // repeat of each input and the decode passes' reference.
    for (uint64_t j = 0; j < kRepeatInputs; ++j) {
        repeat_once();
    }
    ledger.run("run_scenario reference", [&] {
        reference = scenario_metrics(decode_spec);
        have_reference = true;
    });
    const double peak_rss_mb = peak_rss_kb() / 1024.0;

    // Then repeats and passes interleaved at equal shares of the time,
    // so every metric samples the whole run.
    double repeat_spent = 0.0, decode_spent = 0.0;
    while (passes < 2 || repeats < 2 * kRepeatInputs ||
           budget.used() < kRunShare) {
        const uint64_t t0 = wall_ns();
        const bool decode = passes < 2 ? repeats >= 2 * kRepeatInputs
                                       : decode_spent <= repeat_spent;
        if (decode) {
            decode_once();
        } else {
            repeat_once();
        }
        (decode ? decode_spent : repeat_spent) +=
            static_cast<double>(wall_ns() - t0);
    }
    double repeat_ns = 0.0;
    for (const double ns : best_ns) {
        repeat_ns += ns;
    }
    audit_pass(w, opt.seed, ledger);

    double decode_ns = 0.0;
    for (const double ns : blocks) {
        decode_ns += ns;
    }
    const uint64_t repeat_rounds = kRepeatInputs * rounds_of(inputs[0]);
    samples.set("setup_runs", setup_runs);
    samples.set("scenario_inputs", kRepeatInputs);
    samples.set("scenario_repeats", repeats);
    samples.set("rounds_per_input", rounds_of(inputs[0]));
    samples.set("throughput_passes", block_passes);
    samples.set("latency_passes", window_passes);
    samples.set("rounds_per_pass", rounds);
    samples.set("windows_per_pass", windows.size());
    const double successes =
        static_cast<double>(ledger.attempted() - ledger.failed());
    return {
        {"setup_s", setup_ns * 1e-9, "s"},
        {"sim_rounds_per_cpu_s",
         static_cast<double>(repeat_rounds) / (repeat_ns * 1e-9), "1/s"},
        {"decode_ns_per_round",
         ratio(decode_ns, static_cast<double>(rounds)), "ns"},
        {"window_decode_p50_us", btwc::percentile_of(windows, 0.50) * 1e-3, "us"},
        {"window_decode_p99_us", btwc::percentile_of(windows, 0.99) * 1e-3, "us"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"success_rate",
         successes / static_cast<double>(ledger.attempted()), "ratio"},
    };
}

/** The layers whose spans are long enough (>= 1 us) for percentiles. */
bool
has_percentiles(Layer layer)
{
    return layer == Layer::ChainUf || layer == Layer::ChainEscalated ||
           layer == Layer::StreamWindow || layer == Layer::FabricStep ||
           layer == Layer::Probe;
}

std::vector<Metric>
per_layer_metrics(const TraceSummary &s, const Report &m,
                  const SpanCost &cost, double overhead, double rounds)
{
    std::vector<Metric> out;
    for (int l = 1; l < kNumLayers; ++l) {
        const Layer layer = static_cast<Layer>(l);
        const LayerStats &st = s[layer];
        const std::string name = layer_name(layer);
        const double per_call = ratio(static_cast<double>(st.total_ns),
                                      static_cast<double>(st.count));
        out.push_back({name + ".count", static_cast<double>(st.count),
                       "count"});
        out.push_back({name + ".total_ns", static_cast<double>(st.total_ns),
                       "ns"});
        out.push_back({name + ".ns_per_call", per_call, "ns"});
        out.push_back({name + ".net_ns_per_call",
                       st.count > 0 ? std::max(0.0, per_call - cost.floor_ns)
                                    : 0.0,
                       "ns"});
        if (has_percentiles(layer)) {
            out.push_back({name + ".p50_ns", st.p50_ns, "ns"});
            out.push_back({name + ".p99_ns", st.p99_ns, "ns"});
        }
    }
    const auto count = [&s](Layer l) {
        return static_cast<double>(s[l].count);
    };
    const auto total = [&s](std::initializer_list<Layer> layers) {
        double ns = 0.0;
        for (const Layer l : layers) {
            ns += static_cast<double>(s[l].total_ns);
        }
        return ns;
    };
    const double uf = count(Layer::ChainUf);
    const double escalated = count(Layer::ChainEscalated);
    const double halves = count(Layer::ChainAllZero) +
                          count(Layer::ChainClique) + uf + escalated;
    out.push_back({"decoders.chain.uf_useful_ratio", ratio(uf, uf + escalated),
                   "ratio"});
    out.push_back({"decoders.chain.onchip_ratio",
                   ratio(halves - escalated, halves), "ratio"});
    out.push_back({"decoders.stream.carry_ratio",
                   ratio(metric_or_zero(m, "defects_carried"),
                         metric_or_zero(m, "defects_in")),
                   "ratio"});
    out.push_back({"matching.defects_per_window.mean",
                   metric_or_zero(m, "window_defects.mean"), "count"});
    out.push_back({"matching.defects_per_window.p99",
                   metric_or_zero(m, "window_defects.p99"), "count"});
    const struct
    {
        const char *name;
        const char *key;
    } counters[] = {
        {"fabric.enqueued", "enqueued"},   {"fabric.served", "served"},
        {"fabric.landed", "landed"},       {"fabric.shed", "faults.shed"},
        {"faults.dropped", "faults.dropped"},
        {"faults.retried", "faults.retried"},
        {"faults.migrations", "faults.migrations"},
    };
    for (const auto &c : counters) {
        out.push_back({c.name, metric_or_zero(m, c.key), "count"});
    }
    out.push_back({"fabric.useful_ratio",
                   ratio(metric_or_zero(m, "landed"),
                         metric_or_zero(m, "served")),
                   "ratio"});
    // From outside, a fabric tenant's step is simulation and on-chip
    // decode at once; its decode time is the link service it waits on.
    const double simulate =
        total({Layer::Inject, Layer::Measure, Layer::StepQuiet,
               Layer::StepEscalating});
    const double decode =
        total({Layer::ChainAllZero, Layer::ChainClique, Layer::ChainUf,
               Layer::ChainEscalated, Layer::StreamWindow,
               Layer::StreamBuffer, Layer::StreamFlush, Layer::FabricStep,
               Layer::Deliver});
    out.push_back({"sim.simulate_ns_per_round", ratio(simulate, rounds),
                   "ns"});
    out.push_back({"sim.decode_ns_per_round", ratio(decode, rounds), "ns"});
    // Of each child span's cost, all but its floor lands in the loop's
    // self time, and the loop span records its own floor.
    double children = 0.0;
    for (int l = 1; l < kNumLayers; ++l) {
        children += static_cast<double>(s.layers[l].count);
    }
    const double self = static_cast<double>(s.loop_self_ns);
    const double self_cost = children * (cost.cost_ns - cost.floor_ns) +
                             count(Layer::Loop) * cost.floor_ns;
    out.push_back({"sim.loop_self_ns_per_round", ratio(self, rounds), "ns"});
    out.push_back({"sim.loop_self_net_ns_per_round",
                   ratio(std::max(0.0, self - self_cost), rounds), "ns"});
    out.push_back({"trace.span_cost_ns", cost.cost_ns, "ns"});
    out.push_back({"trace.span_floor_ns", cost.floor_ns, "ns"});
    out.push_back({"trace.overhead_frac", overhead, "ratio"});
    return out;
}

std::vector<Metric>
run_traced(const Options &opt, Ledger &ledger, Report &samples)
{
    const Workload &w = *opt.workload;
    const Budget budget(opt.seconds);
    // Alternate untraced run_scenario calls, traced replicas of the
    // same spec and span-cost calibrations; per-layer figures come from
    // the fastest traced run.
    const ScenarioSpec spec =
        ScenarioSpec::parse(spec_text(w, w.traced_cycles, opt.seed, "off"));
    Report reference;
    bool have_reference = false;
    double untraced_ns = kNever, traced_ns = kNever;
    uint64_t traced_runs = 0;
    TraceSummary fastest;
    Trace trace;
    SpanCost cost{kNever, kNever};
    uint64_t calibrations = 0;
    for (int k = 0; k < 1 || budget.used() < kTracedShare; ++k) {
        const SpanCost c = calibrate_span_cost(kCalibrationSpans);
        cost.cost_ns = std::min(cost.cost_ns, c.cost_ns);
        cost.floor_ns = std::min(cost.floor_ns, c.floor_ns);
        ++calibrations;
        ledger.run("run_scenario repeat", [&] {
            const uint64_t t0 = thread_cpu_ns();
            Report m = scenario_metrics(spec);
            untraced_ns = std::min(
                untraced_ns, static_cast<double>(thread_cpu_ns() - t0));
            if (!have_reference) {
                reference = std::move(m);
                have_reference = true;
            } else {
                expect_same_metrics(m, reference, "run_scenario repeat");
            }
        });
        ledger.run("traced replica", [&] {
            expect(have_reference, "no run_scenario reference to check");
            trace.clear();
            const uint64_t t0 = thread_cpu_ns();
            const Report m = w.replica(spec, trace);
            const double ns = static_cast<double>(thread_cpu_ns() - t0);
            expect_same_metrics(m, reference, "traced replica");
            ++traced_runs;
            if (ns < traced_ns) {
                traced_ns = ns;
                fastest = summarize(trace);
            }
        });
    }
    if (!opt.spans_out.empty() && !trace.write_csv(opt.spans_out)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     opt.spans_out.c_str());
    }
    audit_pass(w, opt.seed, ledger);

    samples.set("traced_runs", traced_runs);
    samples.set("rounds_per_traced_run", rounds_of(spec));
    samples.set("calibration_spans", calibrations * kCalibrationSpans);
    const double overhead =
        traced_runs == 0 ? 0.0 : traced_ns / untraced_ns - 1.0;
    return per_layer_metrics(fastest, reference, cost, overhead,
                             static_cast<double>(rounds_of(spec)));
}

std::string
cpu_model()
{
#if defined(__x86_64__) || defined(__i386__)
    if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
        unsigned regs[12] = {};
        for (unsigned i = 0; i < 3; ++i) {
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        }
        char brand[sizeof(regs) + 1] = {};
        std::memcpy(brand, regs, sizeof(regs));
        std::string model(brand);
        const size_t first = model.find_first_not_of(' ');
        const size_t last = model.find_last_not_of(' ');
        return first == std::string::npos
                   ? "unknown"
                   : model.substr(first, last - first + 1);
    }
#endif
    return "unknown";
}

void
print_result(bool correct, const Ledger &ledger,
             const std::vector<Metric> &metrics)
{
    std::string line = std::string("{\"correct\": ") +
                       (correct ? "true" : "false") +
                       ", \"attempted\": " +
                       std::to_string(ledger.attempted()) +
                       ", \"failed\": " + std::to_string(ledger.failed()) +
                       ", \"metrics\": {";
    char value[64];
    for (size_t i = 0; i < metrics.size(); ++i) {
        const double v =
            std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
        std::snprintf(value, sizeof(value), "%.17g", v);
        line += (i ? ", \"" : "\"") + metrics[i].name +
                "\": {\"value\": " + value + ", \"unit\": \"" +
                metrics[i].unit + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
}

int
usage(const char *message)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--spans-out <path>]\nworkloads:",
                 message);
    for (const Workload &w : kWorkloads) {
        std::fprintf(stderr, " %s", w.name);
    }
    std::fprintf(stderr, "\n");
    return 2;
}

int
run(int argc, char **argv)
{
    Options opt;
    bool have_seed = false;
    bool have_trace = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        char *end = nullptr;
        if (flag == "--workload") {
            for (const Workload &w : kWorkloads) {
                if (value == w.name) {
                    opt.workload = &w;
                }
            }
            if (opt.workload == nullptr) {
                return usage(("unknown workload " + value).c_str());
            }
        } else if (flag == "--seed") {
            opt.seed = std::strtoull(value.c_str(), &end, 10);
            have_seed = end != value.c_str() && *end == '\0';
        } else if (flag == "--seconds") {
            opt.seconds = std::strtod(value.c_str(), &end);
        } else if (flag == "--trace") {
            opt.trace = value == "1";
            have_trace = value == "0" || value == "1";
        } else if (flag == "--spans-out") {
            opt.spans_out = value;
        } else {
            return usage(("unknown flag " + flag).c_str());
        }
    }
    if (argc % 2 == 0 || opt.workload == nullptr || !have_seed ||
        !have_trace || !(opt.seconds > 0.0)) {
        return usage("missing or malformed arguments");
    }

    // Guard rails: timings only from an optimized build, audits off.
    bool optimized = false;
#if defined(__OPTIMIZE__) && defined(NDEBUG)
    optimized = true;
#endif
    if (!optimized) {
        std::fprintf(stderr, "perfbench: refusing to time an unoptimized "
                             "build (need __OPTIMIZE__ and NDEBUG)\n");
        return 3;
    }
    const btwc::AuditLevel process_audit = btwc::audit_level();
    const btwc::ScopedAuditLevel audits_off(btwc::AuditLevel::Off);
    refuse_unless_audits_off();

    Report provenance;
    Report &run_info = provenance.child("perfbench");
    run_info.set("workload", opt.workload->name);
    run_info.set("why", opt.workload->why);
    run_info.set("spec", ScenarioSpec::parse(spec_text(
                             *opt.workload, opt.workload->repeat_cycles, opt.seed,
                             "off"))
                             .to_string());
    run_info.set("seed", opt.seed);
    run_info.set("seconds", opt.seconds);
    run_info.set("trace", opt.trace);
    Report &host = run_info.child("host");
    host.set("nproc", std::thread::hardware_concurrency());
    host.set("cpu_model", cpu_model());
    host.set("compiler", std::string(PERFBENCH_CXX_ID) + " (" + __VERSION__ +
                             ")");
    host.set("build_type", PERFBENCH_BUILD_TYPE);
    host.set("optimized", optimized);
    host.set("audit_process_default", btwc::audit_level_name(process_audit));
    host.set("audit_timed", "off");
    Report &samples = run_info.child("samples");

    Ledger ledger;
    const std::vector<Metric> metrics =
        opt.trace ? run_traced(opt, ledger, samples)
                  : run_untraced(opt, ledger, samples);
    refuse_unless_audits_off();
    std::printf("%s\n", provenance.to_json().c_str());
    print_result(ledger.outputs_correct(), ledger, metrics);
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    return perfbench::run(argc, argv);
}
