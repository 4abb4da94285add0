#include "api/scenario.hpp"

#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "api/report.hpp"
#include "common/check.hpp"
#include "common/parse.hpp"

namespace btwc {

const char *
scenario_kind_name(ScenarioKind kind)
{
    switch (kind) {
      case ScenarioKind::Lifetime:
        return "lifetime";
      case ScenarioKind::Memory:
        return "memory";
      case ScenarioKind::Fleet:
        return "fleet";
      case ScenarioKind::ExactFleet:
        return "exact-fleet";
      case ScenarioKind::Stream:
        return "stream";
      case ScenarioKind::Fabric:
        return "fabric";
    }
    return "?";
}

std::string
tiers_spec_string(const TierChainConfig &config)
{
    std::string out;
    for (const TierSpec &tier : config.tiers) {
        if (!out.empty()) {
            out += ',';
        }
        switch (tier.kind) {
          case DecoderTier::Clique:
            out += "clique";
            break;
          case DecoderTier::UnionFind:
            out += "uf";
            break;
          case DecoderTier::Mwpm:
            out += "mwpm";
            break;
          case DecoderTier::Exact:
            out += "exact";
            break;
          case DecoderTier::Lut:
            out += "lut";
            break;
          case DecoderTier::Stream:
            out += "stream";
            break;
        }
        // Union-Find thresholds are always explicit (a bare "uf" would
        // re-parse under the caller's uf_threshold default); the other
        // tiers default to -1 (never escalate on effort).
        if (tier.kind == DecoderTier::UnionFind ||
            tier.escalation_threshold != -1) {
            out += ':';
            out += std::to_string(tier.escalation_threshold);
        }
    }
    return out;
}

namespace {

void
set_error(std::string *error, const std::string &message)
{
    if (error != nullptr) {
        *error = message;
    }
}

/**
 * Field setters shared by the grammar parser and `apply_flags`, so
 * validation can never diverge between the two entry points. Each
 * returns false with a diagnostic on a bad value.
 */
struct SpecBuilder
{
    ScenarioSpec spec;
    int uf_threshold = 2;  ///< default for bare "uf" tiers
    bool uf_threshold_set = false;
    std::string tiers_value;
    bool tiers_set = false;

    bool kind(const std::string &v, std::string *error)
    {
        if (v == "lifetime") {
            spec.kind = ScenarioKind::Lifetime;
        } else if (v == "memory") {
            spec.kind = ScenarioKind::Memory;
        } else if (v == "fleet") {
            spec.kind = ScenarioKind::Fleet;
        } else if (v == "exact-fleet" || v == "exact_fleet" ||
                   v == "exactfleet") {
            spec.kind = ScenarioKind::ExactFleet;
        } else if (v == "stream") {
            spec.kind = ScenarioKind::Stream;
        } else if (v == "fabric") {
            spec.kind = ScenarioKind::Fabric;
        } else {
            set_error(error, "unknown scenario kind '" + v +
                                 "'; expected lifetime | memory | "
                                 "fleet | exact-fleet | stream | "
                                 "fabric");
            return false;
        }
        return true;
    }

    bool distance(const std::string &v, std::string *error)
    {
        int64_t d = 0;
        if (!parse_i64(v, &d) || d < 3) {
            set_error(error, "bad distance '" + v +
                                 "'; expected an integer >= 3");
            return false;
        }
        spec.code.distance = static_cast<int>(d);
        return true;
    }

    bool probability(const char *key, const std::string &v, double *out,
                     std::string *error)
    {
        double p = 0.0;
        // Negated-range form so NaN (which fails every comparison)
        // is rejected too.
        if (!parse_f64(v, &p) || !(p >= 0.0 && p <= 1.0)) {
            set_error(error, std::string("bad ") + key + " '" + v +
                                 "'; expected a probability in [0, 1]");
            return false;
        }
        *out = p;
        return true;
    }

    bool p_meas(const std::string &v, std::string *error)
    {
        double p = 0.0;
        if (!parse_f64(v, &p) || std::isnan(p) || p > 1.0) {
            set_error(error, "bad p_meas '" + v +
                                 "'; expected a probability in [0, 1] "
                                 "(negative = use p)");
            return false;
        }
        spec.code.p_meas = p;
        return true;
    }

    bool positive_int(const char *key, const std::string &v, int *out,
                      std::string *error)
    {
        int64_t n = 0;
        if (!parse_i64(v, &n) || n < 1) {
            set_error(error, std::string("bad ") + key + " '" + v +
                                 "'; expected an integer >= 1");
            return false;
        }
        *out = static_cast<int>(n);
        return true;
    }

    bool u64(const char *key, const std::string &v, uint64_t *out,
             std::string *error)
    {
        int64_t n = 0;
        if (!parse_i64(v, &n) || n < 0) {
            set_error(error, std::string("bad ") + key + " '" + v +
                                 "'; expected a non-negative integer");
            return false;
        }
        *out = static_cast<uint64_t>(n);
        return true;
    }

    bool error_type(const std::string &v, std::string *error)
    {
        if (v == "x" || v == "X") {
            spec.code.error_type = CheckType::X;
        } else if (v == "z" || v == "Z") {
            spec.code.error_type = CheckType::Z;
        } else {
            set_error(error, "bad error_type '" + v +
                                 "'; expected x | z");
            return false;
        }
        return true;
    }

    bool mode(const std::string &v, std::string *error)
    {
        if (v == "signature") {
            spec.mode = LifetimeMode::Signature;
        } else if (v == "pipeline") {
            spec.mode = LifetimeMode::Pipeline;
        } else {
            set_error(error, "bad mode '" + v +
                                 "'; expected signature | pipeline");
            return false;
        }
        return true;
    }

    bool policy(const std::string &v, std::string *error)
    {
        if (v == "oracle") {
            spec.service.policy = OffchipPolicy::Oracle;
        } else if (v == "mwpm" || v == "real") {
            spec.service.policy = OffchipPolicy::Mwpm;
        } else {
            set_error(error, "bad policy '" + v +
                                 "'; expected oracle | mwpm");
            return false;
        }
        return true;
    }

    bool arm(const std::string &v, std::string *error)
    {
        if (v == "mwpm") {
            spec.arm = DecoderArm::MwpmOnly;
        } else if (v == "clique" || v == "clique+mwpm") {
            spec.arm = DecoderArm::CliqueMwpm;
        } else if (v == "uf" || v == "union-find") {
            spec.arm = DecoderArm::UnionFindOnly;
        } else {
            set_error(error, "bad arm '" + v +
                                 "'; expected mwpm | clique | uf");
            return false;
        }
        return true;
    }

    bool boolean(const char *key, const std::string &v, bool *out,
                 std::string *error)
    {
        if (!parse_bool(v, out)) {
            set_error(error, std::string("bad ") + key + " '" + v +
                                 "'; expected a boolean");
            return false;
        }
        return true;
    }

    bool fraction(const char *key, const std::string &v, double *out,
                  std::string *error)
    {
        return probability(key, v, out, error);
    }

    bool non_negative_double(const char *key, const std::string &v,
                             double *out, std::string *error)
    {
        double d = 0.0;
        if (!parse_f64(v, &d) || !(d >= 0.0)) {
            set_error(error, std::string("bad ") + key + " '" + v +
                                 "'; expected a non-negative number");
            return false;
        }
        *out = d;
        return true;
    }

    bool threads(const std::string &v, std::string *error)
    {
        int64_t n = 0;
        if (!parse_i64(v, &n)) {
            set_error(error, "bad threads '" + v +
                                 "'; expected an integer (0 = all "
                                 "hardware threads)");
            return false;
        }
        spec.engine.threads = n < 0 ? 0 : static_cast<int>(n);
        return true;
    }

    /** Resolve the accumulated tier spec (must run after parsing). */
    bool finish_tiers(std::string *error)
    {
        if (!tiers_set) {
            // No new tier list, but an explicit uf_threshold still
            // re-thresholds the already-resolved chain's Union-Find
            // tiers (e.g. `btwc_run deep-chain --uf_threshold 5`) —
            // an accepted override must never be silently dropped.
            if (uf_threshold_set) {
                for (TierSpec &tier : spec.tiers.tiers) {
                    if (tier.kind == DecoderTier::UnionFind) {
                        tier.escalation_threshold = uf_threshold;
                    }
                }
            }
            return true;
        }
        TierChainConfig config;
        std::string tier_error;
        if (!TierChainConfig::try_parse(tiers_value, uf_threshold,
                                        &config, &tier_error)) {
            set_error(error, "tiers: " + tier_error);
            return false;
        }
        spec.tiers = config;
        return true;
    }
};

/** True if `token` (e.g. "uf:3") names a tier of the --tiers grammar. */
bool
is_tier_token(const std::string &token)
{
    std::string name = token;
    const size_t colon = token.find(':');
    if (colon != std::string::npos) {
        int64_t threshold = 0;
        if (!parse_i64(token.substr(colon + 1), &threshold)) {
            return false;
        }
        name = token.substr(0, colon);
    }
    return name == "clique" || name == "uf" || name == "union-find" ||
           name == "unionfind" || name == "mwpm" || name == "matching" ||
           name == "exact" || name == "lut" || name == "stream";
}

/**
 * Flag spellings `apply_flags` feeds through the grammar's `apply_key`
 * validation. Every spec-grammar key has its own-name spelling here
 * (so an override can be copied straight off a printed spec string)
 * next to the historical CLI spelling; when both are present the
 * later row wins.
 */
const struct FlagKeyMapping
{
    const char *flag;
    const char *key;
} kFlagKeyMappings[] = {
    {"kind", "kind"},
    {"d", "d"},                 {"distance", "d"},
    {"p", "p"},                 {"p_meas", "p_meas"},
    {"filter", "filter"},       {"filter_rounds", "filter"},
    {"rounds", "rounds"},       {"error_type", "error_type"},
    {"uf_threshold", "uf_threshold"},
    {"mode", "mode"},           {"policy", "policy"},
    {"arm", "arm"},
    {"latency", "latency"},     {"offchip-latency", "latency"},
    {"offchip-bandwidth", "bandwidth"},
    {"bandwidth", "bandwidth"}, {"batch", "batch"},
    {"fleet", "fleet"},         {"fleet-size", "fleet"},
    {"qubits", "qubits"},       {"q", "q"},
    {"hot_fraction", "hot_fraction"}, {"hot-fraction", "hot_fraction"},
    {"hot_mult", "hot_mult"},   {"hot-mult", "hot_mult"},
    {"links", "links"},         {"scheduler", "scheduler"},
    {"placement", "placement"}, {"deadline", "deadline"},
    {"faults", "faults"},       {"timeout", "timeout"},
    {"retries", "retries"},     {"migrate", "migrate"},
    {"window", "window"},       {"overlap", "overlap"},
    {"cycles", "cycles"},       {"trials", "trials"},
    {"failures", "failures"},   {"threads", "threads"},
    {"seed", "seed"},           {"audit", "audit"},
};

/** Boolean / shortcut flags with their own historical spellings. */
const char *const kBoolFlagSpellings[] = {
    "weighted", "shared", "shared-link", "pipeline", "real_offchip",
    "shed",
};

/** Dispatch one `key=value` token into the builder. */
bool
apply_key(SpecBuilder &builder, const std::string &key,
          const std::string &value, std::string *error)
{
    ScenarioSpec &spec = builder.spec;
    if (key == "kind") {
        return builder.kind(value, error);
    }
    if (key == "d" || key == "distance") {
        return builder.distance(value, error);
    }
    if (key == "p") {
        return builder.probability("p", value, &spec.code.p, error);
    }
    if (key == "p_meas") {
        return builder.p_meas(value, error);
    }
    if (key == "filter" || key == "filter_rounds") {
        return builder.positive_int("filter", value,
                                    &spec.code.filter_rounds, error);
    }
    if (key == "rounds") {
        int64_t n = 0;
        if (!parse_i64(value, &n) || n < 0) {
            set_error(error, "bad rounds '" + value +
                                 "'; expected an integer >= 0 (0 = d)");
            return false;
        }
        spec.code.rounds = static_cast<int>(n);
        return true;
    }
    if (key == "error_type") {
        return builder.error_type(value, error);
    }
    if (key == "tiers") {
        builder.tiers_value = value;
        builder.tiers_set = true;
        return true;
    }
    if (key == "uf_threshold") {
        int64_t n = 0;
        if (!parse_i64(value, &n)) {
            set_error(error, "bad uf_threshold '" + value +
                                 "'; expected an integer");
            return false;
        }
        builder.uf_threshold = static_cast<int>(n);
        builder.uf_threshold_set = true;
        return true;
    }
    if (key == "mode") {
        return builder.mode(value, error);
    }
    if (key == "policy") {
        return builder.policy(value, error);
    }
    if (key == "arm") {
        return builder.arm(value, error);
    }
    if (key == "weighted") {
        return builder.boolean("weighted", value,
                               &spec.weighted_matching, error);
    }
    if (key == "latency") {
        return builder.u64("latency", value, &spec.service.latency,
                           error);
    }
    if (key == "bandwidth") {
        return builder.u64("bandwidth", value, &spec.service.bandwidth,
                           error);
    }
    if (key == "batch") {
        return builder.u64("batch", value, &spec.service.batch, error);
    }
    if (key == "shared") {
        return builder.boolean("shared", value,
                               &spec.service.shared_link, error);
    }
    if (key == "fleet" || key == "fleet_size") {
        return builder.positive_int("fleet", value,
                                    &spec.service.fleet_size, error);
    }
    if (key == "qubits") {
        return builder.positive_int("qubits", value,
                                    &spec.service.num_qubits, error);
    }
    if (key == "q") {
        return builder.probability("q", value,
                                   &spec.service.offchip_prob, error);
    }
    if (key == "hot_fraction" || key == "hot-fraction") {
        return builder.fraction("hot_fraction", value,
                                &spec.service.hot_fraction, error);
    }
    if (key == "hot_mult" || key == "hot-mult") {
        return builder.non_negative_double(
            "hot_mult", value, &spec.service.hot_mult, error);
    }
    if (key == "links") {
        return builder.positive_int("links", value, &spec.service.links,
                                    error);
    }
    if (key == "scheduler") {
        if (!parse_scheduler_kind(value, &spec.service.scheduler)) {
            set_error(error, "bad scheduler '" + value +
                                 "'; expected fifo | priority | "
                                 "deadline | wfq");
            return false;
        }
        return true;
    }
    if (key == "placement") {
        if (!parse_placement_kind(value, &spec.service.placement)) {
            set_error(error, "bad placement '" + value +
                                 "'; expected hash | least-loaded | "
                                 "isolate");
            return false;
        }
        return true;
    }
    if (key == "deadline") {
        return builder.u64("deadline", value, &spec.service.deadline,
                           error);
    }
    if (key == "faults") {
        std::string plan_error;
        if (!FaultPlan::try_parse(value, &spec.service.faults,
                                  &plan_error)) {
            set_error(error, "faults: " + plan_error);
            return false;
        }
        return true;
    }
    if (key == "timeout") {
        return builder.u64("timeout", value, &spec.service.timeout,
                           error);
    }
    if (key == "retries") {
        int64_t n = 0;
        if (!parse_i64(value, &n) || n < 0) {
            set_error(error, "bad retries '" + value +
                                 "'; expected an integer >= 0");
            return false;
        }
        spec.service.retries = static_cast<int>(n);
        return true;
    }
    if (key == "shed") {
        return builder.boolean("shed", value, &spec.service.shed, error);
    }
    if (key == "migrate") {
        return builder.u64("migrate", value, &spec.service.migrate,
                           error);
    }
    if (key == "window") {
        return builder.positive_int("window", value, &spec.stream.window,
                                    error);
    }
    if (key == "overlap") {
        int64_t n = 0;
        if (!parse_i64(value, &n) || n < 0) {
            set_error(error, "bad overlap '" + value +
                                 "'; expected an integer >= 0 smaller "
                                 "than window");
            return false;
        }
        spec.stream.overlap = static_cast<int>(n);
        return true;
    }
    if (key == "cycles") {
        return builder.u64("cycles", value, &spec.engine.cycles, error);
    }
    if (key == "trials") {
        return builder.u64("trials", value, &spec.engine.trials, error);
    }
    if (key == "failures") {
        return builder.u64("failures", value,
                           &spec.engine.target_failures, error);
    }
    if (key == "threads") {
        return builder.threads(value, error);
    }
    if (key == "seed") {
        return builder.u64("seed", value, &spec.engine.seed, error);
    }
    if (key == "audit") {
        AuditLevel level = AuditLevel::Off;
        if (!parse_audit_level(value, &level)) {
            set_error(error, "bad audit '" + value +
                                 "'; expected off | basic | deep");
            return false;
        }
        spec.engine.audit = static_cast<int>(level);
        return true;
    }
    set_error(error, "unknown scenario key '" + key +
                         "' (see src/api/README.md for the grammar)");
    return false;
}

/**
 * Cross-field validation shared by `try_parse` and `apply_flags`: the
 * code distance, stream window geometry and the stream-tier placement
 * rules. Keeping it here (not only in the harness) turns a
 * mis-specified scenario into a parse-time diagnostic instead of a
 * CheckFailure mid-run.
 */
bool
validate_spec(const ScenarioSpec &spec, std::string *error)
{
    if (spec.code.distance < 3 || spec.code.distance % 2 == 0) {
        set_error(error, "bad distance " +
                             std::to_string(spec.code.distance) +
                             "; a rotated surface code needs an odd "
                             "distance >= 3");
        return false;
    }
    if (spec.kind != ScenarioKind::Fabric) {
        const ScenarioSpec defaults;
        if (spec.service.links != defaults.service.links ||
            spec.service.scheduler != defaults.service.scheduler ||
            spec.service.placement != defaults.service.placement ||
            spec.service.deadline != defaults.service.deadline) {
            set_error(error,
                      "links= / scheduler= / placement= / deadline= "
                      "are only valid in kind=fabric scenarios (the "
                      "decode fabric); add the bare token 'fabric'");
            return false;
        }
        if (spec.service.timeout != defaults.service.timeout ||
            spec.service.retries != defaults.service.retries ||
            spec.service.shed != defaults.service.shed ||
            spec.service.migrate != defaults.service.migrate) {
            set_error(error,
                      "timeout= / retries= / shed= / migrate= are only "
                      "valid in kind=fabric scenarios (the graceful-"
                      "degradation knobs of the decode fabric); add "
                      "the bare token 'fabric'");
            return false;
        }
    }
    if (spec.kind != ScenarioKind::Memory) {
        // Only the memory experiment reads a decoder arm, a trial cap
        // and a failure target; elsewhere they would be ignored.
        const ScenarioSpec defaults;
        if (spec.arm != defaults.arm ||
            spec.engine.trials != defaults.engine.trials ||
            spec.engine.target_failures !=
                defaults.engine.target_failures) {
            set_error(error,
                      "arm= / trials= / failures= are only valid in "
                      "kind=memory scenarios (the memory experiment's "
                      "decoder arm, trial cap and failure target)");
            return false;
        }
    }
    if (spec.weighted_matching) {
        // Only the memory experiment decodes with log-likelihood
        // weights, and ln((1-p)/p) needs both probabilities in (0, 1).
        if (spec.kind != ScenarioKind::Memory) {
            set_error(error,
                      "weighted is only valid in kind=memory scenarios "
                      "(log-likelihood matching weights); other kinds "
                      "decode with unit weights");
            return false;
        }
        const double p = spec.code.p;
        const double p_meas = spec.code.p_meas < 0.0 ? p : spec.code.p_meas;
        if (!(p > 0.0 && p < 1.0 && p_meas > 0.0 && p_meas < 1.0)) {
            set_error(error,
                      "weighted needs 0 < p < 1 and 0 < p_meas < 1 "
                      "(log-likelihood weights are undefined at 0 and "
                      "1); got p=" + format_double(p) +
                          ", p_meas=" + format_double(p_meas));
            return false;
        }
    }
    if (spec.service.faults.enabled) {
        // Fault plans inject into the shared off-chip service, so they
        // need one: every fabric link has one; an exact fleet only
        // with shared=true; the remaining kinds have nowhere to inject.
        if (spec.kind == ScenarioKind::ExactFleet) {
            if (!spec.service.shared_link) {
                set_error(error,
                          "faults= on kind=exact-fleet needs the "
                          "shared link (add the bare token 'shared'); "
                          "private per-qubit queues have no fault "
                          "injection point");
                return false;
            }
        } else if (spec.kind != ScenarioKind::Fabric) {
            set_error(error,
                      "faults= is only valid in kind=fabric and "
                      "shared-link kind=exact-fleet scenarios (the "
                      "off-chip link fault injectors)");
            return false;
        }
    }
    if (spec.stream.overlap >= spec.stream.window) {
        set_error(error,
                  "bad stream window geometry: overlap (" +
                      std::to_string(spec.stream.overlap) +
                      ") must be smaller than window (" +
                      std::to_string(spec.stream.window) +
                      ") so the commit region is non-empty");
        return false;
    }
    const bool has_stream = spec.tiers.contains_stream();
    if (spec.kind != ScenarioKind::Stream) {
        if (has_stream) {
            set_error(error,
                      "tier 'stream' is only valid in kind=stream "
                      "scenarios (sliding-window decoding); drop the "
                      "tier or add the bare token 'stream' before "
                      "tiers=");
            return false;
        }
        return true;
    }
    if (!has_stream) {
        // The untouched default chain denotes the bare sliding-window
        // MWPM; any other explicit chain is a mistake.
        if (spec.tiers.describe() != TierChainConfig::legacy().describe()) {
            set_error(error,
                      "a kind=stream chain must end with the stream "
                      "tier (e.g. tiers=uf:2,stream)");
            return false;
        }
        return true;
    }
    const std::vector<TierSpec> &tiers = spec.tiers.tiers;
    for (size_t i = 0; i < tiers.size(); ++i) {
        if (tiers[i].kind == DecoderTier::Stream) {
            if (i + 1 != tiers.size()) {
                set_error(error,
                          "the stream tier must be the final tier of "
                          "a kind=stream chain");
                return false;
            }
        } else if (tiers[i].kind != DecoderTier::UnionFind) {
            set_error(error,
                      std::string("kind=stream chains admit only "
                                  "union-find screening tiers before "
                                  "the final stream tier; got '") +
                          decoder_tier_name(tiers[i].kind) + "'");
            return false;
        }
    }
    return true;
}

} // namespace

const std::vector<std::string> &
scenario_override_flags()
{
    static const std::vector<std::string> kFlags = [] {
        std::vector<std::string> flags;
        for (const auto &mapping : kFlagKeyMappings) {
            flags.push_back(mapping.flag);
        }
        for (const char *flag : kBoolFlagSpellings) {
            flags.push_back(flag);
        }
        flags.push_back("tiers");
        return flags;
    }();
    return kFlags;
}

bool
ScenarioSpec::try_parse(const std::string &spec, ScenarioSpec *out,
                        std::string *error)
{
    SpecBuilder builder;
    bool tiers_accumulating = false;
    size_t start = 0;
    while (start <= spec.size()) {
        size_t end = spec.find(',', start);
        if (end == std::string::npos) {
            end = spec.size();
        }
        const std::string token = spec.substr(start, end - start);
        const bool at_end = end == spec.size();
        start = end + 1;
        if (token.empty()) {
            if (at_end) {
                break;
            }
            continue;
        }
        const size_t eq = token.find('=');
        if (eq != std::string::npos) {
            const std::string key = token.substr(0, eq);
            const std::string value = token.substr(eq + 1);
            if (!apply_key(builder, key, value, error)) {
                return false;
            }
            tiers_accumulating = key == "tiers";
        } else if (tiers_accumulating && is_tier_token(token)) {
            builder.tiers_value += ',';
            builder.tiers_value += token;
        } else if (token == "lifetime" || token == "memory" ||
                   token == "fleet" || token == "exact-fleet" ||
                   token == "exact_fleet" || token == "stream" ||
                   token == "fabric") {
            tiers_accumulating = false;
            if (!builder.kind(token, error)) {
                return false;
            }
        } else if (token == "pipeline" || token == "signature") {
            tiers_accumulating = false;
            if (!builder.mode(token, error)) {
                return false;
            }
        } else if (token == "shared") {
            tiers_accumulating = false;
            builder.spec.service.shared_link = true;
        } else if (token == "weighted") {
            tiers_accumulating = false;
            builder.spec.weighted_matching = true;
        } else {
            set_error(error,
                      "unknown scenario token '" + token + "' in '" +
                          spec +
                          "'; expected key=value, a kind (lifetime | "
                          "memory | fleet | exact-fleet | stream | "
                          "fabric), "
                          "pipeline | signature | shared | weighted, "
                          "or a tier continuation after tiers=");
            return false;
        }
        if (at_end) {
            break;
        }
    }
    if (!builder.finish_tiers(error)) {
        return false;
    }
    if (!validate_spec(builder.spec, error)) {
        return false;
    }
    *out = std::move(builder.spec);
    return true;
}

ScenarioSpec
ScenarioSpec::parse(const std::string &spec)
{
    ScenarioSpec out;
    std::string error;
    if (!try_parse(spec, &out, &error)) {
        throw std::invalid_argument(error);
    }
    return out;
}

std::string
ScenarioSpec::to_string() const
{
    const ScenarioSpec defaults;
    std::string out = "kind=";
    out += scenario_kind_name(kind);
    const auto emit = [&out](const char *key, const std::string &value) {
        out += ',';
        out += key;
        out += '=';
        out += value;
    };
    if (code.distance != defaults.code.distance) {
        emit("d", std::to_string(code.distance));
    }
    if (code.p != defaults.code.p) {
        emit("p", format_double(code.p));
    }
    if (code.p_meas != defaults.code.p_meas) {
        emit("p_meas", format_double(code.p_meas));
    }
    if (code.filter_rounds != defaults.code.filter_rounds) {
        emit("filter", std::to_string(code.filter_rounds));
    }
    if (code.rounds != defaults.code.rounds) {
        emit("rounds", std::to_string(code.rounds));
    }
    if (code.error_type != defaults.code.error_type) {
        emit("error_type", code.error_type == CheckType::X ? "x" : "z");
    }
    if (stream.window != defaults.stream.window) {
        emit("window", std::to_string(stream.window));
    }
    if (stream.overlap != defaults.stream.overlap) {
        emit("overlap", std::to_string(stream.overlap));
    }
    if (tiers.describe() != defaults.tiers.describe()) {
        emit("tiers", tiers_spec_string(tiers));
    }
    if (mode != defaults.mode) {
        emit("mode", mode == LifetimeMode::Pipeline ? "pipeline"
                                                    : "signature");
    }
    if (service.policy != defaults.service.policy) {
        emit("policy", service.policy == OffchipPolicy::Mwpm ? "mwpm"
                                                             : "oracle");
    }
    if (arm != defaults.arm) {
        emit("arm", arm == DecoderArm::MwpmOnly
                        ? "mwpm"
                        : (arm == DecoderArm::UnionFindOnly ? "uf"
                                                            : "clique"));
    }
    if (weighted_matching != defaults.weighted_matching) {
        emit("weighted", weighted_matching ? "true" : "false");
    }
    if (service.latency != defaults.service.latency) {
        emit("latency", std::to_string(service.latency));
    }
    if (service.bandwidth != defaults.service.bandwidth) {
        emit("bandwidth", std::to_string(service.bandwidth));
    }
    if (service.batch != defaults.service.batch) {
        emit("batch", std::to_string(service.batch));
    }
    if (service.shared_link != defaults.service.shared_link) {
        emit("shared", service.shared_link ? "true" : "false");
    }
    if (service.scheduler != defaults.service.scheduler) {
        emit("scheduler", scheduler_kind_name(service.scheduler));
    }
    if (service.links != defaults.service.links) {
        emit("links", std::to_string(service.links));
    }
    if (service.placement != defaults.service.placement) {
        emit("placement", placement_kind_name(service.placement));
    }
    if (service.deadline != defaults.service.deadline) {
        emit("deadline", std::to_string(service.deadline));
    }
    if (service.faults.enabled) {
        emit("faults", service.faults.to_string());
    }
    if (service.timeout != defaults.service.timeout) {
        emit("timeout", std::to_string(service.timeout));
    }
    if (service.retries != defaults.service.retries) {
        emit("retries", std::to_string(service.retries));
    }
    if (service.shed != defaults.service.shed) {
        emit("shed", service.shed ? "true" : "false");
    }
    if (service.migrate != defaults.service.migrate) {
        emit("migrate", std::to_string(service.migrate));
    }
    if (service.fleet_size != defaults.service.fleet_size) {
        emit("fleet", std::to_string(service.fleet_size));
    }
    if (service.num_qubits != defaults.service.num_qubits) {
        emit("qubits", std::to_string(service.num_qubits));
    }
    if (service.offchip_prob != defaults.service.offchip_prob) {
        emit("q", format_double(service.offchip_prob));
    }
    if (service.hot_fraction != defaults.service.hot_fraction) {
        emit("hot_fraction", format_double(service.hot_fraction));
    }
    if (service.hot_mult != defaults.service.hot_mult) {
        emit("hot_mult", format_double(service.hot_mult));
    }
    if (engine.cycles != defaults.engine.cycles) {
        emit("cycles", std::to_string(engine.cycles));
    }
    if (engine.trials != defaults.engine.trials) {
        emit("trials", std::to_string(engine.trials));
    }
    if (engine.target_failures != defaults.engine.target_failures) {
        emit("failures", std::to_string(engine.target_failures));
    }
    if (engine.threads != defaults.engine.threads) {
        emit("threads", std::to_string(engine.threads));
    }
    if (engine.seed != defaults.engine.seed) {
        emit("seed", std::to_string(engine.seed));
    }
    if (engine.audit >= 0) {
        emit("audit",
             audit_level_name(static_cast<AuditLevel>(engine.audit)));
    }
    return out;
}

bool
ScenarioSpec::from_flags(const Flags &flags, ScenarioSpec *out,
                         std::string *error)
{
    ScenarioSpec spec;
    if (!spec.apply_flags(flags, error)) {
        return false;
    }
    *out = std::move(spec);
    return true;
}

bool
ScenarioSpec::apply_flags(const Flags &flags, std::string *error)
{
    SpecBuilder builder;
    builder.spec = *this;

    // `key=value` grammar keys fed straight from flags (validation
    // shared with try_parse via apply_key; see kFlagKeyMappings).
    for (const auto &mapping : kFlagKeyMappings) {
        if (!flags.has(mapping.flag)) {
            continue;
        }
        if (!apply_key(builder, mapping.key,
                       flags.get(mapping.flag, ""), error)) {
            return false;
        }
    }

    // Boolean / shortcut flags (kBoolFlagSpellings).
    if (flags.has("weighted")) {
        builder.spec.weighted_matching = flags.get_bool("weighted");
    }
    if (flags.has("shared")) {
        builder.spec.service.shared_link = flags.get_bool("shared");
    }
    if (flags.has("shared-link")) {
        builder.spec.service.shared_link = flags.get_bool("shared-link");
    }
    if (flags.has("pipeline") && flags.get_bool("pipeline")) {
        builder.spec.mode = LifetimeMode::Pipeline;
    }
    if (flags.has("real_offchip") && flags.get_bool("real_offchip")) {
        builder.spec.service.policy = OffchipPolicy::Mwpm;
    }
    if (flags.has("shed")) {
        builder.spec.service.shed = flags.get_bool("shed");
    }
    if (flags.has("tiers")) {
        builder.tiers_value = flags.get("tiers", "");
        builder.tiers_set = true;
    }
    if (!builder.finish_tiers(error)) {
        return false;
    }
    if (!validate_spec(builder.spec, error)) {
        return false;
    }
    if (!flags.ok()) {
        set_error(error, flags.error());
        return false;
    }
    *this = std::move(builder.spec);
    return true;
}

LifetimeConfig
ScenarioSpec::to_lifetime_config() const
{
    LifetimeConfig config;
    config.distance = code.distance;
    config.p = code.p;
    config.p_meas = code.p_meas;
    if (engine.cycles != 0) {
        config.cycles = engine.cycles;
    }
    config.filter_rounds = code.filter_rounds;
    config.mode = mode;
    config.offchip = service.policy;
    config.offchip_latency = service.latency;
    config.offchip_bandwidth = service.bandwidth;
    config.offchip_batch = service.batch;
    config.tiers = tiers;
    config.threads = engine.threads;
    config.seed = engine.seed;
    return config;
}

MemoryConfig
ScenarioSpec::to_memory_config() const
{
    MemoryConfig config;
    config.distance = code.distance;
    config.p = code.p;
    config.p_meas = code.p_meas;
    if (engine.trials != 0) {
        config.max_trials = engine.trials;
    }
    if (engine.target_failures != 0) {
        config.target_failures = engine.target_failures;
    }
    config.rounds = code.rounds;
    config.filter_rounds = code.filter_rounds;
    config.weighted_matching = weighted_matching;
    config.error_type = code.error_type;
    config.threads = engine.threads;
    config.seed = engine.seed;
    return config;
}

FleetConfig
ScenarioSpec::to_fleet_config() const
{
    FleetConfig config;
    config.num_qubits = service.num_qubits;
    if (engine.cycles != 0) {
        config.cycles = engine.cycles;
    }
    config.offchip_prob = service.offchip_prob;
    if (service.hot_fraction > 0.0) {
        config.qubit_probs =
            hotspot_probs(service.num_qubits, service.offchip_prob,
                          service.hot_fraction, service.hot_mult);
    }
    config.threads = engine.threads;
    config.seed = engine.seed;
    config.offchip_latency = service.latency;
    config.offchip_batch = service.batch;
    return config;
}

StreamConfig
ScenarioSpec::to_stream_config() const
{
    StreamConfig config;
    config.distance = code.distance;
    config.p = code.p;
    config.p_meas = code.p_meas;
    config.window = stream.window;
    config.overlap = stream.overlap;
    if (engine.cycles != 0) {
        config.rounds = engine.cycles;
    }
    config.error_type = code.error_type;
    // The untouched default (legacy) chain denotes the bare
    // sliding-window MWPM (StreamConfig's empty-chain meaning); an
    // explicit stream chain passes through verbatim.
    if (tiers.contains_stream()) {
        config.tiers = tiers;
    }
    config.threads = engine.threads;
    config.seed = engine.seed;
    return config;
}

ExactFleetConfig
ScenarioSpec::to_exact_fleet_config() const
{
    ExactFleetConfig config;
    config.distance = code.distance;
    config.p = code.p;
    config.num_qubits = service.fleet_size;
    if (engine.cycles != 0) {
        config.cycles = engine.cycles;
    }
    config.seed = engine.seed;
    config.threads = engine.threads;
    config.shared_link = service.shared_link;
    config.offchip = service.policy;
    config.tiers = tiers;
    config.offchip_latency = service.latency;
    config.offchip_bandwidth = service.bandwidth;
    config.offchip_batch = service.batch;
    // Hot-spot heterogeneity becomes real per-tenant decode work
    // (so hot tenants genuinely contend): the first hot_fraction
    // of the fleet runs at hot_mult * p, like the binomial model's
    // hotspot_probs profile but on the physical error rate.
    if (service.hot_fraction > 0.0) {
        config.tenant_probs =
            hotspot_probs(service.fleet_size, code.p,
                          service.hot_fraction, service.hot_mult);
    }
    config.faults = service.faults;
    return config;
}

FabricFleetConfig
ScenarioSpec::to_fabric_config() const
{
    FabricFleetConfig config;
    config.fleet = to_exact_fleet_config();
    config.fleet.shared_link = true;  // implied by the fabric
    config.fleet.faults = FaultPlan{};  // plan lives fabric-side
    config.topology.links = service.links;
    config.topology.scheduler = service.scheduler;
    config.topology.placement = service.placement;
    config.topology.deadline = service.deadline;
    config.topology.migrate_threshold = service.migrate;
    config.faults = service.faults;
    config.timeout = service.timeout;
    config.retries = service.retries;
    config.shed = service.shed;
    return config;
}

} // namespace btwc
