/**
 * @file
 * btwc_run — the unified scenario front door.
 *
 * Runs any operating point of the evaluation grid through the
 * src/api layer: a named registry scenario or a full ScenarioSpec
 * string, with CLI flag overrides layered on top, rendered as the
 * uniform metric table / CSV / JSON Report.
 *
 *     btwc_run --list                      # the scenario registry
 *     btwc_run quick
 *     btwc_run fig04 --cycles 100000 --threads 0
 *     btwc_run "d=9,p=5e-3,tiers=clique,uf:2,mwpm"
 *     btwc_run fleet-shared-narrow --json out.json
 *     btwc_run memory-weighted --csv
 *
 * Overrides: every key of the spec grammar has a flag spelling
 * (--distance, --p, --cycles, --tiers, --offchip-latency, ...); see
 * ScenarioSpec::apply_flags and src/api/README.md.
 */

#include <cstdio>
#include <string>

#include "api/registry.hpp"
#include "api/report.hpp"
#include "api/run.hpp"
#include "api/scenario.hpp"
#include "common/check.hpp"
#include "common/flags.hpp"
#include "common/table.hpp"

namespace {

using namespace btwc;

int
list_scenarios(const Flags &flags)
{
    Table table({"name", "kind", "description"});
    Report report;
    Report &scenarios = report.child("scenarios");
    for (const NamedScenario &entry : scenario_registry()) {
        ScenarioSpec spec;
        std::string error;
        const char *kind = "?";
        if (ScenarioSpec::try_parse(entry.spec, &spec, &error)) {
            kind = scenario_kind_name(spec.kind);
        }
        table.add_row({entry.name, kind, entry.description});
        Report &node = scenarios.child(entry.name);
        node.set("kind", kind);
        node.set("description", entry.description);
        node.set("spec", entry.spec);
    }
    if (flags.get_bool("csv")) {
        std::fputs(table.to_csv().c_str(), stdout);
    } else {
        table.print();
        std::printf("\nrun one with: btwc_run <name> [overrides]; "
                    "full grammar: src/api/README.md\n");
    }
    if (flags.has("json")) {
        std::string error;
        if (!write_report_json(report, flags.get("json", ""), &error)) {
            std::fprintf(stderr, "--json: %s\n", error.c_str());
            return 1;
        }
    }
    return 0;
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: btwc_run <scenario-name | spec-string> [overrides]\n"
        "       btwc_run --list\n"
        "\n"
        "  <scenario-name>   a registry entry (btwc_run --list)\n"
        "  <spec-string>     ScenarioSpec grammar, e.g.\n"
        "                    \"d=9,p=5e-3,tiers=clique,uf:2,mwpm\"\n"
        "  --json PATH       write the uniform Report as JSON\n"
        "  --csv             CSV instead of the aligned table\n"
        "  --repeat N        run N times, report the median-walltime\n"
        "                    run (metrics are identical across runs)\n"
        "  plus any spec-key override flag (--cycles, --threads, ...)\n");
    return 2;
}

/**
 * btwc_run's whole flag surface is the spec-override set plus its own
 * output flags, so an unknown flag is always a mistake — reject it
 * instead of silently dropping the override (exit(2), the CLI
 * counterpart of the library's status contract).
 */
void
reject_unknown_flags(const btwc::Flags &flags)
{
    static const char *const kOwnFlags[] = {"list", "csv", "json",
                                            "spec", "repeat"};
    for (const std::string &name : flags.names()) {
        bool known = false;
        for (const char *own : kOwnFlags) {
            known = known || name == own;
        }
        for (const std::string &override_flag :
             btwc::scenario_override_flags()) {
            known = known || name == override_flag;
        }
        if (!known) {
            std::fprintf(stderr,
                         "unknown flag '--%s' (see btwc_run --list and "
                         "src/api/README.md for the override keys)\n",
                         name.c_str());
            std::exit(2);
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace btwc;
    const Flags flags = flags_or_exit(argc, argv);
    reject_unknown_flags(flags);
    if (flags.has("json") && flags.get("json", "") == "true") {
        // A bare --json parses as the value "true"; writing a file
        // literally named `true` is never what the user meant.
        std::fprintf(stderr,
                     "--json requires a path (e.g. --json out.json)\n");
        return 2;
    }
    if (flags.get_bool("list")) {
        return list_scenarios(flags);
    }
    std::string source = flags.get("spec", "");
    if (!flags.positional().empty()) {
        source = flags.positional()[0];
    }
    if (source.empty()) {
        return usage();
    }

    ScenarioSpec spec;
    std::string name;
    std::string registry_error;
    if (find_scenario(source, &spec, &registry_error)) {
        name = source;
    } else {
        // Not a registry name: treat the argument as a spec string.
        std::string parse_error;
        if (!ScenarioSpec::try_parse(source, &spec, &parse_error)) {
            const bool looks_like_spec =
                source.find('=') != std::string::npos;
            std::fprintf(stderr, "%s\n",
                         (looks_like_spec ? parse_error : registry_error)
                             .c_str());
            return 2;
        }
    }

    std::string error;
    if (!spec.apply_flags(flags, &error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 2;
    }

    const int repeat = static_cast<int>(flags.get_int("repeat", 1));
    if (repeat < 1) {
        std::fprintf(stderr, "--repeat requires a positive count\n");
        return 2;
    }
    // A contract violation mid-run (common/check.hpp) is reported like
    // any other rejected input: its message on stderr, exit 2, never
    // terminate().
    Report report;
    try {
        report = repeat > 1 ? run_scenario_repeated(spec, repeat)
                            : run_scenario(spec);
    } catch (const CheckFailure &failure) {
        std::fprintf(stderr, "%s\n", failure.what());
        return 2;
    }
    if (!name.empty()) {
        report.child("scenario").set("name", name);
    }
    if (flags.get_bool("csv")) {
        std::fputs(report.csv().c_str(), stdout);
    } else {
        std::printf("== scenario%s%s ==\n%s\n\n",
                    name.empty() ? "" : " ", name.c_str(),
                    spec.to_string().c_str());
        report.to_table().print();
    }
    if (flags.has("json")) {
        if (!write_report_json(report, flags.get("json", ""), &error)) {
            std::fprintf(stderr, "--json: %s\n", error.c_str());
            return 1;
        }
    }
    return 0;
}
