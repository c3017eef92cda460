#include "fuzz/fuzz.hh"

#include <filesystem>
#include <fstream>
#include <ostream>

#include "common/log.hh"
#include "fuzz/dgasm.hh"
#include "fuzz/minimize.hh"
#include "fuzz/synth.hh"
#include "runner/json.hh"
#include "sim/simulator.hh"

namespace dgsim::fuzz
{
namespace
{

std::string
u64s(std::uint64_t value)
{
    return std::to_string(static_cast<unsigned long long>(value));
}

} // namespace

SimResult
runCandidateJob(const runner::Job &job)
{
    const AttackerIr ir = synthesize(job.fuzzSeed, job.fuzzKey);
    const std::vector<security::SecretPair> pairs =
        security::defaultSecretPairs(job.fuzzSeed);
    const std::vector<ConfigVerdict> verdicts =
        evaluateCandidate(ir, job.config, pairs);

    SimResult result;
    result.workload = job.workload;
    result.configLabel = job.config.label();
    // Static candidate size; gives fleet reports a meaningful column.
    result.instructions = ir.instructionCount();

    auto &counters = result.counters;
    counters["fuzz.key"] = job.fuzzKey;
    counters["fuzz.seed"] = job.fuzzSeed;
    std::uint64_t findings = 0, expected = 0, inconclusive = 0;
    for (const ConfigVerdict &verdict : verdicts) {
        const std::string &label = verdict.configLabel;
        counters["fuzz.verdict." + label] =
            static_cast<std::uint64_t>(verdict.check.verdict);
        counters["fuzz.expected." + label] = verdict.expected ? 1 : 0;
        counters["fuzz.secretA." + label] = verdict.check.secretA;
        counters["fuzz.secretB." + label] = verdict.check.secretB;
        counters["fuzz.digestA." + label] = verdict.check.digestA;
        counters["fuzz.digestB." + label] = verdict.check.digestB;
        if (verdict.finding())
            ++findings;
        else if (verdict.expected)
            ++expected;
        if (verdict.check.inconclusive())
            ++inconclusive;
    }
    counters[kCounterFindings] = findings;
    counters[kCounterExpected] = expected;
    counters[kCounterInconclusive] = inconclusive;
    return result;
}

std::vector<ConfigVerdict>
readVerdicts(const SimResult &result)
{
    const auto get = [&result](const std::string &key) -> std::uint64_t {
        const auto it = result.counters.find(key);
        return it == result.counters.end() ? 0 : it->second;
    };
    std::vector<ConfigVerdict> verdicts;
    for (const SimConfig &config : evaluationConfigs(oracleBaseConfig())) {
        const std::string label = config.label();
        ConfigVerdict verdict;
        verdict.configLabel = label;
        verdict.check.verdict = static_cast<security::LeakVerdict>(
            get("fuzz.verdict." + label));
        verdict.check.secretA = get("fuzz.secretA." + label);
        verdict.check.secretB = get("fuzz.secretB." + label);
        verdict.check.digestA = get("fuzz.digestA." + label);
        verdict.check.digestB = get("fuzz.digestB." + label);
        verdict.expected = get("fuzz.expected." + label) != 0;
        verdicts.push_back(std::move(verdict));
    }
    return verdicts;
}

PostSummary
postProcess(const std::vector<runner::JobOutcome> &outcomes,
            const PostOptions &options, std::ostream &log)
{
    PostSummary summary;
    std::filesystem::create_directories(options.reproDir);
    std::ofstream findings_out(options.findingsPath, std::ios::trunc);
    if (!findings_out)
        DGSIM_FATAL("cannot open findings file '" + options.findingsPath +
                    "' for writing");

    // Pre-resolve the oracle's configuration columns by label.
    const std::vector<SimConfig> configs =
        evaluationConfigs(oracleBaseConfig());
    const auto configByLabel = [&configs](const std::string &label) {
        for (const SimConfig &config : configs) {
            if (config.label() == label)
                return config;
        }
        DGSIM_FATAL("fuzz post-pass: unknown config label '" + label + "'");
    };

    unsigned expected_minimized = 0;
    for (const runner::JobOutcome &outcome : outcomes) {
        ++summary.candidates;
        if (!outcome.ok) {
            ++summary.failedJobs;
            DGSIM_WARN("fuzz candidate " + outcome.workload +
                       " failed: " + outcome.error);
            continue;
        }
        const auto &counters = outcome.result.counters;
        const auto count = [&counters](const char *key) -> std::uint64_t {
            const auto it = counters.find(key);
            return it == counters.end() ? 0 : it->second;
        };
        summary.expectedLeaks += count(kCounterExpected);
        summary.findings += count(kCounterFindings);
        summary.inconclusive += count(kCounterInconclusive);
        if (count(kCounterExpected) == 0 && count(kCounterFindings) == 0)
            continue;

        // A hit: regenerate the candidate from its identity and write
        // the replayable repro once.
        const std::uint64_t key = count("fuzz.key");
        const AttackerIr ir = synthesize(options.fuzzSeed, key);
        const std::string repro_path =
            options.reproDir + "/" + candidateName(key) + ".dgasm";
        saveDgasm(ir, repro_path);

        for (const ConfigVerdict &verdict : readVerdicts(outcome.result)) {
            if (verdict.check.verdict != security::LeakVerdict::Leak)
                continue;
            const security::SecretPair pair{verdict.check.secretA,
                                            verdict.check.secretB};
            const bool minimize =
                verdict.finding() ||
                expected_minimized < options.minimizeExpected;
            std::string min_path;
            MinimizeResult minimized;
            if (minimize) {
                if (!verdict.finding())
                    ++expected_minimized;
                minimized =
                    minimizeLeak(ir, configByLabel(verdict.configLabel),
                                 pair, options.minimizeBudget);
                min_path = options.reproDir + "/" + candidateName(key) +
                           "." + verdict.configLabel + ".min.dgasm";
                saveDgasm(minimized.ir, min_path);
            }

            findings_out
                << "{\"key\":" << u64s(key) << ",\"seed\":"
                << u64s(options.fuzzSeed) << ",\"name\":\""
                << runner::jsonEscape(ir.name) << "\",\"config\":\""
                << runner::jsonEscape(verdict.configLabel)
                << "\",\"expected\":"
                << (verdict.expected ? "true" : "false")
                << ",\"secretA\":" << u64s(pair.a) << ",\"secretB\":"
                << u64s(pair.b) << ",\"digestA\":"
                << u64s(verdict.check.digestA) << ",\"digestB\":"
                << u64s(verdict.check.digestB) << ",\"instructions\":"
                << ir.instructionCount() << ",\"repro\":\""
                << runner::jsonEscape(repro_path) << "\"";
            if (minimize) {
                findings_out << ",\"minimized\":true,\"minInstructions\":"
                             << minimized.ir.instructionCount()
                             << ",\"minRepro\":\""
                             << runner::jsonEscape(min_path)
                             << "\",\"minTests\":" << minimized.testsRun
                             << ",\"minConverged\":"
                             << (minimized.converged ? "true" : "false");
            } else {
                findings_out << ",\"minimized\":false";
            }
            findings_out << "}\n";

            if (verdict.finding()) {
                log << "fuzz FINDING: " << ir.name << " leaks under "
                    << verdict.configLabel << " (secrets " << pair.a
                    << " vs " << pair.b << ") -- repro " << repro_path
                    << "\n";
            }
        }
    }
    findings_out.flush();
    if (!findings_out)
        DGSIM_FATAL("failed writing findings file '" +
                    options.findingsPath + "'");

    if (!options.quiet) {
        log << "fuzz: " << summary.candidates << " candidates, "
            << summary.expectedLeaks << " expected Unsafe leaks, "
            << summary.findings << " confirmed secure-scheme findings, "
            << summary.inconclusive << " inconclusive, "
            << summary.failedJobs << " failed jobs -> "
            << options.findingsPath << "\n";
    }
    return summary;
}

} // namespace dgsim::fuzz
