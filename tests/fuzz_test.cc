/**
 * @file
 * Regression tests for the attacker-program fuzzer: synthesizer
 * determinism, the .dgasm round trip, the planted-leak budget, the
 * minimizer's contract (leak-preserving, size-monotone, fixed point),
 * the secure-scheme cleanliness of the candidate population, and the
 * runner integration (job identity, counter round trip, post-pass
 * artifacts).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "common/hash.hh"
#include "fuzz/dgasm.hh"
#include "fuzz/fuzz.hh"
#include "fuzz/minimize.hh"
#include "fuzz/oracle.hh"
#include "fuzz/synth.hh"
#include "runner/journal.hh"
#include "runner/sweep.hh"
#include "security/leak.hh"
#include "sim/simulator.hh"

namespace dgsim
{
namespace
{

/** The Unsafe / AP-off column of the oracle matrix. */
SimConfig
unsafeColumn()
{
    SimConfig config = fuzz::oracleBaseConfig();
    config.scheme = Scheme::Unsafe;
    config.addressPrediction = false;
    return config;
}

security::LeakCheck
checkUnder(const fuzz::AttackerIr &ir, const SimConfig &config,
           const std::vector<security::SecretPair> &pairs)
{
    const auto builder = [&ir](std::uint64_t secret) {
        return ir.lower(secret);
    };
    return security::checkLeakPairs(builder, config, pairs);
}

/**
 * The first candidate of @p fuzz_seed that leaks under the Unsafe
 * baseline, searching at most @p budget keys; the found key is written
 * to @p key_out. This *is* the planted-leak acceptance check: a
 * synthesizer whose population can't even beat the undefended machine
 * within a small fixed budget is testing nothing.
 */
bool
findUnsafeLeak(std::uint64_t fuzz_seed, std::uint64_t budget,
               std::uint64_t &key_out, security::LeakCheck &check_out)
{
    const auto pairs = security::defaultSecretPairs(fuzz_seed);
    for (std::uint64_t key = 0; key < budget; ++key) {
        const fuzz::AttackerIr ir = fuzz::synthesize(fuzz_seed, key);
        const security::LeakCheck check =
            checkUnder(ir, unsafeColumn(), pairs);
        if (check.leaked()) {
            key_out = key;
            check_out = check;
            return true;
        }
    }
    return false;
}

// --- Synthesizer -------------------------------------------------------

TEST(FuzzSynthTest, CandidateIsPureFunctionOfSeedAndKey)
{
    for (std::uint64_t key : {0ULL, 7ULL, 123ULL}) {
        const fuzz::AttackerIr a = fuzz::synthesize(1, key);
        const fuzz::AttackerIr b = fuzz::synthesize(1, key);
        EXPECT_EQ(fuzz::writeDgasm(a), fuzz::writeDgasm(b));
    }
}

TEST(FuzzSynthTest, DifferentKeysAndSeedsDiverge)
{
    const std::string base = fuzz::writeDgasm(fuzz::synthesize(1, 0));
    EXPECT_NE(base, fuzz::writeDgasm(fuzz::synthesize(1, 1)));
    EXPECT_NE(base, fuzz::writeDgasm(fuzz::synthesize(2, 0)));
}

TEST(FuzzSynthTest, CandidatesTerminateAndLowerDeterministically)
{
    for (std::uint64_t key = 0; key < 8; ++key) {
        const fuzz::AttackerIr ir = fuzz::synthesize(1, key);
        SimConfig config = unsafeColumn();
        config.watchdogThrows = true;
        const SimResult result = runProgram(ir.lower(3), config);
        EXPECT_TRUE(result.halted) << "candidate " << key
                                   << " must commit HALT";
        EXPECT_FALSE(result.hitMaxCycles);
        // Lowering twice with the same secret is bit-identical.
        const SimResult again = runProgram(ir.lower(3), config);
        EXPECT_EQ(result.uarchDigest, again.uarchDigest);
    }
}

// --- .dgasm round trip --------------------------------------------------

TEST(DgasmTest, RoundTripPreservesTheCandidate)
{
    for (std::uint64_t key : {0ULL, 3ULL, 42ULL}) {
        const fuzz::AttackerIr ir = fuzz::synthesize(1, key);
        const std::string text = fuzz::writeDgasm(ir);
        const fuzz::AttackerIr back = fuzz::parseDgasm(text, "test");
        EXPECT_EQ(text, fuzz::writeDgasm(back));
        EXPECT_EQ(ir.instructionCount(), back.instructionCount());
        // The round trip preserves behavior, not just text: identical
        // lowered digests under the same secret.
        const SimConfig config = unsafeColumn();
        EXPECT_EQ(runProgram(ir.lower(5), config).uarchDigest,
                  runProgram(back.lower(5), config).uarchDigest);
    }
}

// --- Planted leak within a fixed budget ---------------------------------

TEST(FuzzOracleTest, UnsafeLeakFoundWithinFixedBudget)
{
    std::uint64_t key = 0;
    security::LeakCheck check;
    ASSERT_TRUE(findUnsafeLeak(1, 16, key, check))
        << "no candidate of seed 1 leaked on the undefended machine "
           "within 16 keys — the synthesizer population is broken";
    EXPECT_NE(check.digestA, check.digestB);
}

TEST(FuzzOracleTest, SecureSchemesCleanOnCandidatePrefix)
{
    const auto pairs = security::defaultSecretPairs(1);
    for (std::uint64_t key = 0; key < 2; ++key) {
        const fuzz::AttackerIr ir = fuzz::synthesize(1, key);
        const auto verdicts =
            fuzz::evaluateCandidate(ir, fuzz::oracleBaseConfig(), pairs);
        ASSERT_EQ(verdicts.size(), 8u); // 4 schemes x 2 AP modes
        for (const fuzz::ConfigVerdict &verdict : verdicts)
            EXPECT_FALSE(verdict.finding())
                << "candidate " << key << " leaked under "
                << verdict.configLabel;
    }
}

TEST(FuzzOracleTest, VerdictClassesArePinned)
{
    // The verdict class of every column, not the digests behind it: the
    // digest encoding may change, but which (candidate, column) leaks,
    // is clean or is inconclusive must not.
    const auto pairs = security::defaultSecretPairs(1);
    std::uint64_t hash = kFnvOffsetBasis;
    for (std::uint64_t key = 0; key < 16; ++key) {
        const auto verdicts = fuzz::evaluateCandidate(
            fuzz::synthesize(1, key), fuzz::oracleBaseConfig(), pairs);
        ASSERT_EQ(verdicts.size(), 8u);
        for (const fuzz::ConfigVerdict &verdict : verdicts) {
            hash = fnvMix(hash,
                          static_cast<std::uint64_t>(verdict.check.verdict));
            hash = fnvMix(hash, verdict.expected);
        }
    }
    EXPECT_EQ(hash, 0x0971039e4d7be3edULL);
}

// --- Minimizer contract -------------------------------------------------

TEST(FuzzMinimizeTest, LeakPreservingSizeMonotoneFixedPoint)
{
    std::uint64_t key = 0;
    security::LeakCheck check;
    ASSERT_TRUE(findUnsafeLeak(1, 16, key, check));
    const fuzz::AttackerIr ir = fuzz::synthesize(1, key);
    const security::SecretPair pair{check.secretA, check.secretB};

    const fuzz::MinimizeResult minimized =
        fuzz::minimizeLeak(ir, unsafeColumn(), pair);
    EXPECT_TRUE(minimized.converged);
    // Size-monotone: deletions only.
    EXPECT_LE(minimized.ir.instructionCount(), ir.instructionCount());
    EXPECT_LE(minimized.ir.data.size(), ir.data.size());
    // Leak-preserving: the output still leaks under the exact
    // (config, pair) that produced the hit.
    EXPECT_TRUE(checkUnder(minimized.ir, unsafeColumn(), {pair}).leaked());
    // Fixed point: minimizing the minimum changes nothing.
    const fuzz::MinimizeResult again =
        fuzz::minimizeLeak(minimized.ir, unsafeColumn(), pair);
    EXPECT_EQ(fuzz::writeDgasm(minimized.ir), fuzz::writeDgasm(again.ir));
}

TEST(FuzzMinimizeTest, NonLeakingInputReturnsUnchangedAfterOneTest)
{
    // Candidate 0 does not leak under STT: the minimizer must detect
    // that with its single baseline run and give the input back.
    SimConfig stt = fuzz::oracleBaseConfig();
    stt.scheme = Scheme::Stt;
    stt.addressPrediction = false;
    const fuzz::AttackerIr ir = fuzz::synthesize(1, 0);
    ASSERT_FALSE(checkUnder(ir, stt, {{3, 5}}).leaked());
    const fuzz::MinimizeResult result =
        fuzz::minimizeLeak(ir, stt, {3, 5});
    EXPECT_EQ(result.testsRun, 1u);
    EXPECT_EQ(fuzz::writeDgasm(result.ir), fuzz::writeDgasm(ir));
}

// --- Runner integration -------------------------------------------------

TEST(FuzzRunnerTest, JobIdentityCoversCandidateAndSeed)
{
    runner::SweepSpec spec;
    spec.configs = {fuzz::oracleBaseConfig()};
    spec.fuzzCount = 4;
    spec.fuzzSeed = 1;
    const std::vector<runner::Job> jobs = spec.expand();
    ASSERT_EQ(jobs.size(), 4u);
    std::set<std::string> keys;
    for (const runner::Job &job : jobs) {
        EXPECT_EQ(job.kind, runner::JobKind::FuzzCandidate);
        keys.insert(runner::jobKey(job));
    }
    EXPECT_EQ(keys.size(), jobs.size()) << "fuzz job keys must be distinct";

    // A different campaign seed is a different identity: its journal
    // records must never satisfy this sweep's resume.
    runner::SweepSpec other = spec;
    other.fuzzSeed = 2;
    EXPECT_NE(runner::jobKey(spec.expand().front()),
              runner::jobKey(other.expand().front()));
}

TEST(FuzzRunnerTest, VerdictsRoundTripThroughCounters)
{
    runner::SweepSpec spec;
    spec.configs = {fuzz::oracleBaseConfig()};
    spec.fuzzCount = 1;
    spec.fuzzSeed = 1;
    const runner::Job job = spec.expand().front();

    const SimResult result = fuzz::runCandidateJob(job);
    EXPECT_EQ(result.counters.at("fuzz.key"), 0u);
    EXPECT_EQ(result.counters.at("fuzz.seed"), 1u);

    const std::vector<fuzz::ConfigVerdict> verdicts =
        fuzz::readVerdicts(result);
    ASSERT_EQ(verdicts.size(), 8u);
    // Candidate 0 of seed 1 leaks under Unsafe (the planted-leak test
    // above guarantees *some* early candidate does; this one pins the
    // decoded classification against the direct oracle).
    const auto pairs = security::defaultSecretPairs(1);
    const auto direct = fuzz::evaluateCandidate(fuzz::synthesize(1, 0),
                                                fuzz::oracleBaseConfig(),
                                                pairs);
    ASSERT_EQ(direct.size(), verdicts.size());
    for (std::size_t i = 0; i < verdicts.size(); ++i) {
        EXPECT_EQ(verdicts[i].configLabel, direct[i].configLabel);
        EXPECT_EQ(verdicts[i].check.verdict, direct[i].check.verdict);
        EXPECT_EQ(verdicts[i].check.digestA, direct[i].check.digestA);
        EXPECT_EQ(verdicts[i].check.digestB, direct[i].check.digestB);
        EXPECT_EQ(verdicts[i].expected, direct[i].expected);
    }
}

TEST(FuzzRunnerTest, PostPassEmitsReplayableArtifacts)
{
    std::uint64_t key = 0;
    security::LeakCheck check;
    ASSERT_TRUE(findUnsafeLeak(1, 16, key, check));

    runner::SweepSpec spec;
    spec.configs = {fuzz::oracleBaseConfig()};
    spec.fuzzCount = key + 1;
    spec.fuzzSeed = 1;
    std::vector<runner::JobOutcome> outcomes;
    for (const runner::Job &job : spec.expand()) {
        runner::JobOutcome outcome;
        outcome.index = job.index;
        outcome.workload = job.workload;
        outcome.suite = job.suite;
        outcome.configLabel = job.config.label();
        outcome.ok = true;
        outcome.result = fuzz::runCandidateJob(job);
        outcomes.push_back(std::move(outcome));
    }

    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) / "fuzz_post";
    std::filesystem::remove_all(dir);
    fuzz::PostOptions popts;
    popts.fuzzSeed = 1;
    popts.reproDir = (dir / "repros").string();
    popts.findingsPath = (dir / "findings.jsonl").string();
    popts.quiet = true;
    std::ostringstream log;
    const fuzz::PostSummary summary =
        fuzz::postProcess(outcomes, popts, log);

    EXPECT_EQ(summary.candidates, outcomes.size());
    EXPECT_GE(summary.expectedLeaks, 1u);
    EXPECT_EQ(summary.findings, 0u)
        << "a secure scheme leaked on the seed-1 prefix";
    ASSERT_TRUE(std::filesystem::exists(popts.findingsPath));

    // Every hit must be reproducible from its .dgasm alone.
    const std::string repro = popts.reproDir + "/" +
                              fuzz::candidateName(key) + ".dgasm";
    ASSERT_TRUE(std::filesystem::exists(repro));
    const fuzz::AttackerIr replayed = fuzz::loadDgasm(repro);
    EXPECT_TRUE(checkUnder(replayed, unsafeColumn(),
                           security::defaultSecretPairs(1))
                    .leaked());

    // The post-pass is deterministic: running it again over the same
    // outcomes produces a byte-identical findings file.
    std::stringstream first;
    first << std::ifstream(popts.findingsPath).rdbuf();
    std::ostringstream log2;
    fuzz::postProcess(outcomes, popts, log2);
    std::stringstream second;
    second << std::ifstream(popts.findingsPath).rdbuf();
    EXPECT_EQ(first.str(), second.str());
}

} // namespace
} // namespace dgsim
