/**
 * @file
 * The leak oracle's early exit (security/leak.hh): when the first
 * secret's run never reads a secret word, that run stands for every
 * other secret. These tests hold the rule to exactness over the three
 * corpus seeds and the first 48 candidates of fuzz seed 1, in all eight
 * (scheme, AP) columns of the oracle's configuration:
 *
 *  - every run the exit skips, simulated in full, equals the shared run
 *    (cycles, instructions, digests, health, wedge message, counters);
 *  - every column that takes the exit gets the LeakCheck the full path
 *    gives;
 *  - programs that differ outside the secret words, and runs that read
 *    one (even only on the wrong path), take the full path.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/errors.hh"
#include "cpu/core.hh"
#include "fuzz/dgasm.hh"
#include "fuzz/oracle.hh"
#include "fuzz/synth.hh"
#include "isa/assembler.hh"
#include "isa/functional.hh"
#include "security/leak.hh"
#include "sim/simulator.hh"

namespace dgsim
{
namespace
{

using Builder = std::function<Program(std::uint64_t)>;

/** One attacker program under test, with a label for failures. */
struct Subject
{
    std::string label;
    fuzz::AttackerIr ir;
};

fuzz::AttackerIr
corpusSeed(const std::string &stem)
{
    return fuzz::loadDgasm(DGSIM_CORPUS_DIR "/" + stem + ".dgasm");
}

/** The corpus seeds, then synthesize(1, 0..47). */
const std::vector<Subject> &
subjects()
{
    static const std::vector<Subject> all = [] {
        std::vector<Subject> out;
        for (const char *stem : {"spectre_v1", "dom_fig4a", "dom_fig4b"})
            out.push_back({stem, corpusSeed(stem)});
        for (std::uint64_t key = 0; key < 48; ++key)
            out.push_back({"synthesize(1, " + std::to_string(key) + ")",
                           fuzz::synthesize(1, key)});
        return out;
    }();
    return all;
}

Builder
lowering(const fuzz::AttackerIr &ir)
{
    return [&ir](std::uint64_t secret) { return ir.lower(secret); };
}

/**
 * @p builder with the full path forced: each program also writes zero
 * to a word of its own past the data it has. An unwritten word reads
 * zero too, so no run changes, but the programs' initialised address
 * sets differ and dataDifference gives up.
 */
Builder
fullPath(Builder builder)
{
    auto calls = std::make_shared<Addr>(0);
    return [builder = std::move(builder), calls](std::uint64_t secret) {
        Program program = builder(secret);
        const auto words = program.initialData.words();
        const Addr past = words.empty() ? 0 : words.back().first;
        program.initialData.write(past + kWordBytes * ++*calls, 0);
        return program;
    };
}

/**
 * The words checkLeakPairs watches for @p programs: every address where
 * one differs from the first, sorted. nullopt when one differs from the
 * first in anything but data values.
 */
std::optional<std::vector<Addr>>
watchedWords(const std::vector<Program> &programs)
{
    std::vector<Addr> words;
    for (const Program &program : programs) {
        const auto diff = security::dataDifference(programs[0], program);
        if (!diff)
            return std::nullopt;
        for (const auto &word : *diff)
            words.push_back(word.first);
    }
    std::sort(words.begin(), words.end());
    words.erase(std::unique(words.begin(), words.end()), words.end());
    return words;
}

/** The distinct secrets of @p pairs in first-use order. */
std::vector<std::uint64_t>
distinctSecrets(const std::vector<security::SecretPair> &pairs)
{
    std::vector<std::uint64_t> secrets;
    for (const security::SecretPair &pair : pairs) {
        for (std::uint64_t secret : {pair.a, pair.b}) {
            if (std::find(secrets.begin(), secrets.end(), secret) ==
                secrets.end())
                secrets.push_back(secret);
        }
    }
    return secrets;
}

/** The oracle's run configuration for @p column (security/leak.cc). */
SimConfig
runConfig(SimConfig column)
{
    column.watchdogThrows = true;
    return column;
}

/** One run as the oracle sees it: its result, or its wedge message. */
struct OracleRun
{
    SimResult result;
    std::string wedge;
};

OracleRun
runOnce(const Program &program, const SimConfig &config, ReadWatch *watch)
{
    OracleRun run;
    try {
        run.result = watch ? runProgram(program, config, *watch)
                           : runProgram(program, config);
    } catch (const WatchdogError &error) {
        run.wedge = error.what();
    }
    return run;
}

void
expectSameRun(const OracleRun &shared, const OracleRun &full,
              const std::string &where)
{
    EXPECT_EQ(full.wedge, shared.wedge) << where;
    EXPECT_EQ(full.result.cycles, shared.result.cycles) << where;
    EXPECT_EQ(full.result.instructions, shared.result.instructions)
        << where;
    EXPECT_EQ(full.result.uarchDigest, shared.result.uarchDigest) << where;
    EXPECT_EQ(full.result.cacheDigest, shared.result.cacheDigest) << where;
    EXPECT_EQ(full.result.halted, shared.result.halted) << where;
    EXPECT_EQ(full.result.hitMaxCycles, shared.result.hitMaxCycles)
        << where;
    EXPECT_EQ(full.result.counters, shared.result.counters) << where;
}

void
expectSameCheck(const security::LeakCheck &fast,
                const security::LeakCheck &full, const std::string &where)
{
    EXPECT_EQ(fast.verdict, full.verdict) << where;
    EXPECT_EQ(fast.digestA, full.digestA) << where;
    EXPECT_EQ(fast.digestB, full.digestB) << where;
    EXPECT_EQ(fast.secretA, full.secretA) << where;
    EXPECT_EQ(fast.secretB, full.secretB) << where;
    EXPECT_EQ(fast.reason, full.reason) << where;
    EXPECT_EQ(fast.cycles, full.cycles) << where;
}

SimConfig
unsafeConfig()
{
    SimConfig config = fuzz::oracleBaseConfig();
    config.scheme = Scheme::Unsafe;
    config.addressPrediction = false;
    return config;
}

TEST(LeakEarlyExitTest, EveryEarlyExitEqualsTheFullPath)
{
    const auto pairs = security::defaultSecretPairs(1);
    const auto secrets = distinctSecrets(pairs);
    std::size_t skipped = 0, read_columns = 0;
    for (const Subject &subject : subjects()) {
        std::vector<Program> programs;
        for (std::uint64_t secret : secrets)
            programs.push_back(subject.ir.lower(secret));
        // Lowering varies only the secret data words.
        const auto words = watchedWords(programs);
        ASSERT_TRUE(words.has_value()) << subject.label;
        for (const SimConfig &column :
             evaluationConfigs(fuzz::oracleBaseConfig())) {
            const std::string where = subject.label + " under " +
                                      column.label();
            const SimConfig config = runConfig(column);
            ReadWatch watch;
            watch.words = *words;
            const OracleRun shared = runOnce(programs[0], config, &watch);
            if (watch.read) {
                // checkLeakPairs simulates every secret here, as it
                // did before the early exit existed.
                ++read_columns;
                continue;
            }
            for (std::size_t i = 1; i < programs.size(); ++i) {
                ++skipped;
                expectSameRun(shared, runOnce(programs[i], config, nullptr),
                              where + ", secret " +
                                  std::to_string(secrets[i]));
            }
            expectSameCheck(
                security::checkLeakPairs(lowering(subject.ir), column,
                                         pairs, /*quiet=*/true),
                security::checkLeakPairs(fullPath(lowering(subject.ir)),
                                         column, pairs, /*quiet=*/true),
                where);
        }
    }
    // Both sides of the rule were exercised.
    EXPECT_GT(skipped, 0u);
    EXPECT_GT(read_columns, 0u);
}

/** A committed load whose line is picked by an immediate: the secret. */
Program
immediateSecretProgram(std::uint64_t secret)
{
    Assembler assembler("immediate-secret");
    assembler.li(1, 0x10000 + (secret % 8) * 64).ld(2, 1).halt();
    return assembler.finish();
}

TEST(LeakEarlyExitTest, SecretInAnImmediateRunsEverySecret)
{
    EXPECT_FALSE(
        watchedWords({immediateSecretProgram(3), immediateSecretProgram(5)})
            .has_value());
    // The programs have no data words at all: a watch over "the words
    // that differ" would be empty, never fire, and read NoLeak.
    const auto check = security::checkLeakPairs(
        immediateSecretProgram, unsafeConfig(),
        security::defaultSecretPairs(1));
    EXPECT_TRUE(check.leaked()) << security::verdictName(check.verdict);
}

TEST(LeakEarlyExitTest, WrongPathSecretReadTakesTheFullPath)
{
    const fuzz::AttackerIr ir = corpusSeed("spectre_v1");
    const std::vector<Program> programs = {ir.lower(3), ir.lower(5)};
    const auto words = watchedWords(programs);
    ASSERT_TRUE(words.has_value());
    ASSERT_FALSE(words->empty());

    // No committed access touches a secret word ...
    FunctionalCore functional(programs[0]);
    while (!functional.halted()) {
        const StepResult step = functional.step();
        if (step.effAddr == kInvalidAddr)
            continue;
        EXPECT_FALSE(std::binary_search(words->begin(), words->end(),
                                        step.effAddr - step.effAddr %
                                                           kWordBytes))
            << "committed access to a secret word at " << step.effAddr;
    }
    // ... yet the Unsafe core reads one on the wrong path, so the
    // first run cannot stand for the others.
    ReadWatch watch;
    watch.words = *words;
    runOnce(programs[0], runConfig(unsafeConfig()), &watch);
    EXPECT_TRUE(watch.read);

    const auto check = security::checkLeak(lowering(ir), unsafeConfig());
    EXPECT_TRUE(check.leaked()) << security::verdictName(check.verdict);
}

/** Architecturally spins forever; ignores the secret. */
Program
nonHaltingProgram(std::uint64_t)
{
    Assembler assembler("non-halting");
    assembler.label("spin").jmp("spin").halt();
    return assembler.finish();
}

TEST(LeakEarlyExitTest, SharedInconclusiveRunKeepsItsReason)
{
    SimConfig config = unsafeConfig();
    config.maxCycles = 20'000;
    // Identical programs: the first run stands for every secret.
    ASSERT_TRUE(
        watchedWords({nonHaltingProgram(3), nonHaltingProgram(5)})->empty());
    const auto check = security::checkLeak(nonHaltingProgram, config);
    EXPECT_TRUE(check.inconclusive());
    EXPECT_EQ(check.reason,
              "run A hit the maxCycles limit without committing HALT");
    expectSameCheck(check,
                    security::checkLeak(fullPath(nonHaltingProgram), config),
                    "non-halting");
}

} // namespace
} // namespace dgsim
