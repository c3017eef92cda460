/**
 * @file
 * Tests for the parallel experiment runner: thread-count-independent
 * determinism, per-job failure isolation, and JSONL round-tripping.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <stdexcept>

#include "runner/experiment_runner.hh"
#include "runner/result_sink.hh"
#include "runner/sweep.hh"
#include "runner/thread_pool.hh"
#include "workloads/suite.hh"
#include "sweep_fixtures.hh"

namespace dgsim::runner
{
namespace
{

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    std::atomic<int> hits{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&hits] { ++hits; });
    pool.wait();
    EXPECT_EQ(hits.load(), 100);

    // The pool stays usable after a wait().
    pool.submit([&hits] { ++hits; });
    pool.wait();
    EXPECT_EQ(hits.load(), 101);
}

TEST(ExperimentRunner, FourThreadsMatchSerialByteForByte)
{
    const SweepSpec spec = smallSpec(2'000);

    RunnerOptions serial;
    serial.threads = 1;
    serial.progress = false;
    ExperimentRunner serialRunner(serial);
    const auto serialOutcomes = serialRunner.run(spec);

    RunnerOptions parallel;
    parallel.threads = 4;
    parallel.progress = false;
    ExperimentRunner parallelRunner(parallel);
    const auto parallelOutcomes = parallelRunner.run(spec);

    ASSERT_EQ(serialOutcomes.size(), spec.jobCount());
    ASSERT_EQ(parallelOutcomes.size(), spec.jobCount());
    EXPECT_EQ(jsonlOf(serialOutcomes), jsonlOf(parallelOutcomes));
    for (const JobOutcome &outcome : parallelOutcomes)
        EXPECT_TRUE(outcome.ok) << outcome.workload << " / "
                                << outcome.configLabel << ": "
                                << outcome.error;
}

TEST(ExperimentRunner, ThrowingJobIsIsolated)
{
    const SweepSpec spec = smallSpec(1'000);

    RunnerOptions options;
    options.threads = 4;
    options.progress = false;
    options.execute = [](const Job &job) -> SimResult {
        if (job.config.scheme == Scheme::Stt)
            throw std::runtime_error("injected failure for " + job.workload);
        SimResult result;
        result.workload = job.workload;
        result.configLabel = job.config.label();
        result.cycles = job.index + 1;
        return result;
    };
    ExperimentRunner runner(options);
    const auto outcomes = runner.run(spec);

    ASSERT_EQ(outcomes.size(), spec.jobCount());
    std::size_t failed = 0;
    for (const JobOutcome &outcome : outcomes) {
        if (outcome.configLabel.rfind("STT", 0) == 0) {
            EXPECT_FALSE(outcome.ok);
            EXPECT_NE(outcome.error.find("injected failure"),
                      std::string::npos);
            ++failed;
        } else {
            EXPECT_TRUE(outcome.ok) << outcome.error;
            // The pool kept executing and results stayed index-ordered.
            EXPECT_EQ(outcome.result.cycles, outcome.index + 1);
        }
    }
    // STT and STT+AP columns for each of the two workloads.
    EXPECT_EQ(failed, 4u);
}

/** An outcome exercising every serialized field, incl. nasty strings. */
JobOutcome
fullyPopulatedOutcome()
{
    JobOutcome outcome;
    outcome.index = 7;
    outcome.workload = "name,with \"quotes\"";
    outcome.suite = "SPEC2006";
    outcome.configLabel = "DoM+AP";
    outcome.ok = true;
    outcome.error = "";
    SimResult &r = outcome.result;
    r.workload = outcome.workload;
    r.configLabel = outcome.configLabel;
    r.cycles = 123456789;
    r.instructions = 987654;
    r.ipc = 1.0 / 3.0;
    r.l1Accesses = 11;
    r.l1Misses = 12;
    r.l2Accesses = 13;
    r.l2Misses = 14;
    r.l3Accesses = 15;
    r.dramAccesses = 16;
    r.dgCoverage = 0.875;
    r.dgAccuracy = 0.3333333333333333;
    r.dgAttached = 17;
    r.dgIssued = 18;
    r.dgVerifiedOk = 19;
    r.dgVerifiedBad = 20;
    r.committedLoads = 21;
    r.committedStores = 22;
    r.committedBranches = 23;
    r.branchSquashes = 24;
    r.memOrderSquashes = 25;
    r.domDelayed = 26;
    r.stlForwards = 27;
    r.cacheDigest = 0xffffffffffffffffULL; // Needs full uint64 range.
    r.counters["core.cycles"] = 123456789;
    r.counters["weird name, with\ncomma+newline"] = 42;
    return outcome;
}

JobOutcome
failedOutcome()
{
    JobOutcome outcome;
    outcome.index = 8;
    outcome.workload = "mcf";
    outcome.suite = "SPEC2006";
    outcome.configLabel = "STT";
    outcome.ok = false;
    outcome.error = "line1\nline2 with \"quotes\" and \\backslash";
    return outcome;
}

void
expectOutcomeEq(const JobOutcome &actual, const JobOutcome &expected)
{
    EXPECT_EQ(actual.index, expected.index);
    EXPECT_EQ(actual.workload, expected.workload);
    EXPECT_EQ(actual.suite, expected.suite);
    EXPECT_EQ(actual.configLabel, expected.configLabel);
    EXPECT_EQ(actual.ok, expected.ok);
    EXPECT_EQ(actual.error, expected.error);
    const SimResult &a = actual.result;
    const SimResult &e = expected.result;
    EXPECT_EQ(a.cycles, e.cycles);
    EXPECT_EQ(a.instructions, e.instructions);
    EXPECT_EQ(a.ipc, e.ipc);
    EXPECT_EQ(a.l1Accesses, e.l1Accesses);
    EXPECT_EQ(a.l1Misses, e.l1Misses);
    EXPECT_EQ(a.l2Accesses, e.l2Accesses);
    EXPECT_EQ(a.l2Misses, e.l2Misses);
    EXPECT_EQ(a.l3Accesses, e.l3Accesses);
    EXPECT_EQ(a.dramAccesses, e.dramAccesses);
    EXPECT_EQ(a.dgCoverage, e.dgCoverage);
    EXPECT_EQ(a.dgAccuracy, e.dgAccuracy);
    EXPECT_EQ(a.dgAttached, e.dgAttached);
    EXPECT_EQ(a.dgIssued, e.dgIssued);
    EXPECT_EQ(a.dgVerifiedOk, e.dgVerifiedOk);
    EXPECT_EQ(a.dgVerifiedBad, e.dgVerifiedBad);
    EXPECT_EQ(a.committedLoads, e.committedLoads);
    EXPECT_EQ(a.committedStores, e.committedStores);
    EXPECT_EQ(a.committedBranches, e.committedBranches);
    EXPECT_EQ(a.branchSquashes, e.branchSquashes);
    EXPECT_EQ(a.memOrderSquashes, e.memOrderSquashes);
    EXPECT_EQ(a.domDelayed, e.domDelayed);
    EXPECT_EQ(a.stlForwards, e.stlForwards);
    EXPECT_EQ(a.cacheDigest, e.cacheDigest);
    EXPECT_EQ(a.counters, e.counters);
}

TEST(ResultJsonl, RoundTripsAllFields)
{
    const std::vector<JobOutcome> original = {fullyPopulatedOutcome(),
                                              failedOutcome()};
    std::stringstream ss(jsonlOf(original));
    const std::vector<JobOutcome> loaded = readJsonl(ss);
    ASSERT_EQ(loaded.size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i)
        expectOutcomeEq(loaded[i], original[i]);
}

TEST(ExperimentRunner, FourThreadsReturnIndexOrder)
{
    const SweepSpec spec = smallSpec(1'000);

    RunnerOptions options;
    options.threads = 4;
    options.progress = false;
    options.execute = [](const Job &job) {
        SimResult result;
        result.cycles = job.index;
        return result;
    };
    const std::vector<JobOutcome> outcomes =
        ExperimentRunner(options).run(spec);

    ASSERT_EQ(outcomes.size(), spec.jobCount());
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        EXPECT_EQ(outcomes[i].index, i);
        EXPECT_EQ(outcomes[i].result.cycles, i);
    }
}

TEST(SweepSpec, ExpansionSharesProgramsAcrossConfigs)
{
    const SweepSpec spec = smallSpec(1'000);
    const std::vector<Job> jobs = spec.expand();
    ASSERT_EQ(jobs.size(), 16u);
    // The 8 configuration columns of one workload share one Program.
    for (std::size_t i = 1; i < 8; ++i)
        EXPECT_EQ(jobs[i].program.get(), jobs[0].program.get());
    EXPECT_NE(jobs[8].program.get(), jobs[0].program.get());
    EXPECT_EQ(jobs[0].workload, "gobmk");
    EXPECT_EQ(jobs[8].workload, "h264ref");
}

} // namespace
} // namespace dgsim::runner
