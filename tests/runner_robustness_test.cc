/**
 * @file
 * Fault-tolerance tests for the experiment runner: retry/backoff
 * classification, deterministic fault injection, cooperative drain,
 * the completion journal and kill/resume round-trips, and the
 * wall-clock job timeout.
 *
 * Drain is driven through the cancel flag (the exact state a real
 * SIGINT sets), not through signals: ctest runs these in-process and a
 * raised signal would be indistinguishable from a hung test.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/errors.hh"
#include "common/signals.hh"
#include "runner/experiment_runner.hh"
#include "runner/journal.hh"
#include "runner/sweep.hh"
#include "workloads/suite.hh"
#include "sweep_fixtures.hh"

namespace dgsim::runner
{
namespace
{

/** Thread-safe per-job execution counter shared by the mock executors. */
class ExecutionLog
{
  public:
    void
    bump(std::size_t index)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++counts_[index];
    }

    unsigned
    count(std::size_t index) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = counts_.find(index);
        return it == counts_.end() ? 0 : it->second;
    }

    std::size_t
    jobsExecuted() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return counts_.size();
    }

  private:
    mutable std::mutex mutex_;
    std::map<std::size_t, unsigned> counts_;
};

/** Deterministic mock result so serialized outputs are comparable. */
SimResult
mockResult(const Job &job)
{
    SimResult result;
    result.workload = job.workload;
    result.configLabel = job.config.label();
    result.cycles = 1000 + job.index;
    result.instructions = 500 + job.index;
    result.ipc = 0.5;
    return result;
}

/** Options with retries on and no real sleeping between attempts. */
RunnerOptions
fastRetryOptions(unsigned threads, unsigned maxAttempts)
{
    RunnerOptions options;
    options.threads = threads;
    options.progress = false;
    options.maxAttempts = maxAttempts;
    options.backoff.baseMs = 0; // Tests should not sleep.
    return options;
}

std::string
tempPath(const char *name)
{
    return testing::TempDir() + name;
}

TEST(RunnerRetry, TransientFailuresRetryUntilSuccess)
{
    const SweepSpec spec = smallSpec(1'000);
    auto log = std::make_shared<ExecutionLog>();

    RunnerOptions options = fastRetryOptions(4, 3);
    options.execute = [log](const Job &job) {
        log->bump(job.index);
        // Fail the first two attempts of every job, succeed on the third.
        if (log->count(job.index) < 3)
            throw TransientError("flaky host for " + job.workload);
        return mockResult(job);
    };
    const auto outcomes = ExperimentRunner(options).run(spec);

    ASSERT_EQ(outcomes.size(), spec.jobCount());
    for (const JobOutcome &outcome : outcomes) {
        EXPECT_TRUE(outcome.ok) << outcome.error;
        EXPECT_EQ(outcome.attempts, 3u);
        EXPECT_TRUE(outcome.error.empty());
        EXPECT_EQ(log->count(outcome.index), 3u);
        EXPECT_EQ(outcome.result.cycles, 1000 + outcome.index);
    }
}

TEST(RunnerRetry, ExhaustionSurfacesTheOriginalError)
{
    const SweepSpec spec = smallSpec(1'000);
    auto log = std::make_shared<ExecutionLog>();

    RunnerOptions options = fastRetryOptions(4, 3);
    options.execute = [log](const Job &job) -> SimResult {
        log->bump(job.index);
        throw TransientError("disk on fire for " + job.workload);
    };
    const auto outcomes = ExperimentRunner(options).run(spec);

    for (const JobOutcome &outcome : outcomes) {
        EXPECT_FALSE(outcome.ok);
        EXPECT_EQ(outcome.attempts, 3u);
        EXPECT_EQ(log->count(outcome.index), 3u);
        EXPECT_NE(outcome.error.find("disk on fire for " + outcome.workload),
                  std::string::npos)
            << outcome.error;
    }
}

TEST(RunnerRetry, DeterministicSimErrorsAreNeverRetried)
{
    const SweepSpec spec = smallSpec(1'000);
    auto log = std::make_shared<ExecutionLog>();

    RunnerOptions options = fastRetryOptions(4, 5);
    options.execute = [log](const Job &job) -> SimResult {
        log->bump(job.index);
        throw std::runtime_error("bad program in " + job.workload);
    };
    const auto outcomes = ExperimentRunner(options).run(spec);

    for (const JobOutcome &outcome : outcomes) {
        EXPECT_FALSE(outcome.ok);
        // Reported once: exactly one attempt despite a budget of 5.
        EXPECT_EQ(outcome.attempts, 1u);
        EXPECT_EQ(log->count(outcome.index), 1u);
        EXPECT_NE(outcome.error.find("bad program"), std::string::npos);
    }
}

TEST(RunnerInject, FaultInjectionIsDeterministicAndRecovers)
{
    const SweepSpec spec = smallSpec(1'000);

    auto runOnce = [&](double rate, std::uint64_t seed, unsigned threads) {
        RunnerOptions options = fastRetryOptions(threads, 16);
        options.execute = mockResult;
        options.injectFailRate = rate;
        options.injectFailSeed = seed;
        return ExperimentRunner(options).run(spec);
    };

    const auto faulty = runOnce(0.6, 42, 4);
    const auto faultyAgain = runOnce(0.6, 42, 2);
    const auto clean = runOnce(0.0, 0, 4);

    // With enough attempts the faulty sweep completes...
    for (const JobOutcome &outcome : faulty)
        EXPECT_TRUE(outcome.ok) << outcome.error;
    // ...its serialized results match the fault-free run byte for byte...
    EXPECT_EQ(jsonlOf(faulty), jsonlOf(clean));
    // ...and the retry *schedule* is a pure function of (rate, seed),
    // independent of the thread count.
    bool anyRetried = false;
    for (std::size_t i = 0; i < faulty.size(); ++i) {
        EXPECT_EQ(faulty[i].attempts, faultyAgain[i].attempts);
        anyRetried |= faulty[i].attempts > 1;
    }
    EXPECT_TRUE(anyRetried) << "rate 0.6 should have faulted something";
}

TEST(RunnerDrain, CancelStopsDispatchAndFinishesInFlight)
{
    const SweepSpec spec = smallSpec(1'000);
    std::atomic<bool> cancel{false};
    auto log = std::make_shared<ExecutionLog>();

    RunnerOptions options = fastRetryOptions(1, 1); // Serial: determinism.
    options.cancel = &cancel;
    options.execute = [log, &cancel](const Job &job) {
        log->bump(job.index);
        // The drain request lands while job 2 is in flight; it must
        // still finish, and nothing later may start.
        if (job.index == 2)
            cancel.store(true);
        return mockResult(job);
    };
    const auto outcomes = ExperimentRunner(options).run(spec);

    ASSERT_EQ(outcomes.size(), spec.jobCount());
    EXPECT_EQ(log->jobsExecuted(), 3u);
    for (const JobOutcome &outcome : outcomes) {
        if (outcome.index <= 2) {
            EXPECT_TRUE(outcome.ok) << outcome.error;
            EXPECT_EQ(outcome.attempts, 1u);
        } else {
            EXPECT_FALSE(outcome.ok);
            EXPECT_EQ(outcome.attempts, 0u);
            EXPECT_NE(outcome.error.find("interrupted"), std::string::npos);
        }
    }
}

TEST(RunnerDrain, CancelAbandonsPendingRetries)
{
    const SweepSpec spec = smallSpec(1'000);
    std::atomic<bool> cancel{false};
    auto log = std::make_shared<ExecutionLog>();

    RunnerOptions options = fastRetryOptions(1, 10);
    options.cancel = &cancel;
    options.execute = [log, &cancel](const Job &job) -> SimResult {
        log->bump(job.index);
        cancel.store(true); // Drain arrives during the first attempt...
        throw TransientError("flaky");
    };
    const auto outcomes = ExperimentRunner(options).run(spec);

    // ...so the failing job gives up instead of burning 9 more retries,
    // and every queued job is skipped.
    EXPECT_EQ(log->jobsExecuted(), 1u);
    EXPECT_EQ(log->count(0), 1u);
    EXPECT_FALSE(outcomes[0].ok);
    EXPECT_NE(outcomes[0].error.find("retries abandoned"),
              std::string::npos);
}

TEST(RunnerJournal, KillAndResumeMatchesUninterruptedByteForByte)
{
    const SweepSpec spec = smallSpec(1'000);
    const std::string journalPath =
        tempPath("kill_resume_journal.jsonl");
    std::remove(journalPath.c_str());

    // Reference: the same sweep, uninterrupted.
    RunnerOptions reference = fastRetryOptions(4, 1);
    reference.execute = mockResult;
    const auto uninterrupted = ExperimentRunner(reference).run(spec);

    // "Killed" run: serial so the cut point is deterministic — jobs
    // 0..4 complete (and are journaled), the rest never start.
    std::atomic<bool> cancel{false};
    RunnerOptions interrupted = fastRetryOptions(1, 1);
    interrupted.journalPath = journalPath;
    interrupted.cancel = &cancel;
    interrupted.execute = [&cancel](const Job &job) {
        if (job.index == 4)
            cancel.store(true);
        return mockResult(job);
    };
    const auto partial = ExperimentRunner(interrupted).run(spec);
    std::size_t completed = 0;
    for (const JobOutcome &outcome : partial)
        completed += outcome.ok;
    ASSERT_EQ(completed, 5u);

    // Resume: journaled successes restore without re-execution, the
    // rest run, and the merged output is byte-identical.
    auto log = std::make_shared<ExecutionLog>();
    RunnerOptions resumed = fastRetryOptions(4, 1);
    resumed.journalPath = journalPath;
    resumed.resume = loadJournal(journalPath);
    ASSERT_EQ(resumed.resume.size(), 5u);
    resumed.execute = [log](const Job &job) {
        log->bump(job.index);
        return mockResult(job);
    };
    const auto merged = ExperimentRunner(resumed).run(spec);

    EXPECT_EQ(log->jobsExecuted(), spec.jobCount() - 5);
    for (const JobOutcome &outcome : merged) {
        EXPECT_TRUE(outcome.ok) << outcome.error;
        EXPECT_EQ(outcome.resumed, outcome.index < 5);
        EXPECT_EQ(log->count(outcome.index), outcome.index < 5 ? 0u : 1u);
    }
    EXPECT_EQ(jsonlOf(merged), jsonlOf(uninterrupted));
}

TEST(RunnerJournal, JournaledFailuresRunAgainOnResume)
{
    const SweepSpec spec = smallSpec(1'000);
    const std::string journalPath = tempPath("retry_on_resume.jsonl");
    std::remove(journalPath.c_str());

    // First run: every job fails deterministically and is journaled.
    RunnerOptions failing = fastRetryOptions(2, 1);
    failing.journalPath = journalPath;
    failing.execute = [](const Job &) -> SimResult {
        throw std::runtime_error("first run fails");
    };
    ExperimentRunner(failing).run(spec);

    // Resume: failures are not "completed" — all jobs execute again.
    auto log = std::make_shared<ExecutionLog>();
    RunnerOptions resumed = fastRetryOptions(2, 1);
    resumed.resume = loadJournal(journalPath);
    ASSERT_EQ(resumed.resume.size(), spec.jobCount());
    resumed.execute = [log](const Job &job) {
        log->bump(job.index);
        return mockResult(job);
    };
    const auto merged = ExperimentRunner(resumed).run(spec);

    EXPECT_EQ(log->jobsExecuted(), spec.jobCount());
    for (const JobOutcome &outcome : merged) {
        EXPECT_TRUE(outcome.ok) << outcome.error;
        EXPECT_FALSE(outcome.resumed);
    }
}

TEST(RunnerJournal, LoadToleratesTruncatedFinalRecord)
{
    const SweepSpec spec = smallSpec(1'000);
    const std::string journalPath = tempPath("truncated_tail.jsonl");
    std::remove(journalPath.c_str());

    RunnerOptions options = fastRetryOptions(2, 1);
    options.journalPath = journalPath;
    options.execute = mockResult;
    ExperimentRunner(options).run(spec);

    // A kill mid-write leaves a partial line; loading must drop it and
    // keep every complete record.
    {
        std::ofstream out(journalPath, std::ios::app);
        out << "{\"key\":\"half-writ";
    }
    const JournalMap map = loadJournal(journalPath);
    EXPECT_EQ(map.size(), spec.jobCount());
}

TEST(RunnerJournal, ResumeAfterTornTailKeepsEveryRecord)
{
    const SweepSpec spec = smallSpec(1'000);
    const std::string journalPath = tempPath("torn_tail_resume.jsonl");
    std::remove(journalPath.c_str());

    // A run killed mid-write: jobs 0..4 journaled, then a torn record.
    std::atomic<bool> cancel{false};
    RunnerOptions interrupted = fastRetryOptions(1, 1);
    interrupted.journalPath = journalPath;
    interrupted.cancel = &cancel;
    interrupted.execute = [&cancel](const Job &job) {
        if (job.index == 4)
            cancel.store(true);
        return mockResult(job);
    };
    ExperimentRunner(interrupted).run(spec);
    {
        std::ofstream out(journalPath, std::ios::app);
        out << "{\"key\":\"half-writ";
    }

    // Resume into the same file, as `dgrun --resume J` does. Its
    // records must not glue onto the fragment.
    RunnerOptions resumed = fastRetryOptions(2, 1);
    resumed.journalPath = journalPath;
    resumed.resume = loadJournal(journalPath);
    ASSERT_EQ(resumed.resume.size(), 5u);
    resumed.execute = mockResult;
    ExperimentRunner(resumed).run(spec);

    EXPECT_EQ(loadJournal(journalPath).size(), spec.jobCount());
}

TEST(RunnerJournal, AppendFailureIsFatal)
{
    // A full disk must stop the run, not drop records without a word.
    // (/dev/full is a character device: nothing to trim on open.)
    JobOutcome outcome;
    outcome.ok = true;
    EXPECT_EXIT(
        {
            JournalWriter writer("/dev/full");
            writer.record("job", outcome);
        },
        testing::ExitedWithCode(1), "append failed");
}

TEST(RunnerJournal, MissingJournalLoadsEmpty)
{
    EXPECT_TRUE(loadJournal(tempPath("nonexistent.jsonl")).empty());
}

TEST(RunnerJournal, JobKeyTracksIdentityNotIndex)
{
    const std::vector<Job> jobs = smallSpec(1'000).expand();
    // Same job content, different index: identical key.
    Job reindexed = jobs[3];
    reindexed.index = 99;
    EXPECT_EQ(jobKey(jobs[3]), jobKey(reindexed));
    // Different budget: different key (stale journals must not match).
    Job rebudgeted = jobs[3];
    rebudgeted.config.maxInstructions += 1;
    EXPECT_NE(jobKey(jobs[3]), jobKey(rebudgeted));
    // All keys within a sweep are distinct.
    std::set<std::string> keys;
    for (const Job &job : jobs)
        keys.insert(jobKey(job));
    EXPECT_EQ(keys.size(), jobs.size());
}

TEST(RunnerJournal, JobKeyCoversSampledSimulationShape)
{
    // A journal record from a plain run must never satisfy a resumed
    // sweep whose jobs fast-forward, sample or touch checkpoints:
    // every run-shape field must perturb the key.
    const std::vector<Job> jobs = smallSpec(1'000).expand();
    const Job &base = jobs[0];
    const auto mutated = [&](auto &&tweak) {
        Job job = base;
        tweak(job.config);
        return jobKey(job);
    };
    EXPECT_NE(jobKey(base),
              mutated([](SimConfig &c) { c.ffwdInstructions = 50'000; }));
    EXPECT_NE(jobKey(base),
              mutated([](SimConfig &c) { c.sampleInterval = 10'000; }));
    EXPECT_NE(jobKey(base),
              mutated([](SimConfig &c) { c.sampleDetail = 1'000; }));
    EXPECT_NE(jobKey(base),
              mutated([](SimConfig &c) { c.ckptSavePath = "a.ckpt"; }));
    EXPECT_NE(jobKey(base),
              mutated([](SimConfig &c) { c.ckptSaveInst = 25'000; }));
    EXPECT_NE(jobKey(base),
              mutated([](SimConfig &c) { c.ckptRestorePath = "a.ckpt"; }));
    // And each field perturbs it differently (no accidental aliasing
    // between the path fields or the counters).
    std::set<std::string> keys{jobKey(base)};
    keys.insert(mutated([](SimConfig &c) { c.ffwdInstructions = 1; }));
    keys.insert(mutated([](SimConfig &c) { c.sampleInterval = 1; }));
    keys.insert(mutated([](SimConfig &c) { c.sampleDetail = 1; }));
    keys.insert(mutated([](SimConfig &c) { c.ckptSaveInst = 1; }));
    keys.insert(mutated([](SimConfig &c) { c.ckptSavePath = "x"; }));
    keys.insert(mutated([](SimConfig &c) { c.ckptRestorePath = "x"; }));
    EXPECT_EQ(keys.size(), 7u);
}

TEST(RunnerJournal, SyncedJournalRoundTrips)
{
    const SweepSpec spec = smallSpec(1'000);
    const std::string journalPath = tempPath("synced_journal.jsonl");
    std::remove(journalPath.c_str());

    // --journal-sync path: every record is fsync'd after its write;
    // the journal must still load identically.
    RunnerOptions options = fastRetryOptions(2, 1);
    options.journalPath = journalPath;
    options.journalSync = true;
    options.execute = mockResult;
    const auto outcomes = ExperimentRunner(options).run(spec);

    const JournalMap map = loadJournal(journalPath);
    ASSERT_EQ(map.size(), spec.jobCount());
    for (const JobOutcome &outcome : outcomes) {
        EXPECT_TRUE(outcome.ok) << outcome.error;
        const auto it = map.find(jobKey(spec.expand()[outcome.index]));
        ASSERT_NE(it, map.end());
        EXPECT_EQ(it->second.result.cycles, outcome.result.cycles);
    }
}

TEST(RunnerHeartbeat, PeriodicLinesAreEmittedAndWellFormed)
{
    const SweepSpec spec = smallSpec(1'000);
    telemetry::TelemetryConfig config;
    config.progressPeriodSec = 0.02;
    HeartbeatCapture capture(config);

    RunnerOptions options = fastRetryOptions(2, 1);
    options.execute = [](const Job &job) {
        // Slow enough that several heartbeat periods elapse mid-sweep.
        std::this_thread::sleep_for(std::chrono::milliseconds(15));
        return mockResult(job);
    };
    const auto outcomes = ExperimentRunner(options).run(spec);
    for (const JobOutcome &outcome : outcomes)
        EXPECT_TRUE(outcome.ok) << outcome.error;

    const std::vector<std::string> lines = capture.lines();
    for (const std::string &line : lines) {
        // Each heartbeat is one whole line: prefix, done/total counter
        // bounded by the sweep size, and a rate — never a fragment.
        EXPECT_EQ(line.find("[runner] heartbeat "), 0u) << line;
        EXPECT_EQ(line.back(), '\n') << line;
        std::size_t done = 0, total = 0;
        ASSERT_EQ(std::sscanf(line.c_str(), "[runner] heartbeat %zu/%zu",
                              &done, &total),
                  2)
            << line;
        EXPECT_LE(done, spec.jobCount());
        EXPECT_EQ(total, spec.jobCount());
    }
    EXPECT_GE(lines.size(), 2u);
}

TEST(RunnerHeartbeat, DisabledByDefault)
{
    const SweepSpec spec = smallSpec(1'000);
    // Telemetry on, progressPeriodSec left at 0: stays silent.
    HeartbeatCapture capture(telemetry::TelemetryConfig{});

    RunnerOptions options = fastRetryOptions(2, 1);
    options.execute = mockResult;
    ExperimentRunner(options).run(spec);

    EXPECT_TRUE(capture.lines().empty());
}

TEST(RunnerTimeout, WallClockTimeoutIsTransientAndRetried)
{
    // A genuinely endless run: no instruction or cycle limit, so only
    // the wall-clock deadline can end it.
    SimConfig base;
    base.maxInstructions = 0;
    base.maxCycles = 0;
    base.jobTimeoutMs = 40;

    SweepSpec spec;
    spec.workloads = {workloads::findWorkload("gobmk")};
    spec.configs = {base};
    spec.iterations = 0; // Endless kernel loop.

    RunnerOptions options = fastRetryOptions(1, 2);
    const auto outcomes = ExperimentRunner(options).run(spec);

    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_FALSE(outcomes[0].ok);
    // Timeouts classify as transient: both attempts were consumed.
    EXPECT_EQ(outcomes[0].attempts, 2u);
    EXPECT_NE(outcomes[0].error.find("wall-clock job timeout"),
              std::string::npos)
        << outcomes[0].error;
}

TEST(DrainFlagApi, ProgrammaticRequestAndReset)
{
    resetDrainFlagForTest();
    EXPECT_FALSE(drainRequested());
    EXPECT_FALSE(drainFlag().load());
    requestDrain();
    EXPECT_TRUE(drainRequested());
    EXPECT_TRUE(drainFlag().load());
    resetDrainFlagForTest();
    EXPECT_FALSE(drainRequested());
}

} // namespace
} // namespace dgsim::runner
