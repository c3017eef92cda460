/**
 * @file
 * Work-stealing coordinator tests: a forked multi-worker campaign
 * completes and byte-compares to a single-process run; a worker killed
 * mid-job (after claiming, before journaling — the worst moment) is
 * recovered by a fresh coordinator pass in the same invocation, or by
 * simply re-running the campaign; fault injection composes with it all.
 *
 * These tests really fork(): each worker is a separate process writing
 * its own journal, and the injected death is a literal _exit(9) between
 * the claim append and the journal record.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/linelog.hh"
#include "runner/campaign.hh"
#include "runner/coordinator.hh"
#include "runner/experiment_runner.hh"
#include "runner/journal.hh"
#include "runner/sweep.hh"
#include "telemetry/telemetry.hh"
#include "telemetry/trace.hh"
#include "sweep_fixtures.hh"

namespace dgsim::runner
{
namespace
{

/**
 * The same mock slowed down enough that every worker of a multi-worker
 * campaign gets to claim at least one job before the pool drains —
 * the death-injection tests need the doomed worker to reach a claim.
 */
SimResult
slowMockResult(const Job &job)
{
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    return identityMockResult(job);
}

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + name;
}

/** Write a fresh 3-shard manifest for the small sweep; clears leftover
    worker journals and claims so every test starts cold. */
std::string
freshManifest(const std::string &name, CampaignManifest &manifest,
              double injectFailRate = 0.0, std::uint64_t injectSeed = 0)
{
    manifest = CampaignManifest{};
    manifest.name = name;
    manifest.shards = 3;
    manifest.suite = "gobmk,h264ref";
    manifest.instructions = 1'000;
    manifest.retries = 12;
    manifest.retryBaseMs = 0;
    manifest.injectFailRate = injectFailRate;
    manifest.injectFailSeed = injectSeed;
    for (const Job &job : manifestSpec(manifest).expand())
        manifest.jobKeys.push_back(jobKey(job));

    const std::string path = tempPath(name + ".manifest");
    writeManifest(path, manifest);
    for (unsigned w = 0; w < 8; ++w)
        std::remove(workerJournalPath(path, w).c_str());
    std::remove(claimsPath(path).c_str());
    return path;
}

/** Append @p text to @p path: what a kill in the middle of write(2)
    leaves when @p text has no '\n'. */
void
appendText(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::app);
    out << text;
}

const char *const kTornRecord = "{\"key\":\"half-writ";
const char *const kTornEvent = "{\"name\":\"job\",\"cat\":\"jo";

/** Tracing into @p path for one test, merged and off again however
    the test ends. */
class TraceSession
{
  public:
    explicit TraceSession(const std::string &path)
    {
        std::remove(path.c_str());
        telemetry::TelemetryConfig config;
        config.tracePath = path;
        telemetry::enable(config);
    }

    ~TraceSession()
    {
        telemetry::finalizeTrace();
        telemetry::shutdown();
    }
};

/** The single-process reference the campaign must byte-match. */
std::vector<JobOutcome>
referenceRun(const CampaignManifest &manifest)
{
    RunnerOptions options;
    options.threads = 1;
    options.progress = false;
    options.maxAttempts = manifest.retries + 1;
    options.backoff.baseMs = 0;
    options.injectFailRate = manifest.injectFailRate;
    options.injectFailSeed = manifest.injectFailSeed;
    options.execute = identityMockResult;
    return ExperimentRunner(options).run(manifestSpec(manifest).expand());
}

TEST(Coordinator, CampaignMatchesSingleProcessByteForByte)
{
    CampaignManifest manifest;
    const std::string path = freshManifest("coord_clean", manifest);

    CoordinatorOptions options;
    options.workers = 3;
    options.progress = false;
    options.execute = identityMockResult;
    const CampaignReport report = runCampaign(path, manifest, options);

    EXPECT_EQ(report.total, manifest.jobKeys.size());
    EXPECT_EQ(report.ok, report.total);
    EXPECT_EQ(report.failed, 0u);
    EXPECT_EQ(report.missing, 0u);
    EXPECT_EQ(report.passes, 1u);
    EXPECT_EQ(report.workerDeaths, 0u);
    EXPECT_FALSE(report.drained);
    EXPECT_EQ(jsonlOf(report.outcomes), jsonlOf(referenceRun(manifest)));
}

TEST(Coordinator, RerunningACompleteCampaignResumesNotReruns)
{
    CampaignManifest manifest;
    const std::string path = freshManifest("coord_rerun", manifest);

    CoordinatorOptions options;
    options.workers = 2;
    options.progress = false;
    options.execute = identityMockResult;
    const CampaignReport first = runCampaign(path, manifest, options);
    ASSERT_EQ(first.missing, 0u);

    // Second invocation: every job is settled in the journals, so no
    // worker executes anything (no new claims appear).
    const CampaignReport second = runCampaign(path, manifest, options);
    EXPECT_EQ(second.ok, second.total);
    EXPECT_EQ(second.stolen, 0u);
    EXPECT_EQ(second.duplicates, 0u);
    EXPECT_EQ(jsonlOf(second.outcomes), jsonlOf(first.outcomes));
}

TEST(Coordinator, RerunAfterTornTailsMergesEveryJob)
{
    CampaignManifest manifest;
    const std::string path = freshManifest("coord_torn", manifest);
    const std::string trace = tempPath("coord_torn.trace.json");
    TraceSession tracing(trace);

    CoordinatorOptions options;
    options.workers = 2;
    options.progress = false;
    options.execute = identityMockResult;
    ASSERT_EQ(runCampaign(path, manifest, options).missing, 0u);

    // Force one job to re-run: drop the last record of a non-empty
    // worker journal (a fast worker may have stolen every job). Then
    // leave a torn tail in every journal, since whichever worker
    // re-runs the job appends after it, and in every part file.
    const std::vector<std::string> journals = {workerJournalPath(path, 0),
                                               workerJournalPath(path, 1)};
    const std::string &journal =
        readLogLines(journals[0]).empty() ? journals[1] : journals[0];
    std::vector<std::string> records = readLogLines(journal);
    ASSERT_FALSE(records.empty());
    records.pop_back();
    {
        std::ofstream out(journal, std::ios::trunc);
        for (const std::string &record : records)
            out << record << "\n";
    }
    for (unsigned w = 0; w < options.workers; ++w) {
        appendText(journals[w], kTornRecord);
        appendText(trace + ".w" + std::to_string(w) + ".events",
                   kTornEvent);
    }

    const CampaignReport rerun = runCampaign(path, manifest, options);
    EXPECT_EQ(rerun.ok, rerun.total);
    EXPECT_EQ(rerun.missing, 0u);
    EXPECT_EQ(rerun.passes, 1u);
    EXPECT_EQ(jsonlOf(rerun.outcomes), jsonlOf(referenceRun(manifest)));
    EXPECT_EQ(mergeJournals(journals).size(), rerun.total);

    telemetry::finalizeTrace();
    EXPECT_EQ(telemetry::validateTraceEvents(
                  telemetry::loadMergedTrace(trace)),
              "");
}

/** Executions in this process; a forked worker starts from the
    parent's 0, which never runs a job itself. */
std::atomic<unsigned> g_workerJobs{0};

TEST(Coordinator, WorkerKilledMidWriteIsRecoveredInRun)
{
    CampaignManifest manifest;
    const std::string path = freshManifest("coord_torn_kill", manifest);
    const std::string trace = tempPath("coord_torn_kill.trace.json");
    const std::string marker = tempPath("coord_torn_kill.marker");
    std::remove(marker.c_str());
    TraceSession tracing(trace);

    // The lone worker's third job leaves what a SIGKILL in the middle
    // of write(2) leaves — a torn journal record and a torn event line
    // — and dies, once. The recovery pass reopens both files.
    CoordinatorOptions options;
    options.workers = 1;
    options.progress = false;
    options.execute = [path, trace, marker](const Job &job) {
        if (++g_workerJobs == 3) {
            const int fd = ::open(marker.c_str(),
                                  O_WRONLY | O_CREAT | O_EXCL, 0644);
            if (fd >= 0) {
                appendText(workerJournalPath(path, 0), kTornRecord);
                appendText(trace + ".w0.events", kTornEvent);
                _exit(9);
            }
        }
        return identityMockResult(job);
    };
    const CampaignReport report = runCampaign(path, manifest, options);

    EXPECT_GE(report.workerDeaths, 1u);
    EXPECT_GE(report.passes, 2u);
    EXPECT_EQ(report.ok, report.total);
    EXPECT_EQ(jsonlOf(report.outcomes), jsonlOf(referenceRun(manifest)));

    telemetry::finalizeTrace();
    const std::vector<telemetry::TraceEvent> events =
        telemetry::loadMergedTrace(trace);
    EXPECT_EQ(telemetry::validateTraceEvents(events), "");
    bool recoveryPass = false;
    for (const telemetry::TraceEvent &event : events)
        recoveryPass |= event.name == "pass" && event.cat == "recovery";
    EXPECT_TRUE(recoveryPass);
}

TEST(Coordinator, WorkerDeathMidJobIsRecoveredInRun)
{
    CampaignManifest manifest;
    const std::string path = freshManifest("coord_death", manifest);
    const std::string marker = tempPath("coord_death.marker");
    std::remove(marker.c_str());

    // Worker 1 kills itself at its first claim — claimed, unjournaled.
    CoordinatorOptions options;
    options.workers = 3;
    options.progress = false;
    options.execute = slowMockResult;
    options.killWorker = 1;
    options.killAfterJobs = 0;
    options.killOnceMarker = marker;
    const CampaignReport report = runCampaign(path, manifest, options);

    // The death was observed, a recovery pass ran, and the merged
    // result is still complete and byte-identical.
    EXPECT_GE(report.workerDeaths, 1u);
    EXPECT_GE(report.passes, 2u);
    EXPECT_EQ(report.ok, report.total);
    EXPECT_EQ(report.missing, 0u);
    EXPECT_EQ(jsonlOf(report.outcomes), jsonlOf(referenceRun(manifest)));
}

TEST(Coordinator, KilledCampaignResumesOnRestart)
{
    CampaignManifest manifest;
    const std::string path = freshManifest("coord_restart", manifest);
    const std::string marker = tempPath("coord_restart.marker");
    std::remove(marker.c_str());

    // One worker, no recovery passes: the worker dies at its first
    // claim, so the first invocation journals nothing and reports the
    // whole campaign missing — the "coordinator itself was killed"
    // shape.
    CoordinatorOptions doomed;
    doomed.workers = 1;
    doomed.progress = false;
    doomed.maxPasses = 1;
    doomed.execute = identityMockResult;
    doomed.killWorker = 0;
    doomed.killAfterJobs = 0;
    doomed.killOnceMarker = marker;
    const CampaignReport first = runCampaign(path, manifest, doomed);
    EXPECT_GE(first.workerDeaths, 1u);
    EXPECT_GT(first.missing, 0u);

    // Restart: same campaign, no injection (the marker also makes the
    // kill once-only). Journals resume, the rest runs, the merged
    // output byte-matches an uninterrupted run.
    CoordinatorOptions restarted;
    restarted.workers = 3;
    restarted.progress = false;
    restarted.execute = identityMockResult;
    const CampaignReport second = runCampaign(path, manifest, restarted);
    EXPECT_EQ(second.workerDeaths, 0u);
    EXPECT_EQ(second.ok, second.total);
    EXPECT_EQ(second.missing, 0u);
    EXPECT_EQ(jsonlOf(second.outcomes), jsonlOf(referenceRun(manifest)));
}

TEST(Coordinator, FaultInjectionComposesWithWorkStealing)
{
    // Injected transient faults retry inside each worker (driven by the
    // manifest's budgets), and the final output still byte-matches a
    // clean single-process run — the retry schedule is identity-keyed,
    // so it lands identically no matter which worker runs the job.
    CampaignManifest manifest;
    const std::string path =
        freshManifest("coord_inject", manifest, 0.3, 7);

    CoordinatorOptions options;
    options.workers = 3;
    options.progress = false;
    options.execute = identityMockResult;
    const CampaignReport report = runCampaign(path, manifest, options);

    EXPECT_EQ(report.ok, report.total);
    EXPECT_EQ(report.missing, 0u);

    CampaignManifest clean = manifest;
    clean.injectFailRate = 0.0;
    EXPECT_EQ(jsonlOf(report.outcomes), jsonlOf(referenceRun(clean)));
}

TEST(Coordinator, HeartbeatAndLiveGaugesComeFromTheReporter)
{
    CampaignManifest manifest;
    const std::string path = freshManifest("coord_heartbeat", manifest);
    const std::string metrics = tempPath("coord_heartbeat.prom");
    std::remove(metrics.c_str());

    // The two outputs on different periods, from the one reporter.
    telemetry::TelemetryConfig config;
    config.metricsPath = metrics;
    config.metricsPeriodSec = 0.05;
    config.progressPeriodSec = 0.02;
    HeartbeatCapture capture(config);

    CoordinatorOptions options;
    options.workers = 2;
    options.progress = false;
    options.execute = slowMockResult;
    const CampaignReport report = runCampaign(path, manifest, options);
    ASSERT_EQ(report.ok, report.total);

    // Live lines come from the sampler while workers run; the last one
    // from the final tick, after the end-of-campaign gauges.
    const std::vector<std::string> lines = capture.lines();
    ASSERT_GE(lines.size(), 2u);
    std::size_t done = 0, total = 0, retried = 0, stolen = 0, alive = 0;
    double percent = 0.0, rate = 0.0;
    char eta[16] = "";  // "-" until a job completes, else e.g. "3s".
    bool sawLiveWorkers = false;
    for (const std::string &line : lines) {
        EXPECT_EQ(line.back(), '\n') << line;
        ASSERT_EQ(std::sscanf(line.c_str(),
                              "[campaign] heartbeat %zu/%zu jobs (%lf%%), "
                              "%lf jobs/s, ETA %15[^,], %zu retried, %zu "
                              "stolen, %zu worker(s) alive",
                              &done, &total, &percent, &rate, eta, &retried,
                              &stolen, &alive),
                  8)
            << line;
        EXPECT_EQ(std::string(eta) == "-", done == 0) << line;
        EXPECT_LE(done, total) << line;
        EXPECT_EQ(total, report.total) << line;
        EXPECT_LE(alive, options.workers) << line;
        sawLiveWorkers |= alive != 0;
    }
    EXPECT_TRUE(sawLiveWorkers);
    EXPECT_EQ(done, report.total);
    EXPECT_EQ(alive, 0u);

    // The final snapshot, written by the same tick.
    std::ifstream in(metrics);
    std::ostringstream text;
    text << in.rdbuf();
    const std::string snapshot = text.str();
    EXPECT_NE(snapshot.find("# TYPE dgsim_campaign_jobs_done gauge\n"),
              std::string::npos);
    EXPECT_NE(snapshot.find("\ndgsim_campaign_jobs_done " +
                            std::to_string(report.total) + "\n"),
              std::string::npos)
        << snapshot;
}

TEST(Coordinator, MismatchedManifestFailsLoudly)
{
    CampaignManifest manifest;
    const std::string path = freshManifest("coord_mismatch", manifest);

    // The manifest on disk was pinned for a different sweep: the
    // coordinator must refuse before forking anything.
    CampaignManifest drifted = manifest;
    drifted.instructions = 9'999;

    CoordinatorOptions options;
    options.workers = 2;
    options.progress = false;
    options.execute = identityMockResult;
    EXPECT_THROW(runCampaign(path, drifted, options), CampaignError);
}

} // namespace
} // namespace dgsim::runner
