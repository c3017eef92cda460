#include "runner/coordinator.hh"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "common/linelog.hh"
#include "common/log.hh"
#include "common/signals.hh"
#include "runner/experiment_runner.hh"
#include "runner/json.hh"
#include "telemetry/telemetry.hh"

namespace dgsim::runner
{
namespace
{

/** One execution claim: appended before a worker starts a job. */
struct Claim
{
    std::string key;
    unsigned shard = 0;
    unsigned worker = 0;
};

/** Append one claim; fatal on failure — a lost claim breaks dedupe. */
void
appendClaim(const LineLog &claims, const std::string &key, unsigned shard,
            unsigned worker)
{
    if (const int err = claims.append(
            "{\"key\":\"" + jsonEscape(key) + "\",\"shard\":" +
            std::to_string(shard) + ",\"worker\":" + std::to_string(worker) +
            "}"))
        DGSIM_FATAL("claims append failed: " +
                    std::string(std::strerror(err)));
}

/** Parse the claims log; a malformed line is skipped — claims are
 * advisory, and at worst a job runs twice. */
std::vector<Claim>
loadClaims(const std::string &path)
{
    std::vector<Claim> claims;
    for (const std::string &line : readLogLines(path)) {
        try {
            const JsonValue record = JsonParser(line).parse();
            Claim claim;
            claim.key = jsonMember(record, "key").str;
            claim.shard = static_cast<unsigned>(
                jsonU64(record, "shard", std::numeric_limits<unsigned>::max()));
            claim.worker = static_cast<unsigned>(jsonU64(
                record, "worker", std::numeric_limits<unsigned>::max()));
            claims.push_back(std::move(claim));
        } catch (const JsonParseError &) {
            continue;
        }
    }
    return claims;
}

std::vector<std::string>
allWorkerJournals(const std::string &manifestPath, unsigned workers)
{
    std::vector<std::string> paths;
    paths.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
        paths.push_back(workerJournalPath(manifestPath, w));
    return paths;
}

/** Keys with any journal record (ok or final failure): settled work. */
std::unordered_set<std::string>
settledKeys(const std::vector<std::string> &journalPaths)
{
    std::unordered_set<std::string> settled;
    for (const auto &entry : mergeJournals(journalPaths))
        settled.insert(entry.first);
    return settled;
}

/** The per-job state one worker pass operates on. */
struct WorkerContext
{
    const CampaignManifest *manifest = nullptr;
    std::string manifestPath;
    unsigned worker = 0;
    unsigned workers = 1;
    const CoordinatorOptions *options = nullptr;
    /** This pass's claims log, opened by the parent before the fork. */
    const LineLog *claims = nullptr;

    std::vector<Job> jobs;           ///< Full expansion, original indices.
    std::vector<std::string> keys;   ///< keys[i] = jobKey(jobs[i]).
    std::vector<unsigned> shards;    ///< shards[i] = shardOf(keys[i]).
};

/** RunnerOptions a worker derives from the manifest budgets. */
RunnerOptions
workerRunnerOptions(const WorkerContext &ctx)
{
    RunnerOptions options = manifestRunnerOptions(*ctx.manifest);
    options.threads = 1;
    options.progress = false;
    options.execute = ctx.options->execute;
    options.cancel = &drainFlag();
    return options;
}

/**
 * Execute jobs[i]: claim, honor the death injection, run with the
 * manifest's retry budget, journal the final outcome.
 */
void
runClaimedJob(const WorkerContext &ctx, std::size_t i,
              JournalWriter &journal, const RunnerOptions &ropts,
              std::size_t &completed)
{
    // A "steal" span wraps jobs this worker takes from another shard;
    // the nested "job" span (emitted by the runner) carries the timing.
    const bool stolen = ctx.shards[i] % ctx.workers != ctx.worker;
    telemetry::ScopedSpan steal(stolen ? "steal" : nullptr, "phase");
    if (stolen) {
        steal.arg("key", ctx.keys[i]);
        steal.arg("shard", std::uint64_t{ctx.shards[i]});
    }

    appendClaim(*ctx.claims, ctx.keys[i], ctx.shards[i], ctx.worker);

    // Death injection lands after the claim and before the journal
    // record — the worst possible moment, exactly what a real SIGKILL
    // mid-job produces.
    if (ctx.options->killWorker >= 0 &&
        static_cast<unsigned>(ctx.options->killWorker) == ctx.worker &&
        completed == ctx.options->killAfterJobs) {
        struct ::stat st;
        if (ctx.options->killOnceMarker.empty() ||
            ::stat(ctx.options->killOnceMarker.c_str(), &st) != 0) {
            if (!ctx.options->killOnceMarker.empty()) {
                const int fd = ::open(ctx.options->killOnceMarker.c_str(),
                                      O_WRONLY | O_CREAT, 0644);
                if (fd >= 0)
                    ::close(fd);
            }
            _exit(9);
        }
    }

    const JobOutcome outcome = runSingleJob(ctx.jobs[i], ctx.keys[i], ropts);
    {
        telemetry::ScopedSpan append("journal-append", "phase");
        journal.record(ctx.keys[i], outcome);
    }
    ++completed;
}

/**
 * The body of one forked worker process. Returns its exit status:
 * 0 = clean (its view of the campaign is drained of unclaimed work),
 * 130 = drain signal, 3 = manifest validation failure.
 */
int
workerMain(WorkerContext ctx)
{
    // Redirect spans to this worker's own part file before anything
    // else; the "worker" span then covers the whole pass and closes on
    // a clean return (the _exit(workerMain(...)) call site evaluates
    // us fully). Only a kill loses it — which the report flags.
    telemetry::reopenForWorker(ctx.worker);
    telemetry::ScopedSpan span("worker", "worker");
    span.arg("worker", std::uint64_t{ctx.worker});

    const std::string err = validateManifest(*ctx.manifest, ctx.jobs);
    if (!err.empty()) {
        std::fprintf(stderr, "[campaign] worker %u: manifest mismatch: %s\n",
                     ctx.worker, err.c_str());
        return 3;
    }

    const std::vector<std::string> journalPaths =
        allWorkerJournals(ctx.manifestPath, ctx.workers);
    JournalWriter journal(workerJournalPath(ctx.manifestPath, ctx.worker),
                          /*host_metrics=*/true, ctx.options->journalSync);
    const RunnerOptions ropts = workerRunnerOptions(ctx);

    std::size_t completed = 0;

    // Phase 1: drain this worker's own shards in expansion order.
    // Settled work (any journal record, ok or failed) is final; a
    // failure re-run here would grant more attempts than a single-
    // process run and break byte-identity. Claims by other workers
    // (thieves, or a previous incarnation's survivors) are skipped.
    std::unordered_set<std::string> settled =
        settledKeys(journalPaths);
    for (std::size_t i = 0; i < ctx.jobs.size(); ++i) {
        if (ctx.shards[i] % ctx.workers != ctx.worker)
            continue;
        if (settled.count(ctx.keys[i]))
            continue;
        if (drainRequested())
            return 130;
        bool claimedElsewhere = false;
        for (const Claim &claim : loadClaims(claimsPath(ctx.manifestPath)))
            if (claim.key == ctx.keys[i] && claim.worker != ctx.worker) {
                claimedElsewhere = true;
                break;
            }
        if (claimedElsewhere)
            continue;
        runClaimedJob(ctx, i, journal, ropts, completed);
    }

    // Phase 2: steal. Refresh the global picture, find the slowest
    // shard (most jobs outstanding), take its first unclaimed job.
    // Exit when nothing unclaimed remains — jobs still in flight on
    // live workers will be finished by their claimants, and a dead
    // worker's claims surface as missing records for the coordinator.
    for (;;) {
        if (drainRequested())
            return 130;
        settled = settledKeys(journalPaths);
        std::unordered_set<std::string> claimed;
        for (const Claim &claim :
             loadClaims(claimsPath(ctx.manifestPath)))
            claimed.insert(claim.key);

        std::map<unsigned, std::vector<std::size_t>> outstanding;
        for (std::size_t i = 0; i < ctx.jobs.size(); ++i)
            if (!settled.count(ctx.keys[i]) &&
                !claimed.count(ctx.keys[i]))
                outstanding[ctx.shards[i]].push_back(i);
        if (outstanding.empty())
            break;
        auto slowest = outstanding.begin();
        for (auto it = outstanding.begin(); it != outstanding.end(); ++it)
            if (it->second.size() > slowest->second.size())
                slowest = it;
        runClaimedJob(ctx, slowest->second.front(), journal, ropts,
                      completed);
    }
    return 0;
}

/**
 * Publish the campaign gauges from the merged worker journals and this
 * pass's claims (@p stolenEarlier: steals in rotated-away claims).
 * Both loaders tolerate a live writer's torn final line, so this runs
 * as the sampler while workers append, and once after the last pass.
 */
void
publishCampaignGauges(const WorkerContext &ctx, const CampaignReport &report,
                      std::size_t stolenEarlier, std::size_t alive)
{
    if (!telemetry::enabled())
        return;
    const JournalMap merged =
        mergeJournals(allWorkerJournals(ctx.manifestPath, ctx.workers));
    std::size_t failed = 0, retries = 0;
    for (const auto &entry : merged) {
        failed += !entry.second.ok;
        retries += entry.second.attempts > 1;
    }
    std::size_t stolen = stolenEarlier;
    for (const Claim &claim : loadClaims(claimsPath(ctx.manifestPath)))
        stolen += claim.shard % ctx.workers != claim.worker;
    std::vector<std::size_t> outstanding(ctx.manifest->shards, 0);
    for (std::size_t i = 0; i < ctx.keys.size(); ++i)
        outstanding[ctx.shards[i]] += merged.find(ctx.keys[i]) == merged.end();

    const auto gauge = [](const std::string &name, std::size_t value) {
        telemetry::metricSet(name, static_cast<double>(value));
    };
    gauge("dgsim_campaign_jobs_total", report.total);
    gauge("dgsim_campaign_jobs_done", merged.size());
    gauge("dgsim_campaign_jobs_failed", failed);
    gauge("dgsim_campaign_jobs_retried", retries);
    gauge("dgsim_campaign_jobs_stolen", stolen);
    gauge("dgsim_campaign_workers_alive", alive);
    gauge("dgsim_campaign_worker_deaths", report.workerDeaths);
    gauge("dgsim_campaign_passes", report.passes);
    for (std::size_t shard = 0; shard < outstanding.size(); ++shard)
        gauge("dgsim_shard_outstanding{shard=\"" + std::to_string(shard) +
                  "\"}",
              outstanding[shard]);
}

} // namespace

CampaignReport
runCampaign(const std::string &manifestPath,
            const CampaignManifest &manifest,
            const CoordinatorOptions &options)
{
    const auto start = std::chrono::steady_clock::now();

    WorkerContext ctx;
    ctx.manifest = &manifest;
    ctx.manifestPath = manifestPath;
    ctx.workers = options.workers != 0 ? options.workers : manifest.shards;
    ctx.options = &options;

    const SweepSpec spec = manifestSpec(manifest);
    {
        telemetry::ScopedSpan span("expand", "phase");
        ctx.jobs = spec.expand();
    }
    const std::string err = validateManifest(manifest, ctx.jobs);
    if (!err.empty())
        throw CampaignError("manifest '" + manifestPath +
                            "' does not match its sweep: " + err);
    ctx.keys.reserve(ctx.jobs.size());
    ctx.shards.reserve(ctx.jobs.size());
    for (const Job &job : ctx.jobs) {
        ctx.keys.push_back(jobKey(job));
        ctx.shards.push_back(shardOf(ctx.keys.back(), manifest.shards));
    }

    const std::vector<std::string> journalPaths =
        allWorkerJournals(manifestPath, ctx.workers);
    const std::string claims = claimsPath(manifestPath);

    CampaignReport report;
    report.total = ctx.jobs.size();
    // Sampler inputs: stolenEarlier changes only between passes, while
    // no sampler is installed; alive also while workers run.
    std::size_t stolenEarlier = 0;
    std::atomic<std::size_t> alive{0};

    telemetry::setWorkerCount(ctx.workers);

    JournalMap merged;
    for (unsigned pass = 1; pass <= options.maxPasses; ++pass) {
        report.passes = pass;
        stolenEarlier = report.stolen;

        // Pass 1 is the campaign proper; later passes exist only to
        // recover work lost to dead workers.
        telemetry::ScopedSpan passSpan("pass",
                                       pass == 1 ? "campaign" : "recovery");
        passSpan.arg("pass", std::uint64_t{pass});

        // Rotate the claims file: claims only dedupe within one pass.
        // (A dead worker's stale claims must not block its jobs.) The
        // log is opened here, while no worker is alive to append to
        // it, and every worker forked below inherits the descriptor.
        ::unlink(claims.c_str());
        const LineLog claimsLog(claims);
        ctx.claims = &claimsLog;

        if (options.progress)
            std::fprintf(stderr,
                         "[campaign] pass %u: forking %u worker(s) over "
                         "%u shard(s), %zu job(s)\n",
                         pass, ctx.workers, manifest.shards,
                         ctx.jobs.size());

        // Flush stdio before forking so buffered output is not emitted
        // twice (once per process image).
        std::fflush(stdout);
        std::fflush(stderr);

        std::vector<pid_t> pids;
        pids.reserve(ctx.workers);
        for (unsigned w = 0; w < ctx.workers; ++w) {
            const pid_t pid = ::fork();
            if (pid < 0) {
                for (pid_t p : pids)
                    ::kill(p, SIGTERM);
                throw CampaignError("fork failed: " +
                                    std::string(std::strerror(errno)));
            }
            if (pid == 0) {
                WorkerContext mine = ctx;
                mine.worker = w;
                // _exit: a forked worker must not run the parent's
                // atexit/static-destructor machinery.
                _exit(workerMain(std::move(mine)));
            }
            pids.push_back(pid);
        }

        // Reap workers while the reporter samples the campaign gauges.
        unsigned deathsThisPass = 0;
        bool drainedWorker = false;
        std::vector<bool> reaped(pids.size(), false);
        alive = pids.size();
        {
            const telemetry::ScopedSampler sampler([&] {
                publishCampaignGauges(ctx, report, stolenEarlier, alive);
            });
            while (alive > 0) {
                bool progressed = false;
                for (std::size_t i = 0; i < pids.size(); ++i) {
                    if (reaped[i])
                        continue;
                    int status = 0;
                    const pid_t p = ::waitpid(pids[i], &status, WNOHANG);
                    if (p == 0)
                        continue;
                    reaped[i] = true;
                    --alive;
                    progressed = true;
                    if (p < 0)
                        continue;
                    if (WIFSIGNALED(status)) {
                        ++deathsThisPass;
                    } else if (WIFEXITED(status)) {
                        const int code = WEXITSTATUS(status);
                        if (code == 130)
                            drainedWorker = true;
                        else if (code == 3)
                            throw CampaignError(
                                "worker " + std::to_string(i) +
                                " rejected manifest '" + manifestPath + "'");
                        else if (code != 0)
                            ++deathsThisPass;
                    }
                }
                // A short poll keeps the tail latency after the last
                // worker exits small relative to the campaign span —
                // the trace's coverage figure is measured against it.
                if (!progressed && alive > 0)
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(10));
            }
        }

        report.workerDeaths += deathsThisPass;
        report.drained = report.drained || drainedWorker ||
                         drainRequested();

        // Account claims before the next pass rotates them away.
        std::unordered_map<std::string, unsigned> claimCounts;
        for (const Claim &claim : loadClaims(claims)) {
            ++claimCounts[claim.key];
            if (claim.shard % ctx.workers != claim.worker)
                ++report.stolen;
        }
        for (const auto &entry : claimCounts)
            report.duplicates += entry.second > 1;

        merged = mergeJournals(journalPaths);
        std::size_t missing = 0;
        for (const std::string &key : ctx.keys)
            missing += merged.find(key) == merged.end();

        if (options.progress)
            std::fprintf(stderr,
                         "[campaign] pass %u: %zu/%zu job(s) journaled, "
                         "%u abnormal worker exit(s)\n",
                         pass, report.total - missing, report.total,
                         deathsThisPass);

        if (missing == 0 || report.drained)
            break;
        if (pass == options.maxPasses && options.progress)
            std::fprintf(stderr,
                         "[campaign] %zu job(s) still missing after %u "
                         "pass(es); re-run --campaign to resume\n",
                         missing, pass);
    }

    report.outcomes = orderOutcomes(merged, ctx.jobs);
    for (const JobOutcome &outcome : report.outcomes) {
        if (outcome.ok)
            ++report.ok;
        else if (outcome.attempts == 0)
            ++report.missing;
        else
            ++report.failed;
    }
    report.seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    publishCampaignGauges(ctx, report, stolenEarlier, alive);
    return report;
}

} // namespace dgsim::runner
