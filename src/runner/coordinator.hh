/**
 * @file
 * Multi-process work-stealing campaign coordinator.
 *
 * `runCampaign` forks K worker processes over a validated campaign
 * manifest. Worker w first drains the remaining jobs of its own shards
 * ({ s : s mod K == w }), then steals unclaimed jobs from the slowest
 * shard (the one with the most jobs still outstanding) until nothing
 * unclaimed remains. All coordination flows through two append-only
 * artifacts:
 *
 *  - per-worker completion journals (the PR 4 format, one per worker
 *    process, merged by job identity afterwards), and
 *  - a shared claims file, one JSON line per execution attempt: a
 *    LineLog (common/linelog.hh) the parent opens once per pass and
 *    every worker inherits, so concurrent claims never interleave.
 *
 * Claims are advisory, not locks: a claim races with another worker's
 * claim at worst into a duplicate execution, which the identity-keyed
 * merge makes harmless (the same job produces byte-identical results
 * by construction — at-least-once semantics, idempotent merge). A
 * worker that dies leaves claimed-but-unjournaled jobs behind; the
 * coordinator notices the incomplete merge (or the abnormal exit),
 * rotates the claims file and re-forks workers for another pass, which
 * resumes from the journals and re-runs only the missing jobs. The
 * merged result set is therefore byte-identical (under
 * --no-host-metrics) to an uninterrupted single-process run of the
 * same sweep, no matter which workers died along the way.
 * With telemetry on, the parent publishes the campaign gauges from
 * the journals and claims: as the reporter's sampler, and at the end.
 */

#ifndef DGSIM_RUNNER_COORDINATOR_HH
#define DGSIM_RUNNER_COORDINATOR_HH

#include <functional>
#include <string>
#include <vector>

#include "runner/campaign.hh"
#include "runner/sweep.hh"

namespace dgsim::runner
{

/** Knobs of one runCampaign() invocation. */
struct CoordinatorOptions
{
    /** Worker process count; 0 = the manifest's shard count. */
    unsigned workers = 0;

    /** Pass/merge status lines on stderr. */
    bool progress = true;

    /** fsync worker journals after every record. */
    bool journalSync = false;

    /**
     * Recovery passes: after all workers exit, any job with no journal
     * record (a dead worker's in-flight claims) triggers a fresh pass
     * — claims rotated, workers re-forked, journals resumed — up to
     * this many passes total.
     */
    unsigned maxPasses = 3;

    /** Test override for job execution (inherited across fork). */
    std::function<SimResult(const Job &)> execute;

    // --- Deterministic worker-death injection (tests / CI) --------------
    /** Worker index that kills itself (-1 = none)... */
    int killWorker = -1;
    /** ...after completing this many jobs — dying with a job claimed
        but not journaled, the nastiest point. */
    std::size_t killAfterJobs = 0;
    /** Marker file making the kill once-only: the worker dies only if
        the file does not exist yet, and creates it as it dies. */
    std::string killOnceMarker;
};

/** What one campaign invocation did. */
struct CampaignReport
{
    /** Merged outcomes in full-sweep expansion order. */
    std::vector<JobOutcome> outcomes;

    std::size_t total = 0;      ///< Expected jobs.
    std::size_t ok = 0;         ///< Jobs with a successful record.
    std::size_t failed = 0;     ///< Jobs with a final failure record.
    std::size_t missing = 0;    ///< Jobs with no record at all.
    std::size_t stolen = 0;     ///< Executions by a non-owner worker.
    std::size_t duplicates = 0; ///< Keys claimed more than once.
    unsigned passes = 0;
    unsigned workerDeaths = 0;  ///< Abnormal worker exits observed.
    bool drained = false;       ///< SIGINT/SIGTERM stopped the campaign.
    double seconds = 0.0;
};

/**
 * Run @p manifest (loaded from @p manifestPath, which also anchors the
 * per-worker journal and claims paths) with forked worker processes.
 * Throws CampaignError when the manifest does not match its own
 * re-expanded sweep. Worker journals persist across invocations:
 * re-running an incomplete campaign resumes it.
 */
CampaignReport runCampaign(const std::string &manifestPath,
                           const CampaignManifest &manifest,
                           const CoordinatorOptions &options);

} // namespace dgsim::runner

#endif // DGSIM_RUNNER_COORDINATOR_HH
