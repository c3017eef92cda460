/**
 * @file
 * The experiment runner: executes a sweep's jobs across a thread pool
 * with per-job exception capture, deterministic result ordering, and
 * live progress reporting, and returns the outcomes in job-index order.
 *
 * Fault tolerance (all opt-in via RunnerOptions):
 *  - transient host failures (TransientError: injected faults, job
 *    timeouts) are retried with capped exponential backoff; any other
 *    exception is a deterministic sim error, reported once and never
 *    retried;
 *  - a completion journal records every final outcome as it happens, so
 *    a killed sweep resumes by skipping journaled successes;
 *  - a cooperative cancel flag (wired to SIGINT/SIGTERM by dgrun) stops
 *    dispatching queued jobs while in-flight ones finish and are
 *    journaled — the drained run stays resumable;
 *  - deterministic fault injection exercises the whole path in tests.
 */

#ifndef DGSIM_RUNNER_EXPERIMENT_RUNNER_HH
#define DGSIM_RUNNER_EXPERIMENT_RUNNER_HH

#include <atomic>
#include <functional>
#include <vector>

#include "common/backoff.hh"
#include "runner/journal.hh"
#include "runner/sweep.hh"

namespace dgsim::runner
{

/** Knobs of one ExperimentRunner. */
struct RunnerOptions
{
    /** Worker threads; 0 selects ThreadPool::hardwareThreads(). */
    unsigned threads = 1;

    /** Live "done/total" progress line on stderr. */
    bool progress = true;

    /**
     * How to execute one job. The default runs
     * runProgram(*job.program, job.config); tests substitute mocks and
     * future campaigns (e.g. fuzzing) can redirect jobs entirely.
     */
    std::function<SimResult(const Job &)> execute;

    // --- Fault tolerance ------------------------------------------------
    /**
     * Total attempts per job when it fails with a TransientError
     * (injected fault, wall-clock timeout). 1 = no retries.
     * Deterministic sim errors always get exactly one attempt.
     */
    unsigned maxAttempts = 3;

    /** Delay schedule between transient-failure attempts. */
    Backoff backoff;

    /**
     * Deterministic fault injection: each attempt of each job throws a
     * TransientError with this probability (0 disables). The draw is a
     * pure function of (job key, attempt, seed), so a given
     * rate/seed/sweep always fails the same attempts of the same jobs
     * — the whole retry path is testable bit-for-bit.
     */
    double injectFailRate = 0.0;
    std::uint64_t injectFailSeed = 0;

    /**
     * Append-only completion journal path; empty = no journal. Records
     * carry the (non-deterministic) host metrics object; it is restored
     * on resume, never compared.
     */
    std::string journalPath;
    /**
     * fsync the journal after every appended record. Off by default: a
     * flush already survives a process kill, and per-record fsync costs
     * real time on the tier-1 sweeps. Turn on when completed work must
     * survive power loss, not just SIGKILL.
     */
    bool journalSync = false;

    /**
     * Outcomes of a previous run (loadJournal()). Jobs whose key maps
     * to an ok outcome are restored without re-execution; journaled
     * failures run again.
     */
    JournalMap resume;

    /**
     * Cooperative cancel: when *cancel becomes true the runner stops
     * starting queued jobs (they finish as `attempts == 0` failures),
     * completes in-flight ones, journals them and returns normally so
     * the caller still writes its results. Not owned; may be null.
     */
    const std::atomic<bool> *cancel = nullptr;
};

/**
 * Executes independent simulation jobs on N threads.
 *
 * Guarantees:
 *  - Outcomes are returned in job-index order, so all output is
 *    byte-identical regardless of the thread count.
 *  - An exception escaping one job marks that outcome failed (with the
 *    exception message) without affecting other jobs or the pool.
 *  - With a journal + resume, a killed-and-resumed sweep's outcomes
 *    serialize byte-identically to the same sweep run uninterrupted.
 */
class ExperimentRunner
{
  public:
    explicit ExperimentRunner(RunnerOptions options = RunnerOptions{});

    /** Expand @p spec and run every job. */
    std::vector<JobOutcome> run(const SweepSpec &spec);

    /** Run pre-expanded jobs (indices must be 0..N-1 in order). */
    std::vector<JobOutcome> run(const std::vector<Job> &jobs);

    unsigned threads() const { return threads_; }

  private:
    /** Run one job to its final outcome (retry loop + fault injection). */
    void executeJob(const Job &job, const std::string &key,
                    JobOutcome &outcome);

    /** True when this attempt should fail by injection. */
    bool injectedFault(const std::string &key, unsigned attempt) const;

    RunnerOptions options_;
    unsigned threads_;
};

/**
 * Run one job to its final outcome — the exact retry/backoff/fault-
 * injection path the pool workers use, without a pool. The outcome
 * keeps @p job's index untouched (campaign workers run jobs that carry
 * their full-sweep expansion index). @p options supplies execute /
 * maxAttempts / backoff / inject / cancel; journal and resume fields
 * are ignored — the caller owns journaling.
 */
JobOutcome runSingleJob(const Job &job, const std::string &key,
                        const RunnerOptions &options);

} // namespace dgsim::runner

#endif // DGSIM_RUNNER_EXPERIMENT_RUNNER_HH
