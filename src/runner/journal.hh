/**
 * @file
 * Append-only completion journal: the crash-tolerance substrate of the
 * experiment runner.
 *
 * As each job reaches a final outcome (success, deterministic error or
 * exhausted retries) one JSONL record is appended to a LineLog
 * (common/linelog.hh, which owns the crash-recovery rule), in
 * *completion* order — a kill loses at most the line being written.
 * Each record is the exact toJsonLine() serialization of the outcome
 * prefixed with two wrapper fields:
 *
 *   {"key":"<stable job key>","attempts":N, ...outcome fields...}
 *
 * The key is content-derived (suite/workload/config label + run-control
 * budgets hashed in), so a journal survives re-expansion: a resumed
 * sweep matches jobs by key, never by index, and a journal recorded
 * with `--threads 16` resumes correctly under `--threads 1`.
 *
 * Resume semantics: jobs whose journaled outcome is ok are restored
 * without re-execution; journaled *failures* are attempted again (a
 * deterministic error just reproduces, which keeps merged output
 * byte-identical to an uninterrupted run; a transient one gets the
 * fresh chance the user asked for by resuming).
 */

#ifndef DGSIM_RUNNER_JOURNAL_HH
#define DGSIM_RUNNER_JOURNAL_HH

#include <map>
#include <mutex>
#include <string>

#include "common/linelog.hh"
#include "runner/sweep.hh"

namespace dgsim::runner
{

/** Outcomes from a prior run's journal, keyed by jobKey(). */
using JournalMap = std::map<std::string, JobOutcome>;

/**
 * Stable identity of one job: workload and config label plus a 64-bit
 * FNV-1a hash of the fields that change what the job computes (suite,
 * workload, config label, instruction/cycle budgets, warmup). Two jobs
 * with the same key produce byte-identical results by construction.
 */
std::string jobKey(const Job &job);

/** Thread-safe append-only journal writer: one LineLog record per job. */
class JournalWriter
{
  public:
    /**
     * Open @p path as a LineLog (fatal when unwritable; a torn tail
     * left by a killed writer is cut off). Journal lines carry host
     * metrics iff @p host_metrics — they are restored on resume for
     * reporting, and never byte-compared across runs. With @p sync
     * every record is additionally fsync'd: a written-but-unsynced
     * record survives a process kill but not a power loss, and long
     * campaigns may want the stronger guarantee.
     */
    JournalWriter(const std::string &path, bool host_metrics = true,
                  bool sync = false);

    /** Append one completed outcome under @p key (thread-safe); a
     * failed append is fatal. */
    void record(const std::string &key, const JobOutcome &outcome);

    const std::string &path() const { return log_.path(); }

  private:
    LineLog log_;
    bool host_metrics_;
    bool sync_;
    std::mutex mutex_;
};

/**
 * Load a journal written by JournalWriter. The torn final line a
 * killed writer leaves is dropped (readLogLines); any malformed
 * complete line is fatal — that is corruption, not a crash. A missing
 * file yields an empty map (the sweep died before completing
 * anything). Duplicate keys keep the last record.
 */
JournalMap loadJournal(const std::string &path);

} // namespace dgsim::runner

#endif // DGSIM_RUNNER_JOURNAL_HH
