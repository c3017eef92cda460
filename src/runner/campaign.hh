/**
 * @file
 * Sharded campaign support: deterministic job partitioning, the
 * campaign manifest, and identity-keyed journal merging.
 *
 * The substrate is the content-hashed job identity (jobKey()): a
 * job's key is a pure function of what the job computes, never of its
 * position in the expansion or of the process that ran it. Sharding is
 * therefore a pure function too — shardOf(key, N) — so any two
 * invocations of the same sweep agree on shard membership regardless
 * of thread count, worker count or expansion order, and per-shard
 * journals merge back into the single-process result set by identity
 * alone.
 *
 * The manifest pins a campaign's ground truth: the sweep spec (in the
 * canonical dgrun vocabulary), the per-worker budgets/seed, the shard
 * count and the full expected job-key set in expansion order. Every
 * worker re-expands the spec and validates it against the manifest
 * before touching a journal, so two invocations with drifted specs
 * fail loudly instead of merging garbage.
 *
 * The manifest is also the one sweep request: dgrun parses its sweep
 * flags straight into a CampaignManifest, and every mode (plain sweep,
 * --list-jobs, --merge, --campaign-init, campaign workers) expands its
 * jobs through manifestSpec() and its retry budgets through
 * manifestRunnerOptions(). A plain sweep's journal therefore resumes
 * and merges with a campaign's because both derive the same job keys
 * from the same code.
 */

#ifndef DGSIM_RUNNER_CAMPAIGN_HH
#define DGSIM_RUNNER_CAMPAIGN_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "runner/experiment_runner.hh"
#include "runner/journal.hh"
#include "runner/sweep.hh"

namespace dgsim::runner
{

/** Malformed, unreadable or mismatched campaign state. */
class CampaignError : public std::runtime_error
{
  public:
    explicit CampaignError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/**
 * The durable specification of one campaign: sweep spec + budgets +
 * seed + shard count + the expected job-key set, serialized as JSONL
 * (one header object, then one line per expected job). Written once by
 * `dgrun --campaign-init` and validated by every worker. Without the
 * job keys it is the sweep request every dgrun mode parses its flags
 * into.
 */
struct CampaignManifest
{
    std::string name = "campaign";
    unsigned shards = 1;

    // --- Sweep spec (canonical dgrun vocabulary) ------------------------
    std::string suite;              ///< Comma-joined names; "" = by tier.
    std::string tier = "default";   ///< default | long | all.
    std::string schemes = "unsafe,nda-p,stt,dom";
    std::string ap = "both";        ///< on | off | both.
    std::uint64_t instructions = 100'000;
    std::uint64_t ffwdInstructions = 0;
    std::uint64_t sampleInterval = 0;
    std::uint64_t sampleDetail = 0;
    /** Nonzero = a fuzzing campaign of this many candidates (the
     * suite/scheme/instruction fields above are ignored; the oracle's
     * run budget is fuzz::oracleBaseConfig()). */
    std::uint64_t fuzzCount = 0;
    std::uint64_t fuzzSeed = 1;

    // --- Budgets and seed shared by every worker ------------------------
    unsigned retries = 2;
    std::uint64_t retryBaseMs = 100;
    std::uint64_t jobTimeoutSec = 0;
    double injectFailRate = 0.0;
    std::uint64_t injectFailSeed = 0;

    /** Expected job keys, in expansion order. */
    std::vector<std::string> jobKeys;
};

/**
 * Which of @p shards a job belongs to: FNV-1a of the content-derived
 * key, mod N. Pure function of job identity — two processes expanding
 * the same sweep always agree, and shards are disjoint and covering by
 * construction.
 */
unsigned shardOf(const std::string &key, unsigned shards);

/** Canonical CLI token of a scheme ("unsafe", "nda-p", "stt", "dom"). */
std::string schemeToken(Scheme scheme);

/**
 * Inverse of schemeToken(), also accepting the aliases "nda" and "ndap"
 * for NDA-P; throws CampaignError on unknown names.
 */
Scheme schemeFromToken(const std::string &token);

/** The non-empty items of a comma-separated manifest list. */
std::vector<std::string> splitList(const std::string &text);

/** Join @p items with commas: the inverse of splitList(). */
std::string joinList(const std::vector<std::string> &items);

/**
 * The one derivation from a sweep request to its jobs: the workloads
 * (the named suite, else the tier) times the scheme x AP configs, each
 * on paperRunConfig() plus the fast-forward/sampling shape, with the
 * warm-up suppressed under functional warming. A fuzzing manifest
 * yields its candidates over fuzz::oracleBaseConfig(). Throws
 * CampaignError, also for a value out of its flag's bounds, so flags
 * and hand-edited manifests share them: a job timeout too long for a
 * steady_clock deadline, retries whose first attempt would wrap
 * maxAttempts to zero, and an inject-fail rate outside [0, 1].
 */
SweepSpec manifestSpec(const CampaignManifest &manifest);

/**
 * RunnerOptions carrying the manifest's retry budget, backoff base and
 * fault-injection rate/seed; every other field keeps its default.
 */
RunnerOptions manifestRunnerOptions(const CampaignManifest &manifest);

/**
 * Keep only @p shard of @p shards, re-indexed 0..n-1 (the runner
 * requires dense indices). Original expansion indices are recovered at
 * merge time by re-expanding and matching keys.
 */
std::vector<Job> filterShard(std::vector<Job> jobs, unsigned shard,
                             unsigned shards);

/** Serialize @p manifest to @p path. Throws CampaignError. */
void writeManifest(const std::string &path, const CampaignManifest &manifest);

/** Parse a manifest written by writeManifest(). Throws CampaignError. */
CampaignManifest loadManifest(const std::string &path);

/**
 * Check @p expanded against the manifest's expected key sequence.
 * Returns "" when they agree, else a human-readable description of the
 * first mismatch — the caller fails loudly with it.
 */
std::string validateManifest(const CampaignManifest &manifest,
                             const std::vector<Job> &expanded);

/**
 * Fold journals by job identity, in path order, last record per key
 * winning. Missing files load empty (a shard that never started is
 * just an empty contribution); corrupt interior lines stay fatal, as
 * in loadJournal().
 */
JournalMap mergeJournals(const std::vector<std::string> &paths);

/**
 * Arrange merged outcomes in @p jobs' expansion order, rewriting each
 * outcome's index to the full-sweep index (shard runs journal
 * shard-local indices). A job with no record yields a failed outcome
 * with attempts == 0 and a "missing" error, so an incomplete merge is
 * visible instead of silently short.
 */
std::vector<JobOutcome> orderOutcomes(const JournalMap &merged,
                                      const std::vector<Job> &jobs);

/** Per-worker journal path derived from the manifest path. */
std::string workerJournalPath(const std::string &manifestPath,
                              unsigned worker);

/** The campaign's shared append-only claims file. */
std::string claimsPath(const std::string &manifestPath);

} // namespace dgsim::runner

#endif // DGSIM_RUNNER_CAMPAIGN_HH
