/**
 * @file
 * dgrun — the experiment-runner CLI.
 *
 * Runs a (workload x scheme x AP) sweep of the evaluation suite across
 * N threads and writes the results as JSON lines (toJsonLine), in
 * job-index order whatever the thread count.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/number.hh"
#include "common/signals.hh"
#include "fuzz/dgasm.hh"
#include "fuzz/fuzz.hh"
#include "obs/pipe_trace.hh"
#include "security/leak.hh"
#include "runner/campaign.hh"
#include "runner/coordinator.hh"
#include "runner/experiment_runner.hh"
#include "runner/journal.hh"
#include "runner/result_sink.hh"
#include "runner/sweep.hh"
#include "runner/thread_pool.hh"
#include "sim/simulator.hh"
#include "telemetry/report.hh"
#include "telemetry/telemetry.hh"
#include "telemetry/trace.hh"
#include "workloads/suite.hh"

namespace
{

using namespace dgsim;
using namespace dgsim::runner;

constexpr const char *kUsage = R"(usage: dgrun [options]

Run the evaluation suite over the scheme x AP matrix on a thread pool.

options:
  --suite NAMES       comma-separated workload names (default: all)
  --schemes NAMES     subset of unsafe,nda-p,stt,dom (default: all)
  --ap MODE           address prediction: on, off or both (default: both)
  --instructions N    per-run instruction budget (default: 100000)
  --threads N         worker threads (default: hardware concurrency)
  --jsonl FILE        write results as JSON lines, in job order

fault tolerance:
  --journal FILE      append one JSONL record per completed job (flushed
                      immediately): the crash/resume journal
  --resume FILE       skip jobs recorded ok in FILE, re-run the rest and
                      merge; implies --journal FILE (appends to it)
  --retries N         extra attempts for transient host failures —
                      injected faults, job timeouts (default 2; sim
                      errors are never retried)
  --retry-base-ms N   first retry delay; doubles per retry, capped at
                      5000ms (default 100)
  --job-timeout SECS  per-job wall-clock timeout; expiry counts as a
                      transient failure (0 = off, default)
  --inject-fail R,S   fault injection: each attempt fails with
                      probability R (0..1) keyed by deterministic seed S
  --journal-sync      fsync the journal after every record (survives
                      power loss, not just SIGKILL; default off)
  --progress SECS     heartbeat: every SECS seconds and at exit print one
                      line of jobs done/total, jobs/sec, ETA and retries,
                      read from the metrics registry (one fwrite a line)
  --no-host-metrics   omit the per-run "host" object from --jsonl output
                      (use when byte-comparing results across runs)

sharded campaigns (fleet-scale sweeps):
  --shard I/N         run only shard I of N (0-based). Membership is a
                      pure function of job identity (jobKey hash mod N),
                      so any two invocations of the same sweep agree on
                      it regardless of thread count or expansion order
  --list-jobs         print shard/workload/config/key for every selected
                      job and exit; with --campaign F the sweep and shard
                      count come from the manifest
  --campaign-init F   write a campaign manifest to F (sweep spec,
                      budgets, seed, shard count, expected job-key set)
                      and exit; combine with --shards and the usual
                      sweep/fault-tolerance flags
  --shards N          shard count for --campaign-init/--list-jobs (default 1)
  --campaign F        run the campaign in F: fork worker processes, each
                      drains its own shards then steals unclaimed jobs
                      from the slowest shard; journals merge by identity
                      and re-running an incomplete campaign resumes it
  --workers K         worker process count for --campaign (default: the
                      manifest's shard count)
  --merge J1 J2 ...   fold per-shard/worker journals by job identity into
                      the single-process result set for the sweep the
                      other flags select (or --campaign F's manifest);
                      write it with --jsonl, or --journal OUT for
                      a merged journal --resume accepts

leak fuzzing (relational attacker-program oracle):
  --fuzz N            fuzzing campaign: synthesize N attacker-program
                      candidates and run each through the relational
                      leak oracle (every scheme x AP column, seeded
                      secret-pair list). Hits get a replayable .dgasm
                      repro + a minimized gadget; confirmed leaks under
                      a secure scheme exit with code 4. Composes with
                      --journal/--resume/--shard/--campaign-init/
                      --campaign/--merge: candidates are ordinary jobs
  --fuzz-seed S       campaign seed; every candidate is a pure function
                      of (seed, index), so one seed is one byte-for-byte
                      reproducible campaign (default 1)
  --fuzz-dir DIR      directory for .dgasm repro artifacts (default
                      fuzz_repros)
  --fuzz-findings F   findings JSONL path, one record per leaking
                      (candidate, config); deterministic and
                      byte-identical across re-runs and --workers
                      counts (default fuzz_findings.jsonl)
  --fuzz-minimize K   also minimize up to K *expected* Unsafe-scheme
                      hits (confirmed secure-scheme findings are always
                      all minimized; default 2)
  --fuzz-replay FILE  replay one .dgasm file (a repro or a corpus/ seed)
                      through the full oracle, print the
                      per-configuration verdict table and exit (code 4
                      when a secure scheme leaks)

fleet telemetry (host-side only; results stay byte-identical):
  --telemetry FILE    span tracing: write one merged Chrome trace-event
                      JSON file (load it in https://ui.perfetto.dev or
                      chrome://tracing; one track per worker process).
                      Spans cover campaign, passes, workers, jobs and
                      phases (ffwd-warm, detailed-window, retry-backoff,
                      journal-append, steal)
  --metrics FILE[,SECS]
                      write a Prometheus-text metrics snapshot to FILE
                      every SECS seconds (default 5) and at exit: jobs
                      done/failed/retried/stolen, instructions, KIPS,
                      peak RSS, per-workload throughput, queue depth
  --report J1 J2 ...  straggler/latency report from completion journals
                      (+ the --telemetry FILE trace when given): p50/p95/
                      p99 job wall-time per workload and per config,
                      retry storms, steal imbalance, worker coverage and
                      the recovery-pass timeline
  --validate FILE     structurally validate a merged telemetry trace
                      (a JSON document) or an O3PipeView pipeline trace,
                      picked by the file's first byte, then exit
  --no-skip           disable event-driven idle-cycle skipping and tick
                      every cycle. Results are byte-identical either way
                      (enforced by golden_stats_test); this exists for
                      byte-compare experiments and skip-layer debugging
  --quiet             suppress the progress line
  --list              list available workloads and exit
  --help              show this message

sampled simulation (checkpoint / fast-forward):
  --ffwd N            fast-forward N instructions functionally (caches and
                      predictors warmed) before the detailed window;
                      --instructions then bounds the detailed window only
  --sample I,D        sampling: alternate functional skip with detailed
                      windows of D instructions every I, until
                      --instructions total (ffwd + detailed) executed
  --ckpt-save F@INST  snapshot the run at instruction INST (must land in a
                      fast-forward region) into checkpoint file F;
                      needs a one-job sweep
  --ckpt-restore F    resume from checkpoint file F instead of
                      re-executing the prefix; needs a one-job sweep
  --tier NAME         workload tier when --suite is not given: default
                      (the paper suite), long (>= 1M-instruction
                      fast-forward targets) or all

observability:
  --trace FILE        write an O3PipeView pipeline trace ("-" = stdout;
                      view with Konata or gem5's o3-pipeview.py). The
                      sweep must select exactly one workload x config.
  --trace-start N     start tracing after N committed instructions
  --trace-insts N     trace at most N instructions (0 = no limit)
  --watchdog N        commit-watchdog threshold in cycles; 0 disables
                      (default 100000)
  --wedge             debug: run under a never-resolving policy so the
                      pipeline wedges and the watchdog dumps the flight
                      recorder (the process aborts; expect a core dump)
  --dists             print each job's distribution stats after the
                      summary table
)";

[[noreturn]] void
usageError(const std::string &msg)
{
    std::fprintf(stderr, "dgrun: %s\n%s", msg.c_str(), kUsage);
    std::exit(2);
}

/** A decimal count under parseU64()'s rule, nonzero unless @p allowZero. */
std::uint64_t
parseCount(const std::string &text, const char *flag, bool allowZero = false,
           std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
{
    const std::optional<std::uint64_t> value = parseU64(text, max);
    if (!value || (*value == 0 && !allowZero))
        usageError(std::string(flag) + " needs an integer in [" +
                   (allowZero ? "0" : "1") + ", " + std::to_string(max) +
                   "], got '" + text + "'");
    return *value;
}

/** parseCount() for an `unsigned` field, so a value never wraps. */
unsigned
parseUnsigned(const std::string &text, const char *flag, bool allowZero)
{
    return static_cast<unsigned>(parseCount(
        text, flag, allowZero, std::numeric_limits<unsigned>::max()));
}

/** A real under parseF64()'s rule, above zero where @p positive. */
double
parseReal(const std::string &text, const std::string &usage, bool positive)
{
    const std::optional<double> value = parseF64(text);
    if (!value || (positive && !(*value > 0.0)))
        usageError(usage + ", got '" + text + "'");
    return *value;
}

struct Options
{
    /** The sweep request in canonical tokens: every mode expands it. */
    CampaignManifest sweep;
    unsigned threads = 0; // 0 = hardware concurrency.
    std::string jsonlPath;
    bool idleSkip = true;
    bool quiet = false;

    // Checkpoints (host-only: never part of a manifest).
    std::string ckptSavePath;
    std::uint64_t ckptSaveInst = 0;
    std::string ckptRestorePath;

    // Fault tolerance.
    std::string journalPath;
    std::string resumePath;
    bool hostMetrics = true;
    bool journalSync = false;

    // Sharded campaigns.
    unsigned shardIndex = 0;
    unsigned shardCount = 0; // 0 = no shard filter.
    bool listJobs = false;
    std::string campaignInitPath;
    std::string campaignPath;
    unsigned workers = 0; // 0 = manifest shard count.
    std::vector<std::string> mergePaths;
    bool merge = false;

    // Leak fuzzing.
    std::string fuzzDir = "fuzz_repros";
    std::string fuzzFindingsPath = "fuzz_findings.jsonl";
    unsigned fuzzMinimize = 2;
    std::string fuzzReplayPath;

    // Fleet telemetry: --telemetry, --metrics and --progress.
    telemetry::TelemetryConfig telemetry;
    bool report = false;
    std::vector<std::string> reportPaths;
    std::string validatePath;

    // Observability.
    std::string tracePath;
    std::uint64_t traceStart = 0;
    std::uint64_t traceInsts = 0;
    std::uint64_t watchdogCycles = 100'000;
    bool wedge = false;
    bool dists = false;
};

Options
parseArgs(int argc, char **argv)
{
    Options options;
    auto next = [&](int &i, const char *flag) -> std::string {
        if (i + 1 >= argc)
            usageError(std::string(flag) + " needs an argument");
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::fputs(kUsage, stdout);
            std::exit(0);
        } else if (arg == "--list") {
            for (const auto &w : workloads::extendedSuite())
                std::printf("%-14s %-9s %-8s %s\n", w.name.c_str(),
                            w.suite.c_str(), w.tier.c_str(),
                            w.pattern.c_str());
            std::exit(0);
        } else if (arg == "--suite") {
            options.sweep.suite = joinList(splitList(next(i, "--suite")));
            if (options.sweep.suite.empty())
                usageError("--suite needs at least one workload name");
        } else if (arg == "--schemes") {
            std::vector<std::string> tokens;
            for (const std::string &name : splitList(next(i, "--schemes"))) {
                try {
                    tokens.push_back(schemeToken(schemeFromToken(name)));
                } catch (const CampaignError &) {
                    usageError("unknown scheme '" + name + "'");
                }
            }
            if (tokens.empty())
                usageError("--schemes needs at least one scheme");
            options.sweep.schemes = joinList(tokens);
        } else if (arg == "--ap") {
            options.sweep.ap = next(i, "--ap");
            if (options.sweep.ap != "on" && options.sweep.ap != "off" &&
                options.sweep.ap != "both")
                usageError("--ap must be on, off or both");
        } else if (arg == "--instructions") {
            options.sweep.instructions =
                parseCount(next(i, "--instructions"), "--instructions");
        } else if (arg == "--threads") {
            options.threads =
                parseUnsigned(next(i, "--threads"), "--threads", false);
        } else if (arg == "--jsonl") {
            options.jsonlPath = next(i, "--jsonl");
        } else if (arg == "--journal") {
            options.journalPath = next(i, "--journal");
        } else if (arg == "--resume") {
            options.resumePath = next(i, "--resume");
        } else if (arg == "--retries") {
            options.sweep.retries =
                parseUnsigned(next(i, "--retries"), "--retries", true);
        } else if (arg == "--retry-base-ms") {
            options.sweep.retryBaseMs = parseCount(
                next(i, "--retry-base-ms"), "--retry-base-ms", true);
        } else if (arg == "--job-timeout") {
            options.sweep.jobTimeoutSec =
                parseCount(next(i, "--job-timeout"), "--job-timeout", true);
        } else if (arg == "--inject-fail") {
            const std::string spec = next(i, "--inject-fail");
            const std::size_t comma = spec.find(',');
            if (comma == std::string::npos)
                usageError("--inject-fail needs RATE,SEED (e.g. 0.3,42)");
            options.sweep.injectFailRate =
                parseReal(spec.substr(0, comma),
                          "--inject-fail needs a numeric RATE", false);
            options.sweep.injectFailSeed = parseCount(
                spec.substr(comma + 1), "--inject-fail seed", true);
        } else if (arg == "--no-host-metrics") {
            options.hostMetrics = false;
        } else if (arg == "--journal-sync") {
            options.journalSync = true;
        } else if (arg == "--progress") {
            options.telemetry.progressPeriodSec =
                parseReal(next(i, "--progress"),
                          "--progress needs a positive number of seconds",
                          true);
        } else if (arg == "--shard") {
            const std::string spec = next(i, "--shard");
            const std::size_t slash = spec.find('/');
            if (slash == std::string::npos)
                usageError("--shard needs I/N (e.g. 0/4)");
            options.shardIndex =
                parseUnsigned(spec.substr(0, slash), "--shard index", true);
            options.shardCount =
                parseUnsigned(spec.substr(slash + 1), "--shard count", false);
            if (options.shardIndex >= options.shardCount)
                usageError("--shard index must be below the shard count "
                           "(0-based), got '" + spec + "'");
        } else if (arg == "--list-jobs") {
            options.listJobs = true;
        } else if (arg == "--campaign-init") {
            options.campaignInitPath = next(i, "--campaign-init");
        } else if (arg == "--shards") {
            options.sweep.shards =
                parseUnsigned(next(i, "--shards"), "--shards", false);
        } else if (arg == "--campaign") {
            options.campaignPath = next(i, "--campaign");
        } else if (arg == "--workers") {
            options.workers =
                parseUnsigned(next(i, "--workers"), "--workers", false);
        } else if (arg == "--merge") {
            options.merge = true;
            while (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0)
                options.mergePaths.push_back(argv[++i]);
            if (options.mergePaths.empty())
                usageError("--merge needs at least one journal file");
        } else if (arg == "--fuzz") {
            options.sweep.fuzzCount = parseCount(next(i, "--fuzz"), "--fuzz");
        } else if (arg == "--fuzz-seed") {
            options.sweep.fuzzSeed =
                parseCount(next(i, "--fuzz-seed"), "--fuzz-seed", true);
        } else if (arg == "--fuzz-dir") {
            options.fuzzDir = next(i, "--fuzz-dir");
            if (options.fuzzDir.empty())
                usageError("--fuzz-dir needs a directory path");
        } else if (arg == "--fuzz-findings") {
            options.fuzzFindingsPath = next(i, "--fuzz-findings");
            if (options.fuzzFindingsPath.empty())
                usageError("--fuzz-findings needs a file path");
        } else if (arg == "--fuzz-minimize") {
            options.fuzzMinimize = parseUnsigned(
                next(i, "--fuzz-minimize"), "--fuzz-minimize", true);
        } else if (arg == "--fuzz-replay") {
            options.fuzzReplayPath = next(i, "--fuzz-replay");
        } else if (arg == "--telemetry") {
            options.telemetry.tracePath = next(i, "--telemetry");
        } else if (arg == "--metrics") {
            const std::string spec = next(i, "--metrics");
            const std::size_t comma = spec.rfind(',');
            options.telemetry.metricsPath = spec.substr(0, comma);
            if (comma != std::string::npos)
                options.telemetry.metricsPeriodSec =
                    parseReal(spec.substr(comma + 1),
                              "--metrics needs FILE[,SECS] with positive SECS",
                              true);
            if (options.telemetry.metricsPath.empty())
                usageError("--metrics needs a file path");
        } else if (arg == "--report") {
            options.report = true;
            while (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0)
                options.reportPaths.push_back(argv[++i]);
            if (options.reportPaths.empty())
                usageError("--report needs at least one journal file");
        } else if (arg == "--validate") {
            options.validatePath = next(i, "--validate");
        } else if (arg == "--no-skip") {
            options.idleSkip = false;
        } else if (arg == "--quiet") {
            options.quiet = true;
        } else if (arg == "--trace") {
            options.tracePath = next(i, "--trace");
        } else if (arg == "--trace-start") {
            options.traceStart =
                parseCount(next(i, "--trace-start"), "--trace-start", true);
        } else if (arg == "--trace-insts") {
            options.traceInsts =
                parseCount(next(i, "--trace-insts"), "--trace-insts", true);
        } else if (arg == "--watchdog") {
            options.watchdogCycles =
                parseCount(next(i, "--watchdog"), "--watchdog", true);
        } else if (arg == "--ffwd") {
            options.sweep.ffwdInstructions =
                parseCount(next(i, "--ffwd"), "--ffwd");
        } else if (arg == "--sample") {
            const std::string spec = next(i, "--sample");
            const std::size_t comma = spec.find(',');
            if (comma == std::string::npos)
                usageError("--sample needs INTERVAL,DETAIL "
                           "(e.g. 100000,10000)");
            options.sweep.sampleInterval =
                parseCount(spec.substr(0, comma), "--sample interval");
            options.sweep.sampleDetail =
                parseCount(spec.substr(comma + 1), "--sample detail");
            if (options.sweep.sampleDetail > options.sweep.sampleInterval)
                usageError("--sample DETAIL must not exceed INTERVAL");
        } else if (arg == "--ckpt-save") {
            const std::string spec = next(i, "--ckpt-save");
            const std::size_t at = spec.rfind('@');
            if (at == std::string::npos || at == 0)
                usageError("--ckpt-save needs FILE@INST "
                           "(e.g. run.ckpt@500000)");
            options.ckptSavePath = spec.substr(0, at);
            options.ckptSaveInst =
                parseCount(spec.substr(at + 1), "--ckpt-save instruction");
        } else if (arg == "--ckpt-restore") {
            options.ckptRestorePath = next(i, "--ckpt-restore");
        } else if (arg == "--tier") {
            options.sweep.tier = next(i, "--tier");
            if (options.sweep.tier != "default" &&
                options.sweep.tier != "long" && options.sweep.tier != "all")
                usageError("--tier must be default, long or all");
        } else if (arg == "--wedge") {
            options.wedge = true;
        } else if (arg == "--dists") {
            options.dists = true;
        } else {
            usageError("unknown option '" + arg + "'");
        }
    }
    // Checked here, where every mode (--campaign-init too) passes.
    if (options.sweep.fuzzCount != 0 &&
        (!options.sweep.suite.empty() || !options.tracePath.empty() ||
         !options.ckptSavePath.empty() || !options.ckptRestorePath.empty() ||
         options.wedge || options.sweep.ffwdInstructions != 0 ||
         options.sweep.sampleInterval != 0))
        usageError("--fuzz synthesizes its own jobs; it does not "
                   "combine with --suite/--trace/--ckpt-*/--wedge/"
                   "--ffwd/--sample");
    return options;
}

/**
 * The sweep the flags select: manifestSpec() of the sweep request, the
 * derivation campaign workers use too, so job keys agree by
 * construction. Then the host-only knobs no manifest records are set
 * on each config; fuzz jobs keep the oracle's config untouched.
 */
SweepSpec
buildSpec(const Options &options)
{
    if (options.sweep.fuzzCount != 0)
        return manifestSpec(options.sweep);

    SweepSpec spec = manifestSpec(options.sweep);
    for (SimConfig &config : spec.configs) {
        config.ckptSavePath = options.ckptSavePath;
        config.ckptSaveInst = options.ckptSaveInst;
        config.ckptRestorePath = options.ckptRestorePath;
        // A restored checkpoint is functionally warmed as well: the
        // detailed window is measured from its first instruction.
        if (!config.ckptRestorePath.empty())
            config.warmupInstructions = 0;
        config.tracePath = options.tracePath;
        config.traceStartInst = options.traceStart;
        config.traceMaxInsts = options.traceInsts;
        config.watchdogCycles = options.watchdogCycles;
        config.wedgeNeverResolve = options.wedge;
        // Host-level knob (like --threads): never part of job identity
        // or campaign manifests, so a --no-skip run byte-compares
        // against a skipping one.
        config.idleSkip = options.idleSkip;
    }
    return spec;
}

/** RunnerOptions for this invocation's fault-tolerance flags. */
RunnerOptions
runnerOptions(const Options &options, unsigned threads)
{
    RunnerOptions ropts = manifestRunnerOptions(options.sweep);
    ropts.threads = threads;
    ropts.progress = !options.quiet;
    ropts.journalPath = !options.resumePath.empty() ? options.resumePath
                                                    : options.journalPath;
    ropts.journalSync = options.journalSync;
    if (!options.resumePath.empty())
        ropts.resume = loadJournal(options.resumePath);
    ropts.cancel = &drainFlag();
    return ropts;
}

/** Compact per-job summary on stdout; returns 1 when any job failed. */
int
printSummaryTable(const std::vector<JobOutcome> &outcomes)
{
    int exitCode = 0;
    std::printf("%-14s %-9s %-10s %10s %12s %8s %10s\n", "workload", "suite",
                "config", "cycles", "instructions", "ipc", "status");
    for (const JobOutcome &outcome : outcomes) {
        if (outcome.ok) {
            std::printf("%-14s %-9s %-10s %10llu %12llu %8.3f %10s\n",
                        outcome.workload.c_str(), outcome.suite.c_str(),
                        outcome.configLabel.c_str(),
                        static_cast<unsigned long long>(outcome.result.cycles),
                        static_cast<unsigned long long>(
                            outcome.result.instructions),
                        outcome.result.ipc, "ok");
        } else {
            std::printf("%-14s %-9s %-10s %10s %12s %8s %10s  # %s\n",
                        outcome.workload.c_str(), outcome.suite.c_str(),
                        outcome.configLabel.c_str(), "-", "-", "-", "FAILED",
                        outcome.error.c_str());
            exitCode = 1;
        }
    }
    return exitCode;
}

/**
 * Write @p outcomes to the --jsonl file, when one is open, one
 * toJsonLine() a line. Lines carry host metrics (wall time, KIPS, trace
 * and watchdog metadata) unless --no-host-metrics asked for the
 * byte-comparable form. Returns false, after saying so on stderr, when
 * the write failed (a full disk): a run whose results were lost must
 * not exit 0.
 */
bool
writeJsonl(const std::vector<JobOutcome> &outcomes, const Options &options,
           std::ofstream &jsonl)
{
    if (!jsonl.is_open())
        return true;
    for (const JobOutcome &outcome : outcomes)
        jsonl << toJsonLine(outcome, options.hostMetrics) << '\n';
    jsonl.flush();
    if (!jsonl) {
        std::fprintf(stderr, "dgrun: failed writing %s\n",
                     options.jsonlPath.c_str());
        return false;
    }
    std::fprintf(stderr, "[dgrun] wrote %s\n", options.jsonlPath.c_str());
    return true;
}

/**
 * The fuzz post-pass (repros, minimization, findings JSONL) over the
 * index-ordered outcomes of @p sweep, when it is a fuzz sweep. Returns
 * 4 — the "confirmed secure-scheme leak" exit code — when any finding
 * survived, else @p exitCode: a leak dominates every other exit
 * condition, as it is the one result the campaign exists to find.
 */
int
runFuzzPost(const std::vector<JobOutcome> &outcomes,
            const CampaignManifest &sweep, const Options &options,
            int exitCode)
{
    if (sweep.fuzzCount == 0)
        return exitCode;
    fuzz::PostOptions popts;
    popts.fuzzSeed = sweep.fuzzSeed;
    popts.reproDir = options.fuzzDir;
    popts.findingsPath = options.fuzzFindingsPath;
    popts.minimizeExpected = options.fuzzMinimize;
    popts.quiet = options.quiet;
    const fuzz::PostSummary summary =
        fuzz::postProcess(outcomes, popts, std::cerr);
    return summary.findings != 0 ? 4 : exitCode;
}

/** --fuzz-replay: one .dgasm repro through the full oracle. */
int
runFuzzReplay(const Options &options)
{
    const fuzz::AttackerIr ir = fuzz::loadDgasm(options.fuzzReplayPath);
    const std::vector<security::SecretPair> pairs =
        security::defaultSecretPairs(options.sweep.fuzzSeed);
    const std::vector<fuzz::ConfigVerdict> verdicts =
        fuzz::evaluateCandidate(ir, fuzz::oracleBaseConfig(), pairs);

    std::printf("replay %s: %s, %zu instruction(s), %zu secret pair(s)\n",
                options.fuzzReplayPath.c_str(), ir.name.c_str(),
                ir.instructionCount(), pairs.size());
    std::printf("%-10s %-13s %-9s %s\n", "config", "verdict", "class",
                "detail");
    int exitCode = 0;
    for (const fuzz::ConfigVerdict &verdict : verdicts) {
        const security::LeakCheck &check = verdict.check;
        const char *klass = verdict.finding()    ? "FINDING"
                            : verdict.expected   ? "expected"
                            : check.inconclusive() ? "incncl"
                                                   : "clean";
        std::string detail;
        if (check.leaked()) {
            char buf[160];
            std::snprintf(buf, sizeof(buf),
                          "secrets (%llu, %llu) -> digests %016llx vs "
                          "%016llx",
                          static_cast<unsigned long long>(check.secretA),
                          static_cast<unsigned long long>(check.secretB),
                          static_cast<unsigned long long>(check.digestA),
                          static_cast<unsigned long long>(check.digestB));
            detail = buf;
        } else if (check.inconclusive()) {
            detail = check.reason;
        }
        std::printf("%-10s %-13s %-9s %s\n", verdict.configLabel.c_str(),
                    security::verdictName(check.verdict), klass,
                    detail.c_str());
        if (verdict.finding())
            exitCode = 4;
    }
    return exitCode;
}

/** --campaign-init: pin the sweep into a manifest and exit. */
int
runCampaignInit(const Options &options)
{
    if (!options.ckptSavePath.empty() || !options.ckptRestorePath.empty() ||
        !options.tracePath.empty() || options.wedge)
        usageError("campaigns do not capture --ckpt-save/--ckpt-restore/"
                   "--trace/--wedge; run those as single jobs");

    CampaignManifest manifest = options.sweep;
    manifest.name = options.campaignInitPath;
    const std::vector<Job> jobs = manifestSpec(manifest).expand();
    manifest.jobKeys.reserve(jobs.size());
    for (const Job &job : jobs)
        manifest.jobKeys.push_back(jobKey(job));
    writeManifest(options.campaignInitPath, manifest);

    std::vector<std::size_t> perShard(manifest.shards, 0);
    for (const std::string &key : manifest.jobKeys)
        ++perShard[shardOf(key, manifest.shards)];
    std::fprintf(stderr,
                 "[dgrun] campaign-init: %zu jobs over %u shard(s) -> %s\n",
                 jobs.size(), manifest.shards,
                 options.campaignInitPath.c_str());
    for (unsigned s = 0; s < manifest.shards; ++s)
        std::fprintf(stderr, "[dgrun]   shard %u: %zu job(s)\n", s,
                     perShard[s]);
    return 0;
}

/**
 * The sweep --list-jobs and --merge select, expanded: --campaign F's
 * manifest, checked against its own job keys, else the flags' sweep.
 */
std::pair<CampaignManifest, std::vector<Job>>
selectedSweep(const Options &options)
{
    if (options.campaignPath.empty())
        return {options.sweep, buildSpec(options).expand()};
    CampaignManifest manifest = loadManifest(options.campaignPath);
    std::vector<Job> jobs = manifestSpec(manifest).expand();
    const std::string err = validateManifest(manifest, jobs);
    if (!err.empty())
        usageError("manifest mismatch: " + err);
    return {std::move(manifest), std::move(jobs)};
}

/**
 * --list-jobs: shard membership of the selected sweep, then exit. With
 * --campaign F the sweep and shard count come from the manifest, so the
 * listing shows exactly what the campaign's workers will run.
 */
int
runListJobs(const Options &options)
{
    auto [sweep, jobs] = selectedSweep(options);
    unsigned shards = sweep.shards;
    if (options.shardCount != 0) {
        shards = options.shardCount;
        jobs = filterShard(std::move(jobs), options.shardIndex, shards);
    }
    std::printf("%-5s %-14s %-10s %s\n", "shard", "workload", "config",
                "key");
    for (const Job &job : jobs) {
        const std::string key = jobKey(job);
        std::printf("%-5u %-14s %-10s %s\n", shardOf(key, shards),
                    job.workload.c_str(), job.config.label().c_str(),
                    key.c_str());
    }
    std::fprintf(stderr, "[dgrun] %zu job(s)%s\n", jobs.size(),
                 options.shardCount != 0 ? " in this shard" : "");
    return 0;
}

/**
 * --merge: fold journals by job identity into the result set of the
 * sweep the other flags (or --campaign F's manifest) select.
 */
int
runMergeMode(const Options &options, std::ofstream &jsonl)
{
    const auto [sweep, jobs] = selectedSweep(options);
    const JournalMap merged = mergeJournals(options.mergePaths);
    const std::vector<JobOutcome> outcomes = orderOutcomes(merged, jobs);

    std::size_t missing = 0;
    for (const JobOutcome &outcome : outcomes)
        missing += !outcome.ok && outcome.attempts == 0;
    std::fprintf(stderr,
                 "[dgrun] merge: %zu journal(s), %zu record(s), "
                 "%zu/%zu job(s) present\n",
                 options.mergePaths.size(), merged.size(),
                 outcomes.size() - missing, outcomes.size());

    // --journal OUT: a merged journal any future --resume can load.
    if (!options.journalPath.empty()) {
        std::remove(options.journalPath.c_str());
        JournalWriter writer(options.journalPath,
                             /*host_metrics=*/options.hostMetrics,
                             options.journalSync);
        for (std::size_t i = 0; i < outcomes.size(); ++i)
            if (outcomes[i].attempts != 0)
                writer.record(jobKey(jobs[i]), outcomes[i]);
        std::fprintf(stderr, "[dgrun] wrote merged journal %s\n",
                     options.journalPath.c_str());
    }

    const bool wrote = writeJsonl(outcomes, options, jsonl);
    int exitCode = printSummaryTable(outcomes);
    if (missing != 0 || !wrote)
        exitCode = 1;
    return runFuzzPost(outcomes, sweep, options, exitCode);
}

/** --campaign: the forked work-stealing coordinator. */
int
runCampaignMode(const Options &options, std::ofstream &jsonl)
{
    const CampaignManifest manifest = loadManifest(options.campaignPath);

    CoordinatorOptions copts;
    copts.workers = options.workers;
    copts.progress = !options.quiet;
    copts.journalSync = options.journalSync;

    installDrainHandler();
    CampaignReport report;
    {
        // The top-level span every worker/pass/job span nests under;
        // --report measures coverage against its duration.
        telemetry::ScopedSpan span("campaign", "campaign");
        span.arg("manifest", options.campaignPath);
        report = runCampaign(options.campaignPath, manifest, copts);
    }

    std::fprintf(stderr,
                 "[dgrun] campaign: %zu/%zu ok, %zu failed, %zu missing "
                 "in %.2fs (%.2f jobs/s); %zu stolen, %zu duplicate "
                 "claim(s), %u pass(es), %u worker death(s)\n",
                 report.ok, report.total, report.failed, report.missing,
                 report.seconds,
                 report.seconds > 0.0 ? report.total / report.seconds : 0.0,
                 report.stolen, report.duplicates, report.passes,
                 report.workerDeaths);

    const bool wrote = writeJsonl(report.outcomes, options, jsonl);
    int exitCode = printSummaryTable(report.outcomes);
    if (!wrote)
        exitCode = 1;
    if (report.missing != 0) {
        std::fprintf(stderr,
                     "[dgrun] campaign incomplete: re-run --campaign %s "
                     "to resume\n",
                     options.campaignPath.c_str());
        exitCode = 1;
    }
    exitCode = runFuzzPost(report.outcomes, manifest, options, exitCode);
    if (report.drained)
        return 130;
    return exitCode;
}

/**
 * --validate: structural checks on a merged telemetry trace (a JSON
 * document, so its first byte is '{') or an O3PipeView pipeline trace.
 */
int
runValidate(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        usageError("cannot open " + path);
    const bool telemetryTrace = in.peek() == '{';
    const char *kind = telemetryTrace ? "telemetry" : "trace";
    std::string violation;
    char summary[128];
    if (telemetryTrace) {
        try {
            const std::vector<telemetry::TraceEvent> events =
                telemetry::loadMergedTrace(path);
            violation = telemetry::validateTraceEvents(events);
            std::snprintf(summary, sizeof(summary), "%zu event(s)",
                          events.size());
        } catch (const JsonParseError &e) {
            violation = e.what();
        }
    } else {
        const std::vector<TraceRecord> records = parseO3PipeView(in);
        violation = validateO3PipeView(records);
        std::size_t squashed = 0;
        for (const TraceRecord &record : records)
            squashed += record.squashed;
        std::snprintf(summary, sizeof(summary),
                      "%zu records (%zu retired, %zu squashed)",
                      records.size(), records.size() - squashed, squashed);
    }
    if (!violation.empty()) {
        std::fprintf(stderr, "[dgrun] %s INVALID: %s\n", kind,
                     violation.c_str());
        return 1;
    }
    std::fprintf(stderr, "[dgrun] %s OK: %s\n", kind, summary);
    return 0;
}

/**
 * RAII around the telemetry lifetime in the parent process: enable on
 * entry when --telemetry/--metrics/--progress ask for it, merge the
 * per-process event part files and run the reporter's final tick on
 * any exit path. Forked workers never run this destructor — they
 * _exit — so the merge happens exactly once, in the coordinator.
 */
struct TelemetrySession
{
    explicit TelemetrySession(const Options &options)
    {
        const telemetry::TelemetryConfig &config = options.telemetry;
        if (!config.tracePath.empty() || !config.metricsPath.empty() ||
            config.progressPeriodSec > 0.0)
            telemetry::enable(config);
    }

    ~TelemetrySession()
    {
        telemetry::finalizeTrace();
        telemetry::shutdown();
    }
};

/** --report: journals (+ optional --telemetry trace) -> stdout. */
int
runReportMode(const Options &options)
{
    telemetry::ReportInputs inputs;
    inputs.journalPaths = options.reportPaths;
    inputs.tracePath = options.telemetry.tracePath;
    const std::string report = telemetry::buildCampaignReport(inputs);
    std::fwrite(report.data(), 1, report.size(), stdout);
    return 0;
}

/** The plain sweep: expand, run on the thread pool, report. */
int
runSweepMode(const Options &options, std::ofstream &jsonl)
{
    const unsigned threads = options.threads == 0
                                 ? ThreadPool::hardwareThreads()
                                 : options.threads;

    const SweepSpec spec = buildSpec(options);
    std::vector<Job> jobs;
    {
        telemetry::ScopedSpan span("expand", "phase");
        jobs = spec.expand();
    }
    if (options.shardCount != 0) {
        const std::size_t totalJobs = jobs.size();
        jobs = filterShard(std::move(jobs), options.shardIndex,
                           options.shardCount);
        std::fprintf(stderr, "[dgrun] shard %u/%u: %zu of %zu job(s)\n",
                     options.shardIndex, options.shardCount, jobs.size(),
                     totalJobs);
    }
    if (!options.tracePath.empty() && jobs.size() != 1)
        usageError("--trace needs exactly one workload x config (use "
                   "--suite, --schemes and --ap to select one); the sweep "
                   "has " + std::to_string(jobs.size()) + " jobs");
    // Checkpoint files name one run's state: a multi-job sweep would
    // race on --ckpt-save and misapply --ckpt-restore across workloads.
    if ((!options.ckptSavePath.empty() || !options.ckptRestorePath.empty()) &&
        jobs.size() != 1)
        usageError("--ckpt-save/--ckpt-restore need exactly one workload x "
                   "config; the sweep has " + std::to_string(jobs.size()) +
                   " jobs");
    if (spec.fuzzCount != 0)
        std::fprintf(stderr,
                     "[dgrun] fuzz: %llu candidate(s), seed %llu, "
                     "%u thread(s)\n",
                     static_cast<unsigned long long>(spec.fuzzCount),
                     static_cast<unsigned long long>(spec.fuzzSeed),
                     threads);
    else
        std::fprintf(stderr,
                     "[dgrun] %zu workloads x %zu configs = %zu jobs, "
                     "%llu instructions each, %u thread(s)\n",
                     spec.workloads.size(), spec.configs.size(), jobs.size(),
                     static_cast<unsigned long long>(
                         options.sweep.instructions),
                     threads);

    // SIGINT/SIGTERM drain: stop dispatching, finish in-flight jobs,
    // write results + journal, exit resumably (128+signo convention).
    installDrainHandler();

    ExperimentRunner runner(runnerOptions(options, threads));
    const auto start = std::chrono::steady_clock::now();
    std::vector<JobOutcome> outcomes;
    {
        // The plain sweep is a one-process "campaign" for the trace's
        // purposes: the same top-level span --report keys on.
        telemetry::ScopedSpan span("campaign", "campaign");
        outcomes = runner.run(jobs);
    }
    const std::chrono::duration<double> seconds =
        std::chrono::steady_clock::now() - start;
    std::fprintf(stderr, "[dgrun] completed in %.2fs on %u thread(s)\n",
                 seconds.count(), threads);

    const bool wrote = writeJsonl(outcomes, options, jsonl);
    int exitCode = printSummaryTable(outcomes);
    if (!wrote)
        exitCode = 1;

    if (!options.tracePath.empty()) {
        std::uint64_t traceRecords = 0;
        for (const JobOutcome &outcome : outcomes)
            traceRecords += outcome.result.traceRecords;
        std::fprintf(stderr,
                     "[dgrun] wrote %llu trace records to %s\n",
                     static_cast<unsigned long long>(traceRecords),
                     options.tracePath.c_str());
    }
    if (options.dists) {
        for (const JobOutcome &outcome : outcomes) {
            if (outcome.result.distributions.empty())
                continue;
            std::printf("\n--- distributions: %s / %s ---\n%s",
                        outcome.workload.c_str(),
                        outcome.configLabel.c_str(),
                        outcome.result.distributions.c_str());
        }
    }

    exitCode = runFuzzPost(outcomes, options.sweep, options, exitCode);

    // Fault-tolerance accounting.
    std::size_t resumedCount = 0, retriedCount = 0, interruptedCount = 0;
    for (const JobOutcome &outcome : outcomes) {
        resumedCount += outcome.resumed;
        retriedCount += outcome.attempts > 1;
        interruptedCount += outcome.attempts == 0;
    }
    if (resumedCount || retriedCount)
        std::fprintf(stderr,
                     "[dgrun] fault tolerance: %zu resumed from journal, "
                     "%zu needed retries\n",
                     resumedCount, retriedCount);
    if (drainRequested()) {
        const std::string &journal = !options.resumePath.empty()
                                         ? options.resumePath
                                         : options.journalPath;
        std::fprintf(stderr,
                     "[dgrun] interrupted: %zu job(s) never started%s%s\n",
                     interruptedCount,
                     journal.empty()
                         ? "; re-run with --journal to make sweeps resumable"
                         : "; resume with --resume ",
                     journal.c_str());
        return 130;
    }
    return exitCode;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options options = parseArgs(argc, argv);
    // The telemetry *readers* run before the session below would
    // truncate the very files they read.
    if (!options.validatePath.empty())
        return runValidate(options.validatePath);
    if (options.report)
        return runReportMode(options);
    if (!options.fuzzReplayPath.empty())
        return runFuzzReplay(options);
    TelemetrySession telemetrySession(options);
    try {
        if (options.listJobs)
            return runListJobs(options);
        if (!options.campaignInitPath.empty())
            return runCampaignInit(options);
        // Opened before any mode runs, so a bad path fails fast instead
        // of discarding minutes of simulation.
        std::ofstream jsonl;
        if (!options.jsonlPath.empty()) {
            jsonl.open(options.jsonlPath);
            if (!jsonl)
                usageError("cannot open " + options.jsonlPath);
        }
        if (options.merge)
            return runMergeMode(options, jsonl);
        if (!options.campaignPath.empty())
            return runCampaignMode(options, jsonl);
        return runSweepMode(options, jsonl);
    } catch (const CampaignError &e) {
        std::fprintf(stderr, "dgrun: %s\n", e.what());
        return 2;
    }
}
