/**
 * @file
 * dgbench: dgsim's benchmark. One workload per invocation:
 *
 *   dgbench --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR
 *
 * Workloads (closed-loop batch work, each run to completion):
 *   paper_matrix   the 25 default-tier proxies x the 8 (scheme, AP)
 *                  columns in the figure benches' config shape, 1 thread;
 *   long_sampled   stream/chase/phased_long under periodic sampling plus
 *                  chase_long in full detail, all STT+AP, 1 thread;
 *   fuzz_campaign  a fixed seeded corpus of leak-fuzzing candidates on 2
 *                  runner threads with a completion journal, the
 *                  findings post-pass and a resume pass against the
 *                  full journal.
 *
 * With --trace 0 the run reports the end-to-end metrics: the simulation
 * workloads repeat whole rounds for --seconds; fuzz_campaign runs its
 * corpus twice (25-45 s of work, with the host's speed). Timings come from
 * each job's fastest run. With --trace 1 it runs
 * one untraced round, then drives the same jobs through the public
 * OooCore / harvestResult / oracle calls under spans, and reports the
 * per-layer metrics derived from those spans. Every run checks the
 * simulator's outputs; any violation exits 1 without a result line.
 * The last stdout line is the JSON result; lines before it start "# ".
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/ffwd.hh"
#include "ckpt/sampler.hh"
#include "common/buildinfo.hh"
#include "common/errors.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "cpu/core.hh"
#include "fuzz/dgasm.hh"
#include "fuzz/fuzz.hh"
#include "fuzz/oracle.hh"
#include "fuzz/synth.hh"
#include "isa/functional.hh"
#include "isa/isa.hh"
#include "memory/hierarchy.hh"
#include "predictor/branch_predictor.hh"
#include "predictor/stride_table.hh"
#include "runner/experiment_runner.hh"
#include "runner/journal.hh"
#include "runner/result_sink.hh"
#include "security/leak.hh"
#include "sim/simulator.hh"
#include "spans.hh"
#include "workloads/suite.hh"

namespace dgbench
{
namespace
{

using namespace dgsim;
using runner::Job;
using runner::JobOutcome;

// --- Sizing ----------------------------------------------------------
// Budgets are sized so a 36-second run repeats its round several times,
// while the minimum round counts still end within about a minute when
// the shared host runs at half speed.
//
// Every timing is taken from each job's fastest run in the run. Other
// tenants of a shared host only ever add time to a job, so its fastest
// run is the one they disturbed least; a median keeps whatever share of
// the runs fell into a slow spell of the host.

/** paper_matrix: instructions per (workload, column) job. */
constexpr std::uint64_t kMatrixBudget = 50'000;
/** long_sampled: total (fast-forwarded + detailed) per sampled job. */
constexpr std::uint64_t kSampledTotal = 2'000'000;
constexpr std::uint64_t kSampleInterval = 500'000;
constexpr std::uint64_t kSampleDetail = 20'000;
/** long_sampled: chase_long in full detail. */
constexpr std::uint64_t kChaseDetailed = 80'000;
/** fuzz_campaign: candidates per campaign, runner passes over them and
 * runner threads. The counts are fixed, so every run times the same
 * corpus size and the same post-pass whatever the host speed. 48
 * candidates leave 12 beyond p75. */
constexpr std::uint64_t kFuzzCandidates = 48;
constexpr unsigned kFuzzPasses = 2;
constexpr unsigned kFuzzThreads = 2;
/** fuzz_campaign traced run: candidates driven under spans. */
constexpr std::size_t kTracedCandidates = 4;
/** Set-up batches per window, and the least spacing of the windows
 * taken between rounds (SetupTimer). Each workload sizes its batches
 * to ~0.1 s of builds. */
constexpr unsigned kSetupBatches = 3;
constexpr unsigned kSetupSpacingS = 5;
constexpr unsigned kMatrixSetupPerBatch = 3;
constexpr unsigned kSampledSetupPerBatch = 2;
constexpr unsigned kFuzzSetupPerBatch = 5000;
/** Replay streams: instructions captured per program. */
constexpr std::uint64_t kReplayInstructions = 100'000;

/** The paper's seven Figure 6 GMEAN normalized IPCs (EXPERIMENTS.md). */
const std::vector<std::pair<std::string, double>> kPaperFig6 = {
    {"Unsafe+AP", 1.005}, {"NDA-P", 0.887}, {"NDA-P+AP", 0.935},
    {"STT", 0.905},       {"STT+AP", 0.951}, {"DoM", 0.818},
    {"DoM+AP", 0.873},
};

// --- Output ----------------------------------------------------------

struct MetricDef
{
    const char *name;
    const char *unit;
};

const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"sim_kips", "kinst/s"},
    {"jobs_per_s", "1/s"},     {"job_ms_p50", "ms"},
    {"job_ms_tail", "ms"},     {"peak_rss_mb", "MiB"},
};

const MetricDef kPerLayer[] = {
    {"workloads.build_ms", "ms"},
    {"cpu.construct_ms", "ms"},
    {"cpu.run_ms", "ms"},
    {"cpu.ns_per_tick", "ns"},
    {"cpu.ns_per_inst", "ns"},
    {"cpu.idle_skip_ratio", "ratio"},
    {"cpu.skip_events", "count"},
    {"cpu.squash_per_kinst", "1/kinst"},
    {"sim.harvest_ms", "ms"},
    {"sim.fixed_cost_pct", "%"},
    {"memory.l1_miss_ratio", "ratio"},
    {"memory.l2_miss_ratio", "ratio"},
    {"memory.dram_per_kinst", "1/kinst"},
    {"memory.access_ns", "ns"},
    {"memory.warm_access_ns", "ns"},
    {"predictor.stride_op_ns", "ns"},
    {"predictor.branch_op_ns", "ns"},
    {"core.dg_coverage", "ratio"},
    {"core.dg_accuracy", "ratio"},
    {"core.dg_issued_per_kinst", "1/kinst"},
    {"core.ap_host_cost_pct", "%"},
    {"secure.host_cost_pct.nda_p", "%"},
    {"secure.host_cost_pct.stt", "%"},
    {"secure.host_cost_pct.dom", "%"},
    {"secure.dom_delayed_per_kinst", "1/kinst"},
    {"isa.func_kips", "kinst/s"},
    {"ckpt.ffwd_kips", "kinst/s"},
    {"ckpt.ffwd_share", "%"},
    {"runner.overhead_pct", "%"},
    {"runner.queue_wait_ms_p50", "ms"},
    {"runner.journal_append_us", "us"},
    {"runner.resume_ms", "ms"},
    {"fuzz.synth_us", "us"},
    {"fuzz.eval_ms", "ms"},
    {"fuzz.post_ms", "ms"},
    {"fuzz.unsafe_hit_ratio", "ratio"},
    {"security.runs_per_check", "count"},
    {"fidelity.fig6_err_pp", "pp"},
    {"trace.overhead_pct", "%"},
};

/** Abort the run: a correctness check failed, so no metrics print. */
[[noreturn]] void
violation(const std::string &what)
{
    std::fprintf(stderr, "dgbench: check failed: %s\n", what.c_str());
    std::exit(1);
}

void
require(bool ok, const std::string &what)
{
    if (!ok)
        violation(what);
}

/** The metrics of one run plus its operation accounting. */
struct Report
{
    std::map<std::string, double> values;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void set(const std::string &name, double value) { values[name] = value; }

    /** Print the final JSON line with exactly the metrics in @p defs. */
    template <std::size_t N>
    void
    emit(const MetricDef (&defs)[N]) const
    {
        std::string line = "{\"correct\": true, \"attempted\": " +
                           std::to_string(attempted) +
                           ", \"failed\": " + std::to_string(failed) +
                           ", \"metrics\": {";
        for (std::size_t i = 0; i < N; ++i) {
            const auto it = values.find(defs[i].name);
            require(it != values.end() && std::isfinite(it->second),
                    std::string("metric not measured: ") + defs[i].name);
            char value[64];
            std::snprintf(value, sizeof(value), "%.9g", it->second);
            line += std::string(i ? ", " : "") + "\"" + defs[i].name +
                    "\": {\"value\": " + value + ", \"unit\": \"" +
                    defs[i].unit + "\"}";
        }
        line += "}}";
        std::printf("%s\n", line.c_str());
        std::fflush(stdout);
    }
};

// --- Small statistics ------------------------------------------------

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) * (pos - lo);
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

double
fastest(const std::vector<double> &values)
{
    return values.empty() ? 0.0
                          : *std::min_element(values.begin(), values.end());
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

std::uint64_t
fnv(std::uint64_t hash, const std::string &text)
{
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

std::string
hex(std::uint64_t value)
{
    char text[32];
    std::snprintf(text, sizeof(text), "%016llx",
                  static_cast<unsigned long long>(value));
    return text;
}

/** The job-order seed of round @p round of a run seeded @p seed. */
std::uint64_t
roundSeed(std::uint64_t seed, std::uint64_t round)
{
    return Rng(seed ^ (round * 0x9e3779b97f4a7c15ULL)).next();
}

/** Seeded permutation of job order; indices are renumbered 0..N-1. */
std::vector<Job>
permuted(std::vector<Job> jobs, std::uint64_t seed)
{
    Rng rng(seed);
    for (std::size_t i = jobs.size(); i > 1; --i)
        std::swap(jobs[i - 1], jobs[rng.below(i)]);
    for (std::size_t i = 0; i < jobs.size(); ++i)
        jobs[i].index = i;
    return jobs;
}

// --- Operation accounting --------------------------------------------

/** True when a simulation job committed its whole budget. */
bool
jobCompleted(const Job &job, const JobOutcome &outcome)
{
    if (!outcome.ok || outcome.result.hitMaxCycles)
        return false;
    const SimConfig &config = job.config;
    const SimResult &result = outcome.result;
    if (ckpt::wantsSampledRun(config)) {
        const auto ffwd = result.counters.find("ffwd.instructions");
        return ffwd != result.counters.end() &&
               ffwd->second + result.instructions == config.maxInstructions;
    }
    return result.instructions ==
           config.maxInstructions - config.warmupInstructions;
}

struct Ops
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

/**
 * Operations of one batch. A simulation job is one operation; a fuzz
 * candidate is one per (scheme, AP) column verdict, and an
 * Inconclusive verdict counts as failed.
 */
Ops
countOps(const std::vector<Job> &jobs, const std::vector<JobOutcome> &outcomes)
{
    const std::uint64_t columns =
        evaluationConfigs(fuzz::oracleBaseConfig()).size();
    Ops ops;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const JobOutcome &outcome = outcomes[i];
        if (jobs[i].kind == runner::JobKind::FuzzCandidate) {
            ops.attempted += columns;
            if (!outcome.ok) {
                ops.failed += columns;
                continue;
            }
            const auto it =
                outcome.result.counters.find(fuzz::kCounterInconclusive);
            ops.failed += it == outcome.result.counters.end() ? 0
                                                              : it->second;
        } else {
            ++ops.attempted;
            ops.failed += jobCompleted(jobs[i], outcome) ? 0 : 1;
        }
    }
    return ops;
}

/** The runner's deterministic fault injector, recomputed from its
 * documented inputs (job key, attempt, seed). */
bool
injectorFires(const std::string &key, unsigned attempt, double rate,
              std::uint64_t seed)
{
    Rng rng(fnv(kFnvBasis, key) ^ (seed + attempt * 0x9e3779b97f4a7c15ULL));
    return static_cast<double>(rng.next() >> 11) * 0x1.0p-53 < rate;
}

/**
 * Failure-accounting self-test: a tiny sweep under fault injection with
 * one attempt per job must count exactly the injected failures, and a
 * fuzz candidate forced Inconclusive must count every column failed.
 */
void
selfTestFailureAccounting(std::uint64_t seed)
{
    SimConfig base;
    base.maxInstructions = 2'000;
    base.maxCycles = 400'000;
    runner::SweepSpec spec;
    spec.workloads = {workloads::findWorkload("gobmk"),
                      workloads::findWorkload("gromacs")};
    spec.configs = evaluationConfigs(base);
    const std::vector<Job> jobs = spec.expand();

    runner::RunnerOptions options;
    options.progress = false;
    options.maxAttempts = 1;
    options.injectFailRate = 0.4;
    options.injectFailSeed = seed;
    const std::vector<JobOutcome> outcomes =
        runner::ExperimentRunner(options).run(jobs);
    std::uint64_t predicted = 0;
    for (const Job &job : jobs)
        predicted += injectorFires(runner::jobKey(job), 1,
                                   options.injectFailRate, seed);
    const Ops ops = countOps(jobs, outcomes);
    require(ops.attempted == jobs.size() && ops.failed == predicted,
            "failure accounting counted " + std::to_string(ops.failed) +
                "/" + std::to_string(ops.attempted) + ", injector predicts " +
                std::to_string(predicted) + "/" +
                std::to_string(jobs.size()));

    Job candidate;
    candidate.kind = runner::JobKind::FuzzCandidate;
    candidate.workload = fuzz::candidateName(0);
    candidate.suite = "fuzz";
    candidate.fuzzSeed = seed;
    candidate.config = fuzz::oracleBaseConfig();
    candidate.config.maxCycles = 200; // No candidate halts this early.
    runner::RunnerOptions plain;
    plain.maxAttempts = 1;
    const JobOutcome forced =
        runner::runSingleJob(candidate, runner::jobKey(candidate), plain);
    const Ops forcedOps = countOps({candidate}, {forced});
    require(forced.ok && forcedOps.failed == forcedOps.attempted &&
                forcedOps.attempted != 0,
            "a forced Inconclusive verdict did not count as failed");
    std::printf("# self-test failure accounting: %llu/%zu injected "
                "failures counted, forced Inconclusive %llu/%llu failed\n",
                static_cast<unsigned long long>(ops.failed), jobs.size(),
                static_cast<unsigned long long>(forcedOps.failed),
                static_cast<unsigned long long>(forcedOps.attempted));
}

// --- Running rounds through the experiment runner --------------------

/** Host timing of one job, filled by the wrapped executor. */
struct JobTiming
{
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::string statsDump; ///< runProgram's stats dump (simulation jobs).

    double ms() const { return (endNs - startNs) / 1e6; }
};

/** One pass of a job list through ExperimentRunner. */
struct Round
{
    std::vector<Job> jobs;
    std::vector<JobOutcome> outcomes;
    std::vector<JobTiming> timings;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    unsigned threads = 1;

    double seconds() const { return (endNs - startNs) / 1e9; }
};

/**
 * Run @p jobs on @p options' threads. The executor is wrapped only to
 * time each job and keep its stats dump; it calls the same public
 * entry points the default executor does.
 */
Round
runRound(std::vector<Job> jobs, runner::RunnerOptions options)
{
    Round round;
    round.jobs = std::move(jobs);
    round.timings.resize(round.jobs.size());
    round.threads = options.threads;
    std::vector<JobTiming> &timings = round.timings;
    options.progress = false;
    options.maxAttempts = 1;
    options.execute = [&timings](const Job &job) {
        JobTiming &timing = timings[job.index];
        timing.startNs = nowNs();
        SimResult result =
            job.kind == runner::JobKind::FuzzCandidate
                ? fuzz::runCandidateJob(job)
                : runProgram(*job.program, job.config, &timing.statsDump);
        timing.endNs = nowNs();
        return result;
    };
    round.startNs = nowNs();
    round.outcomes = runner::ExperimentRunner(options).run(round.jobs);
    round.endNs = nowNs();
    return round;
}

/** Combined digest of every job's stats dump, independent of order. */
std::uint64_t
statsDigest(const Round &round)
{
    std::map<std::string, const std::string *> byJob;
    for (std::size_t i = 0; i < round.jobs.size(); ++i) {
        const Job &job = round.jobs[i];
        byJob[job.workload + "|" + job.config.label() + "|" +
              std::to_string(job.config.maxInstructions)] =
            &round.timings[i].statsDump;
    }
    std::uint64_t hash = kFnvBasis;
    for (const auto &[key, dump] : byJob)
        hash = fnv(fnv(hash, key), *dump);
    return hash;
}

/** Mean |measured - paper| over the Figure 6 GMEANs, in points. */
double
fig6ErrorPp(const Round &round)
{
    std::map<std::string, std::map<std::string, double>> ipc;
    for (const JobOutcome &outcome : round.outcomes)
        ipc[outcome.workload][outcome.configLabel] = outcome.result.ipc;
    double error = 0.0;
    for (const auto &[label, paper] : kPaperFig6) {
        double logSum = 0.0;
        for (const auto &[workload, row] : ipc)
            logSum += std::log(row.at(label) / row.at("Unsafe"));
        const double gmean = std::exp(logSum / ipc.size());
        error += std::fabs(gmean - paper) * 100.0;
    }
    return error / kPaperFig6.size();
}

/** Runner bookkeeping share of thread time, and median queue wait. */
void
runnerLayerMetrics(const Round &round, Report &report)
{
    double busyNs = 0.0;
    std::vector<double> waitMs;
    for (const JobTiming &timing : round.timings) {
        busyNs += static_cast<double>(timing.endNs - timing.startNs);
        waitMs.push_back((timing.startNs - round.startNs) / 1e6);
    }
    const double threadNs =
        static_cast<double>(round.endNs - round.startNs) * round.threads;
    report.set("runner.overhead_pct", 100.0 * (threadNs - busyNs) / threadNs);
    report.set("runner.queue_wait_ms_p50", median(waitMs));
}

/**
 * Set-up timing spread over the run: one window of kSetupBatches
 * batches before the timed phase, then another after each round that
 * ends kSetupSpacingS or more after the last window. setup_s is the
 * fastest batch's seconds per build.
 */
struct SetupTimer
{
    unsigned perBatch = 1;
    std::vector<double> samples;
    std::int64_t lastNs = 0;

    template <typename Fn>
    void
    window(Tracer *tracer, Fn &&build)
    {
        for (unsigned batch = 0; batch < kSetupBatches; ++batch) {
            const std::int64_t start = nowNs();
            {
                ScopedSpan span(tracer, "workloads.expand", batch, perBatch);
                for (unsigned rep = 0; rep < perBatch; ++rep)
                    build();
            }
            samples.push_back((nowNs() - start) / 1e9 / perBatch);
        }
        lastNs = nowNs();
    }

    /** A window after a round, if the last one is old enough. */
    template <typename Fn>
    void
    between(Fn &&build)
    {
        if (nowNs() - lastNs >= kSetupSpacingS * 1'000'000'000LL)
            window(nullptr, build);
    }

    double seconds() const { return fastest(samples); }
};

// --- Per-layer helpers (traced run) ----------------------------------

/** A program's functional access stream, for replaying single layers. */
struct Stream
{
    struct Branch
    {
        Addr pc;
        Instruction inst;
        bool taken;
        Addr target;
    };
    std::vector<std::pair<Addr, bool>> memory; ///< (address, is write).
    std::vector<std::pair<Addr, Addr>> loads;  ///< (pc, address).
    std::vector<Branch> branches;
};

Stream
captureStream(const Program &program, std::uint64_t instructions)
{
    Stream stream;
    FunctionalCore core(program);
    for (std::uint64_t i = 0; i < instructions && !core.halted(); ++i) {
        const Addr pc = core.pc();
        const Instruction inst = program.text[pc];
        const StepResult step = core.step();
        switch (opClass(inst.op)) {
          case OpClass::MemRead:
            stream.memory.emplace_back(step.effAddr, false);
            stream.loads.emplace_back(pc, step.effAddr);
            break;
          case OpClass::MemWrite:
            stream.memory.emplace_back(step.effAddr, true);
            break;
          case OpClass::Branch:
            stream.branches.push_back({pc, inst, step.taken, step.nextPc});
            break;
          default:
            break;
        }
    }
    return stream;
}

/**
 * Replay @p stream through fresh instances of the memory hierarchy
 * (timed and warm paths), the stride table and the branch predictor,
 * one span per layer with the operation count.
 */
void
replayLayers(Tracer &tracer, const Stream &stream, const SimConfig &config,
             std::uint64_t job)
{
    {
        StatRegistry stats;
        MemoryHierarchy hierarchy(config, stats);
        ScopedSpan span(&tracer, "memory.access", job, stream.memory.size());
        Cycle now = 0;
        for (const auto &[addr, write] : stream.memory) {
            MemAccessFlags flags;
            flags.isWrite = write;
            // An MSHR-full rejection retries at the next fill completion.
            while (!hierarchy.access(addr, now, flags).accepted()) {
                const Cycle next = hierarchy.nextFillCompletion(now);
                now = next == kInvalidCycle ? now + 1 : next;
            }
            ++now;
        }
    }
    {
        StatRegistry stats;
        MemoryHierarchy hierarchy(config, stats);
        ScopedSpan span(&tracer, "memory.warmAccess", job,
                        stream.memory.size());
        for (const auto &[addr, write] : stream.memory)
            hierarchy.warmAccess(addr, write);
    }
    {
        StatRegistry stats;
        StrideTable table(config.predictorEntries, config.predictorAssoc,
                          config.predictorConfidenceThreshold, stats);
        ScopedSpan span(&tracer, "predictor.stride", job);
        std::uint64_t ops = 0;
        for (const auto &[pc, addr] : stream.loads) {
            if (table.predictCurrent(pc)) {
                table.release(pc);
                ++ops;
            }
            table.train(pc, addr);
            ops += 2;
        }
        span.setOps(ops);
    }
    {
        StatRegistry stats;
        BranchPredictor predictor(config.bpHistoryBits, config.btbEntries,
                                  stats);
        ScopedSpan span(&tracer, "predictor.branch", job,
                        2 * stream.branches.size());
        for (const Stream::Branch &branch : stream.branches) {
            const BranchPrediction prediction =
                predictor.predict(branch.pc, branch.inst);
            if (isCondBranch(branch.inst.op) &&
                prediction.taken != branch.taken)
                predictor.repairHistory(prediction.ghrBefore, branch.taken);
            predictor.update(branch.pc, branch.inst, branch.taken,
                             branch.target, prediction.ghrBefore);
        }
    }
}

/** Host time of directly driven runs, per column and in total. */
struct HostTicks
{
    double runNs = 0.0;
    double ticks = 0.0;
    double instructions = 0.0;

    double nsPerTick() const { return ticks == 0.0 ? 0.0 : runNs / ticks; }
};

struct DirectDrive
{
    std::map<std::string, HostTicks> byColumn;
    HostTicks all;
    std::vector<SimResult> results;
};

/**
 * Drive one run through the public OooCore constructor, OooCore::run
 * and harvestResult, under spans when @p tracer is not null. The result goes to @p drive.results,
 * the stats dump to @p dump; returns the finished core. Throws what the
 * core throws.
 */
std::unique_ptr<OooCore>
driveDirect(Tracer *tracer, const Program &program, const SimConfig &config,
            std::uint64_t job, DirectDrive &drive, std::string *dump)
{
    ScopedSpan jobSpan(tracer, "sim.job", job);
    StatRegistry stats;
    std::unique_ptr<OooCore> core;
    {
        ScopedSpan span(tracer, "cpu.construct", job);
        core = std::make_unique<OooCore>(program, config, stats);
    }
    const std::int64_t runStart = nowNs();
    {
        ScopedSpan span(tracer, "cpu.run", job);
        span.setOps(core->run());
    }
    const double runNs = static_cast<double>(nowNs() - runStart);
    SimResult result;
    {
        ScopedSpan span(tracer, "sim.harvest", job);
        result = harvestResult(program, config, stats, *core, runNs / 1e9);
    }
    if (dump) {
        std::ostringstream ss;
        stats.dump(ss);
        *dump = ss.str();
    }
    // Ticked cycles: all cycles minus those the time warp jumped over
    // (the skip share of the measured region stands for the whole run).
    const double skipShare =
        result.cycles == 0 ? 0.0
                           : static_cast<double>(result.idleCyclesSkipped) /
                                 result.cycles;
    for (HostTicks *host : {&drive.all, &drive.byColumn[config.label()]}) {
        host->runNs += runNs;
        host->ticks += static_cast<double>(core->cycle()) * (1.0 - skipShare);
        host->instructions += static_cast<double>(core->committed());
    }
    drive.results.push_back(result);
    return core;
}

/**
 * Tracer cost: the same call timed without and with spans, back to
 * back on one thread, alternating which goes first.
 */
struct TraceOverhead
{
    double tracedNs = 0.0;
    double untracedNs = 0.0;
    unsigned pairs = 0;

    /** Call @p run(nullptr) and @p run(&tracer). */
    template <typename Fn>
    void
    measure(Tracer &tracer, Fn &&run)
    {
        for (int pass = 0; pass < 2; ++pass) {
            const bool traced = (pass == 0) == (pairs % 2 == 0);
            const std::int64_t start = nowNs();
            run(traced ? &tracer : nullptr);
            (traced ? tracedNs : untracedNs) += nowNs() - start;
        }
        ++pairs;
    }

    double
    pct() const
    {
        return untracedNs == 0.0 ? 0.0
                                 : 100.0 * (tracedNs / untracedNs - 1.0);
    }
};

/** Architectural state after a functional run of N instructions. */
struct ArchState
{
    std::uint64_t instructions = 0;
    std::uint64_t memoryDigest = 0;
};

ArchState
functionalState(Tracer *tracer, const Program &program,
                std::uint64_t instructions, std::uint64_t job)
{
    FunctionalCore core(program);
    ArchState state;
    {
        ScopedSpan span(tracer, "isa.functional", job);
        state.instructions = core.run(instructions);
        span.setOps(state.instructions);
    }
    state.memoryDigest = core.memory().digest();
    return state;
}

/**
 * The detailed core's committed state must equal the functional core's
 * at the same committed count. Data memory is written at commit, so it
 * compares directly. Registers are renamed speculatively, so they are
 * checked by re-running the job with the core's lockstep functional
 * oracle (SimConfig::checkArchState), which compares every committed
 * register write and panics on a mismatch; its stats dump must also
 * equal runProgram's.
 */
void
requireCommittedState(Tracer &tracer, const Job &job, const OooCore &core,
                      const ArchState &state, const std::string &statsDump)
{
    const std::string what = job.workload + " under " + job.config.label();
    require(core.committed() == state.instructions,
            what + ": committed " + std::to_string(core.committed()) +
                " instructions, functional ran " +
                std::to_string(state.instructions));
    require(core.dataMemory().digest() == state.memoryDigest,
            what + ": data memory differs from the functional core");
    SimConfig lockstep = job.config;
    lockstep.checkArchState = true;
    std::string dump;
    {
        ScopedSpan span(&tracer, "sim.lockstep", job.index);
        runProgram(*job.program, lockstep, &dump);
    }
    require(dump == statsDump,
            what + ": stats changed under the lockstep oracle");
}

/** Counter-derived layer metrics over a set of results. */
void
counterLayerMetrics(const std::vector<SimResult> &results, Report &report)
{
    double instructions = 0, cycles = 0, skipped = 0, skipEvents = 0,
           squashes = 0, l1a = 0, l1m = 0, l2a = 0, l2m = 0, dram = 0;
    double apInst = 0, covered = 0, apLoads = 0, verOk = 0, verBad = 0,
           issued = 0, domInst = 0, domDelayed = 0;
    const auto counter = [](const SimResult &r, const char *name) {
        const auto it = r.counters.find(name);
        return it == r.counters.end() ? 0.0
                                      : static_cast<double>(it->second);
    };
    for (const SimResult &r : results) {
        instructions += r.instructions;
        cycles += r.cycles;
        skipped += r.idleCyclesSkipped;
        skipEvents += r.skipEvents;
        squashes += r.branchSquashes + r.memOrderSquashes;
        l1a += r.l1Accesses;
        l1m += r.l1Misses;
        l2a += r.l2Accesses;
        l2m += r.l2Misses;
        dram += r.dramAccesses;
        if (r.configLabel.find("+AP") != std::string::npos) {
            apInst += r.instructions;
            covered += counter(r, "dg.committedCovered");
            apLoads += counter(r, "dg.committedLoads");
            verOk += r.dgVerifiedOk;
            verBad += r.dgVerifiedBad;
            issued += r.dgIssued;
        }
        if (r.configLabel.rfind("DoM", 0) == 0) {
            domInst += r.instructions;
            domDelayed += r.domDelayed;
        }
    }
    const auto ratio = [](double a, double b) { return b == 0 ? 0.0 : a / b; };
    report.set("cpu.idle_skip_ratio", ratio(skipped, cycles));
    report.set("cpu.skip_events", skipEvents);
    report.set("cpu.squash_per_kinst", 1000.0 * ratio(squashes, instructions));
    report.set("memory.l1_miss_ratio", ratio(l1m, l1a));
    report.set("memory.l2_miss_ratio", ratio(l2m, l2a));
    report.set("memory.dram_per_kinst", 1000.0 * ratio(dram, instructions));
    report.set("core.dg_coverage", ratio(covered, apLoads));
    report.set("core.dg_accuracy", ratio(verOk, verOk + verBad));
    report.set("core.dg_issued_per_kinst", 1000.0 * ratio(issued, apInst));
    report.set("secure.dom_delayed_per_kinst",
               1000.0 * ratio(domDelayed, domInst));
}

/** Span- and drive-derived layer metrics shared by every workload. */
void
spanLayerMetrics(const Tracer &tracer, const DirectDrive &drive,
                 Report &report)
{
    const SpanTotal construct = tracer.total("cpu.construct");
    const SpanTotal run = tracer.total("cpu.run");
    const SpanTotal harvest = tracer.total("sim.harvest");
    report.set("workloads.build_ms",
               tracer.total("workloads.expand").nsPerOp() / 1e6);
    report.set("cpu.construct_ms", construct.meanMs());
    report.set("cpu.run_ms", run.meanMs());
    report.set("sim.harvest_ms", harvest.meanMs());
    const double jobNs = construct.ns + run.ns + harvest.ns;
    report.set("sim.fixed_cost_pct",
               jobNs == 0 ? 0.0
                          : 100.0 * (construct.ns + harvest.ns) / jobNs);
    report.set("cpu.ns_per_tick", drive.all.nsPerTick());
    report.set("cpu.ns_per_inst", drive.all.instructions == 0
                                      ? 0.0
                                      : drive.all.runNs /
                                            drive.all.instructions);
    report.set("memory.access_ns", tracer.total("memory.access").nsPerOp());
    report.set("memory.warm_access_ns",
               tracer.total("memory.warmAccess").nsPerOp());
    report.set("predictor.stride_op_ns",
               tracer.total("predictor.stride").nsPerOp());
    report.set("predictor.branch_op_ns",
               tracer.total("predictor.branch").nsPerOp());
    const SpanTotal functional = tracer.total("isa.functional");
    report.set("isa.func_kips",
               functional.ns == 0 ? 0.0
                                  : functional.ops * 1e6 / functional.ns);

    // Host cost of the policy hooks and the DG unit, which run inside
    // OooCore::tick and cannot be timed from outside: ns per ticked
    // cycle of each column against its reference column.
    const auto cost = [&drive](const std::string &column,
                               const std::string &reference) {
        const auto a = drive.byColumn.find(column);
        const auto b = drive.byColumn.find(reference);
        if (a == drive.byColumn.end() || b == drive.byColumn.end() ||
            b->second.nsPerTick() == 0.0)
            return std::optional<double>();
        return std::optional<double>(
            100.0 * (a->second.nsPerTick() / b->second.nsPerTick() - 1.0));
    };
    double apCost = 0.0;
    unsigned apPairs = 0;
    for (const char *scheme : {"Unsafe", "NDA-P", "STT", "DoM"}) {
        if (const auto c = cost(std::string(scheme) + "+AP", scheme)) {
            apCost += *c;
            ++apPairs;
        }
    }
    report.set("core.ap_host_cost_pct", apPairs ? apCost / apPairs : 0.0);
    report.set("secure.host_cost_pct.nda_p",
               cost("NDA-P", "Unsafe").value_or(0.0));
    report.set("secure.host_cost_pct.stt",
               cost("STT", "Unsafe").value_or(0.0));
    report.set("secure.host_cost_pct.dom",
               cost("DoM", "Unsafe").value_or(0.0));
}

/** Write and validate the Chrome trace; check self times; print a table. */
void
finishTrace(const Tracer &tracer, const std::string &workDir,
            const std::string &workload)
{
    const std::vector<std::int64_t> self = tracer.selfTimes();
    std::map<std::string, std::pair<double, std::uint64_t>> byName;
    double totalNs = 0.0;
    for (std::size_t i = 0; i < self.size(); ++i) {
        require(self[i] >= 0, "span '" + tracer.spans()[i].name +
                                  "' has negative self time");
        byName[tracer.spans()[i].name].first += self[i];
        ++byName[tracer.spans()[i].name].second;
        totalNs += self[i];
    }
    for (const auto &[name, entry] : byName)
        std::printf("# self %-22s %10.2f ms %6.2f%% (%llu spans)\n",
                    name.c_str(), entry.first / 1e6,
                    100.0 * entry.first / totalNs,
                    static_cast<unsigned long long>(entry.second));
    const std::string invalid = tracer.writeChromeTrace(
        workDir, "trace_" + workload, "dgbench " + workload);
    require(invalid.empty(), "Chrome trace invalid: " + invalid);
    std::printf("# trace %s/trace_%s.json: %zu spans, valid\n",
                workDir.c_str(), workload.c_str(), tracer.spans().size());
}

/** Every per-layer metric defaults to 0: the layer does no work here. */
void
zeroPerLayer(Report &report)
{
    for (const MetricDef &def : kPerLayer)
        report.set(def.name, 0.0);
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    unsigned seconds = 0;
    bool trace = false;
    std::string workDir;
};

/**
 * Run rounds while one more round of the mean length so far would end
 * nearer to @p seconds than stopping now; at least @p minRounds (>= 1).
 */
template <typename Fn>
void
repeatRounds(unsigned seconds, unsigned minRounds, Fn &&round)
{
    const std::int64_t start = nowNs();
    for (unsigned r = 0;; ++r) {
        const double elapsed = (nowNs() - start) / 1e9;
        if (r >= minRounds && elapsed + elapsed / r / 2 > seconds)
            break;
        round(r);
    }
}

void
printTail(const std::vector<double> &latencies, double q, Report &report)
{
    const double beyond = latencies.size() * (1.0 - q);
    require(beyond >= 10.0, "too few jobs for the tail percentile");
    report.set("job_ms_p50", median(latencies));
    report.set("job_ms_tail", quantile(latencies, q));
    std::printf("# job latency: p50 and p%g over %zu samples (%.0f beyond "
                "the tail)\n",
                q * 100.0, latencies.size(), beyond);
}

// --- Simulation workloads (paper_matrix, long_sampled) ---------------

/** The job list and check shape of one simulation workload. */
struct SimWorkload
{
    std::vector<Job> jobs;
    double tailQuantile = 0.95;
    unsigned minRounds = 2;
    bool paperMatrix = false;
};

/**
 * Checks every round of a simulation workload must pass: full budgets
 * committed, and the same simulated-stats digest (and Figure 6 error)
 * whatever the job order.
 */
struct SimRoundCheck
{
    bool haveFirst = false;
    std::uint64_t digest = 0;
    double fig6 = 0.0;

    void
    check(const Round &round, const SimWorkload &workload, Report &report)
    {
        const Ops ops = countOps(round.jobs, round.outcomes);
        report.attempted += ops.attempted;
        report.failed += ops.failed;
        for (std::size_t i = 0; i < round.jobs.size(); ++i)
            require(jobCompleted(round.jobs[i], round.outcomes[i]),
                    round.jobs[i].workload + " under " +
                        round.jobs[i].config.label() +
                        " did not commit its budget: " +
                        round.outcomes[i].error);
        const std::uint64_t d = statsDigest(round);
        const double f = workload.paperMatrix ? fig6ErrorPp(round) : 0.0;
        if (!haveFirst) {
            haveFirst = true;
            digest = d;
            fig6 = f;
            return;
        }
        require(d == digest, "simulated-stats digest changed with job order");
        require(f == fig6, "fig6_err_pp changed with job order");
    }
};

SimWorkload
buildPaperMatrix()
{
    SimConfig base;
    base.maxInstructions = kMatrixBudget;
    // The figure benches' shape (bench/bench_common.hh): the first
    // third warms caches and predictors, and a generous cycle cap.
    base.maxCycles = kMatrixBudget * 200;
    base.warmupInstructions = kMatrixBudget / 3;
    SimWorkload workload;
    workload.jobs = runner::SweepSpec::evaluationMatrix(base).expand();
    workload.tailQuantile = 0.95;
    workload.minRounds = 2;
    workload.paperMatrix = true;
    return workload;
}

SimWorkload
buildLongSampled()
{
    SimConfig stt;
    stt.scheme = Scheme::Stt;
    stt.addressPrediction = true;
    SimConfig sampled = stt;
    sampled.maxInstructions = kSampledTotal;
    sampled.sampleInterval = kSampleInterval;
    sampled.sampleDetail = kSampleDetail;
    runner::SweepSpec spec;
    spec.workloads = {workloads::findWorkload("stream_long"),
                      workloads::findWorkload("chase_long"),
                      workloads::findWorkload("phased_long")};
    spec.configs = {sampled};
    SimWorkload workload;
    workload.jobs = spec.expand();
    // chase_long again, in full detail with idle skip (the default).
    Job detailed = workload.jobs[1];
    detailed.index = workload.jobs.size();
    detailed.config = stt;
    detailed.config.maxInstructions = kChaseDetailed;
    detailed.config.maxCycles = kChaseDetailed * 200;
    workload.jobs.push_back(std::move(detailed));
    // Four jobs of four lengths: p87.5 is the middle of the slowest
    // job's samples, and 20 rounds leave 10 samples beyond it.
    workload.tailQuantile = 0.875;
    workload.minRounds = 20;
    return workload;
}

int
runSimWorkload(const Args &args, SimWorkload (*build)(),
               unsigned setupPerBatch)
{
    Report report;
    Tracer tracer;
    SimWorkload workload;
    SetupTimer setup{setupPerBatch};
    setup.window(args.trace ? &tracer : nullptr, [&] { workload = build(); });
    runner::RunnerOptions options;
    options.threads = 1;
    SimRoundCheck checker;

    if (!args.trace) {
        std::vector<Round> rounds;
        repeatRounds(args.seconds, workload.minRounds, [&](unsigned r) {
            rounds.push_back(runRound(
                permuted(workload.jobs, roundSeed(args.seed, r)),
                options));
            checker.check(rounds.back(), workload, report);
            // Keep only the timings: results and dumps of checked rounds
            // would otherwise grow the RSS being measured.
            std::vector<JobOutcome>().swap(rounds.back().outcomes);
            for (JobTiming &timing : rounds.back().timings)
                std::string().swap(timing.statsDump);
            setup.between([&] { const SimWorkload discarded = build(); });
        });
        // Each job's time over the rounds; chase_long runs twice per
        // round, sampled and detailed, so the budget is part of the key.
        struct JobTimes
        {
            double instructions = 0.0;
            std::vector<double> ms;
        };
        std::map<std::string, JobTimes> byJob;
        for (const Round &round : rounds)
            for (std::size_t i = 0; i < round.jobs.size(); ++i) {
                const Job &job = round.jobs[i];
                JobTimes &times =
                    byJob[job.workload + "|" + job.config.label() + "|" +
                          std::to_string(job.config.maxInstructions)];
                // Every job committed its whole budget (checked per
                // round).
                times.instructions = job.config.maxInstructions;
                times.ms.push_back(round.timings[i].ms());
            }
        // Rates are those of one round made of each job's fastest run.
        // With enough distinct jobs for the tail, each job's latency is
        // its fastest run too; otherwise every sample counts.
        double instructions = 0.0, fastestMs = 0.0;
        std::vector<double> latencies;
        const bool perJob = byJob.size() * (1.0 - workload.tailQuantile) >= 10;
        for (const auto &[job, times] : byJob) {
            instructions += times.instructions;
            fastestMs += fastest(times.ms);
            if (perJob)
                latencies.push_back(fastest(times.ms));
            else
                latencies.insert(latencies.end(), times.ms.begin(),
                                 times.ms.end());
        }
        report.set("sim_kips", instructions / fastestMs);
        report.set("jobs_per_s", byJob.size() / (fastestMs / 1e3));
        printTail(latencies, workload.tailQuantile, report);
        report.set("peak_rss_mb", peakRssMb());
        report.set("setup_s", setup.seconds());
        std::printf("# %zu rounds of %zu jobs, each in a seeded order\n",
                    rounds.size(), workload.jobs.size());
        std::printf("# sim_digest %s (identical across rounds, job orders "
                    "and seeds)\n",
                    hex(checker.digest).c_str());
        if (workload.paperMatrix)
            std::printf("# fig6_err_pp %.6f (in-sample: mean |measured - "
                        "paper| over the 7 Figure 6 GMEANs)\n",
                        checker.fig6);
        report.emit(kEndToEnd);
        return 0;
    }

    // Traced run: one untraced round, then the same jobs driven
    // directly under spans.
    zeroPerLayer(report);
    Round round;
    {
        ScopedSpan span(&tracer, "runner.run");
        round = runRound(permuted(workload.jobs, roundSeed(args.seed, 0)),
                         options);
    }
    checker.check(round, workload, report);
    runnerLayerMetrics(round, report);

    DirectDrive drive;
    std::map<std::string, ArchState> functional;
    TraceOverhead overhead;
    for (std::size_t i = 0; i < round.jobs.size(); ++i) {
        const Job &job = round.jobs[i];
        const std::string what = job.workload + " under " + job.config.label();
        // Slot 0 is the untraced drive, slot 1 the traced one; both
        // cores outlive the timed region, so neither side times a
        // teardown the other does not.
        std::string dumps[2];
        std::unique_ptr<OooCore> cores[2];
        overhead.measure(tracer, [&](Tracer *spans) {
            const int slot = spans ? 1 : 0;
            if (ckpt::wantsSampledRun(job.config)) {
                // The sampler composes ffwd and detailed windows
                // internally; only its entry point is visible from
                // outside.
                ScopedSpan span(spans, "sim.runProgram", job.index);
                runProgram(*job.program, job.config, &dumps[slot]);
            } else {
                DirectDrive scratch;
                cores[slot] = driveDirect(spans, *job.program, job.config,
                                          job.index, spans ? drive : scratch,
                                          &dumps[slot]);
            }
        });
        for (const std::string &dump : dumps)
            require(dump == round.timings[i].statsDump,
                    what + ": directly driven stats dump differs from "
                           "runProgram's");
        const std::string &dump = dumps[1];
        const std::unique_ptr<OooCore> &core = cores[1];
        if (core) {
            const std::string key = job.workload + "@" +
                                    std::to_string(job.config.maxInstructions);
            if (!functional.count(key))
                functional[key] = functionalState(
                    &tracer, *job.program, job.config.maxInstructions,
                    job.index);
            requireCommittedState(tracer, job, *core, functional[key], dump);
        }
    }
    report.set("trace.overhead_pct", overhead.pct());

    // Fast-forward layers of the sampled jobs, over each job's own
    // fast-forward count.
    double ffwdNs = 0.0, sampledNs = 0.0;
    for (std::size_t i = 0; i < round.jobs.size(); ++i) {
        const Job &job = round.jobs[i];
        if (!ckpt::wantsSampledRun(job.config))
            continue;
        const std::uint64_t count =
            round.outcomes[i].result.counters.at("ffwd.instructions");
        functionalState(&tracer, *job.program, count, job.index);
        ckpt::FfwdEngine engine(*job.program, job.config);
        const std::int64_t start = nowNs();
        {
            ScopedSpan span(&tracer, "ckpt.ffwd", job.index);
            span.setOps(engine.ffwd(count));
        }
        ffwdNs += nowNs() - start;
        sampledNs += round.timings[i].endNs - round.timings[i].startNs;
    }
    const SpanTotal ffwd = tracer.total("ckpt.ffwd");
    report.set("ckpt.ffwd_kips",
               ffwd.ns == 0 ? 0.0 : ffwd.ops * 1e6 / ffwd.ns);
    report.set("ckpt.ffwd_share", sampledNs == 0 ? 0.0
                                                 : 100.0 * ffwdNs / sampledNs);

    // Single-layer replays of each distinct program's access stream.
    std::set<const Program *> replayed;
    for (const Job &job : workload.jobs) {
        if (!replayed.insert(job.program.get()).second)
            continue;
        Stream stream;
        {
            ScopedSpan span(&tracer, "isa.captureStream", job.index);
            stream = captureStream(*job.program, kReplayInstructions);
        }
        replayLayers(tracer, stream, job.config, job.index);
    }

    std::vector<SimResult> results;
    for (const JobOutcome &outcome : round.outcomes)
        results.push_back(outcome.result);
    counterLayerMetrics(results, report);
    spanLayerMetrics(tracer, drive, report);
    report.set("fidelity.fig6_err_pp", checker.fig6);
    std::printf("# sim_digest %s; fixed per-run cost %.2f%% of "
                "directly driven job time\n",
                hex(checker.digest).c_str(),
                report.values["sim.fixed_cost_pct"]);
    finishTrace(tracer, args.workDir, args.workload);
    report.emit(kPerLayer);
    return 0;
}

// --- fuzz_campaign ---------------------------------------------------

/** Digest of the candidates' dgasm text: the fuzz corpus. */
std::uint64_t
corpusDigest(std::uint64_t fuzzSeed, std::uint64_t count, Tracer *tracer)
{
    std::uint64_t hash = kFnvBasis;
    for (std::uint64_t key = 0; key < count; ++key) {
        ScopedSpan span(tracer, "fuzz.synthesize", key);
        hash = fnv(hash, fuzz::writeDgasm(fuzz::synthesize(fuzzSeed, key)));
    }
    return hash;
}

/**
 * Instructions the oracle simulated for one candidate outcome: for each
 * column, each distinct secret of the pairs it examined (up to the
 * first leaking pair) commits its functional instruction count.
 */
std::uint64_t
oracleInstructions(Tracer *tracer, std::uint64_t fuzzSeed,
                   const JobOutcome &outcome,
                   const std::vector<security::SecretPair> &pairs)
{
    const std::uint64_t key = outcome.result.counters.at("fuzz.key");
    const fuzz::AttackerIr ir = fuzz::synthesize(fuzzSeed, key);
    std::map<std::uint64_t, std::uint64_t> counts;
    const auto count = [&](std::uint64_t secret) {
        auto it = counts.find(secret);
        if (it == counts.end()) {
            const Program program = ir.lower(secret);
            it = counts.emplace(secret,
                                functionalState(tracer, program, 0, key)
                                    .instructions)
                     .first;
        }
        return it->second;
    };
    std::uint64_t total = 0;
    for (const fuzz::ConfigVerdict &verdict :
         fuzz::readVerdicts(outcome.result)) {
        std::set<std::uint64_t> secrets;
        for (const security::SecretPair &pair : pairs) {
            secrets.insert(pair.a);
            secrets.insert(pair.b);
            if (verdict.check.leaked() && pair.a == verdict.check.secretA &&
                pair.b == verdict.check.secretB)
                break;
        }
        for (std::uint64_t secret : secrets)
            total += count(secret);
    }
    return total;
}

/** One fuzz campaign: the runner passes, post-pass and resume pass. */
struct FuzzCampaign
{
    std::vector<Round> passes;
    double postSeconds = 0.0;
    double resumeSeconds = 0.0;

    /** The fastest runner pass plus the post-pass and resume pass. */
    double
    seconds() const
    {
        double pass = passes.front().seconds();
        for (const Round &round : passes)
            pass = std::min(pass, round.seconds());
        return pass + postSeconds + resumeSeconds;
    }
};

/**
 * Each campaign pass runs every candidate on the runner threads,
 * appending to a fresh journal; every pass must reproduce the first
 * pass's outcomes byte-identically. Then comes the findings post-pass
 * over every outcome, and a resume pass of the whole sweep against the
 * last pass's full journal, which must restore every outcome
 * byte-identically. @p afterPass runs after each pass, untimed.
 */
FuzzCampaign
runFuzz(const std::vector<Job> &jobs, std::uint64_t fuzzSeed,
        const std::string &workDir, unsigned passes, Tracer *tracer,
        const std::function<void()> &afterPass)
{
    const std::string journal = workDir + "/fuzz_journal.jsonl";
    runner::RunnerOptions options;
    options.threads = kFuzzThreads;
    options.journalPath = journal;

    FuzzCampaign campaign;
    for (unsigned pass = 0; pass < passes; ++pass) {
        std::filesystem::remove(journal);
        {
            ScopedSpan span(tracer, "runner.run", pass);
            campaign.passes.push_back(runRound(jobs, options));
        }
        const std::vector<JobOutcome> &first = campaign.passes[0].outcomes;
        const std::vector<JobOutcome> &again = campaign.passes.back().outcomes;
        for (std::size_t i = 0; i < jobs.size(); ++i)
            require(runner::toJsonLine(again[i]) ==
                        runner::toJsonLine(first[i]),
                    jobs[i].workload + ": pass " + std::to_string(pass) +
                        " outcome differs from the first pass's");
        afterPass();
    }
    const Round &round = campaign.passes[0];

    fuzz::PostOptions post;
    post.fuzzSeed = fuzzSeed;
    post.reproDir = workDir + "/fuzz_repros";
    post.findingsPath = workDir + "/fuzz_findings.jsonl";
    post.quiet = true;
    std::ostringstream log;
    fuzz::PostSummary summary;
    std::int64_t phase = nowNs();
    {
        ScopedSpan span(tracer, "fuzz.postProcess");
        summary = fuzz::postProcess(round.outcomes, post, log);
    }
    campaign.postSeconds = (nowNs() - phase) / 1e9;
    require(summary.findings == 0,
            std::to_string(summary.findings) +
                " confirmed secure-scheme findings: " + log.str());
    require(summary.failedJobs == 0, "fuzz jobs failed");

    phase = nowNs();
    std::vector<JobOutcome> resumed;
    {
        ScopedSpan span(tracer, "runner.resume");
        runner::RunnerOptions resume;
        resume.threads = kFuzzThreads;
        resume.progress = false;
        resume.resume = runner::loadJournal(journal);
        resumed = runner::ExperimentRunner(resume).run(jobs);
    }
    campaign.resumeSeconds = (nowNs() - phase) / 1e9;
    for (std::size_t i = 0; i < jobs.size(); ++i)
        require(resumed[i].resumed &&
                    runner::toJsonLine(resumed[i]) ==
                        runner::toJsonLine(round.outcomes[i]),
                jobs[i].workload + ": resume pass outcome differs");
    return campaign;
}

int
runFuzzCampaign(const Args &args)
{
    Report report;
    Tracer tracer;
    Tracer *spans = args.trace ? &tracer : nullptr;
    const std::uint64_t fuzzSeed = args.seed;

    // Set-up: expand the campaign's sweep. Each job synthesizes its
    // candidate when it runs, so the corpus is generated there.
    runner::SweepSpec spec;
    spec.fuzzCount = kFuzzCandidates;
    spec.fuzzSeed = fuzzSeed;
    spec.configs = {fuzz::oracleBaseConfig()};
    std::vector<Job> jobs;
    SetupTimer setup{kFuzzSetupPerBatch};
    setup.window(spans, [&] { jobs = spec.expand(); });
    const std::uint64_t corpus = corpusDigest(fuzzSeed, jobs.size(), spans);
    require(corpusDigest(fuzzSeed + 1, jobs.size(), nullptr) != corpus,
            "the fuzz corpus does not change with the seed");
    const std::vector<security::SecretPair> pairs =
        security::defaultSecretPairs(fuzzSeed);

    // The traced run needs one pass: its spans, not its timings, count.
    const FuzzCampaign campaign =
        runFuzz(jobs, fuzzSeed, args.workDir, args.trace ? 1 : kFuzzPasses,
                spans, [&] {
                    setup.between([&] {
                        const std::vector<Job> discarded = spec.expand();
                    });
                });
    const Round &round = campaign.passes[0];
    for (const Round &pass : campaign.passes) {
        const Ops ops = countOps(jobs, pass.outcomes);
        report.attempted += ops.attempted;
        report.failed += ops.failed;
    }
    double oracleInst = 0.0, hits = 0.0;
    for (const JobOutcome &outcome : round.outcomes) {
        oracleInst += oracleInstructions(spans, fuzzSeed, outcome, pairs);
        hits += outcome.result.counters.at(fuzz::kCounterExpected) != 0;
    }

    if (!args.trace) {
        // Each candidate's latency is its fastest pass; sim_kips is per
        // second of that job time, i.e. per runner thread.
        std::vector<double> latencies;
        double fastestMs = 0.0;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            std::vector<double> ms;
            for (const Round &pass : campaign.passes)
                ms.push_back(pass.timings[i].ms());
            latencies.push_back(fastest(ms));
            fastestMs += latencies.back();
        }
        report.set("sim_kips", oracleInst / fastestMs);
        report.set("jobs_per_s", jobs.size() / campaign.seconds());
        printTail(latencies, 0.75, report);
        report.set("peak_rss_mb", peakRssMb());
        report.set("setup_s", setup.seconds());
        std::string passSeconds;
        for (const Round &pass : campaign.passes) {
            char text[32];
            std::snprintf(text, sizeof(text), "%s%.2f",
                          passSeconds.empty() ? "" : ", ", pass.seconds());
            passSeconds += text;
        }
        std::printf("# %zu candidates on %u threads (seed %llu, corpus %s): "
                    "campaign passes %s s, post-pass %.2f s, resume %.3f s\n",
                    jobs.size(), kFuzzThreads,
                    static_cast<unsigned long long>(fuzzSeed),
                    hex(corpus).c_str(), passSeconds.c_str(),
                    campaign.postSeconds, campaign.resumeSeconds);
        std::printf("# ops: %llu (candidate, column) verdicts, %llu "
                    "inconclusive; %.0f candidates with an Unsafe leak\n",
                    static_cast<unsigned long long>(report.attempted),
                    static_cast<unsigned long long>(report.failed), hits);
        report.emit(kEndToEnd);
        return 0;
    }

    zeroPerLayer(report);
    runnerLayerMetrics(round, report);
    report.set("fuzz.post_ms", campaign.postSeconds * 1e3);
    report.set("runner.resume_ms", campaign.resumeSeconds * 1e3);
    report.set("fuzz.unsafe_hit_ratio", hits / jobs.size());

    // Journal appends, replayed through a scratch writer.
    {
        const std::string path = args.workDir + "/fuzz_journal_replay.jsonl";
        std::filesystem::remove(path);
        runner::JournalWriter writer(path);
        for (std::size_t i = 0; i < round.jobs.size(); ++i) {
            const std::string key = runner::jobKey(round.jobs[i]);
            ScopedSpan span(&tracer, "runner.journalAppend", i);
            writer.record(key, round.outcomes[i]);
        }
    }
    report.set("runner.journal_append_us",
               tracer.total("runner.journalAppend").meanMs() * 1e3);

    // The first candidates, driven through the oracle's public calls and
    // then, per column and distinct secret, through OooCore directly.
    DirectDrive drive;
    TraceOverhead overhead;
    std::uint64_t checks = 0, runs = 0;
    const std::vector<SimConfig> columns =
        evaluationConfigs(fuzz::oracleBaseConfig());
    for (std::size_t i = 0; i < kTracedCandidates; ++i) {
        const Job &job = round.jobs[i];
        fuzz::AttackerIr ir;
        std::vector<fuzz::ConfigVerdict> verdicts;
        {
            ScopedSpan span(&tracer, "fuzz.candidate", job.fuzzKey);
            {
                ScopedSpan synth(&tracer, "fuzz.synthesize", job.fuzzKey);
                ir = fuzz::synthesize(job.fuzzSeed, job.fuzzKey);
            }
            ScopedSpan eval(&tracer, "fuzz.evaluateCandidate", job.fuzzKey);
            verdicts = fuzz::evaluateCandidate(ir, job.config, pairs);
        }
        const std::vector<fuzz::ConfigVerdict> journaled =
            fuzz::readVerdicts(round.outcomes[i].result);
        for (std::size_t c = 0; c < columns.size(); ++c) {
            const security::LeakCheck &check = verdicts[c].check;
            require(check.verdict == journaled[c].check.verdict &&
                        check.digestA == journaled[c].check.digestA &&
                        check.digestB == journaled[c].check.digestB,
                    job.workload + " under " + columns[c].label() +
                        ": oracle verdict differs from the campaign's");
            std::vector<std::uint64_t> secrets;
            const auto builder = [&](std::uint64_t secret) {
                secrets.push_back(secret);
                return ir.lower(secret);
            };
            security::LeakCheck again;
            {
                ScopedSpan span(&tracer, "security.checkLeakPairs",
                                job.fuzzKey);
                again = security::checkLeakPairs(builder, columns[c], pairs);
            }
            ++checks;
            runs += secrets.size();
            require(again.verdict == check.verdict &&
                        again.digestA == check.digestA,
                    job.workload + ": checkLeakPairs is not deterministic");

            // The oracle's run configuration (security/leak.cc).
            SimConfig config = columns[c];
            config.watchdogThrows = true;
            for (std::uint64_t secret : secrets) {
                const Program program = ir.lower(secret);
                const bool compare =
                    check.verdict != security::LeakVerdict::Inconclusive &&
                    secret == check.secretA;
                overhead.measure(tracer, [&](Tracer *spans) {
                    DirectDrive scratch;
                    DirectDrive &into = spans ? drive : scratch;
                    try {
                        driveDirect(spans, program, config, job.fuzzKey,
                                    into, nullptr);
                    } catch (const WatchdogError &) {
                        // A wedged run is the oracle's Inconclusive;
                        // nothing to time beyond the spans already
                        // closed.
                        return;
                    }
                    require(!compare || into.results.back().uarchDigest ==
                                            check.digestA,
                            job.workload + ": directly driven digest "
                                           "differs from the oracle's");
                });
            }
        }
        if (i == 0) {
            const Program program = ir.lower(pairs.front().a);
            replayLayers(tracer, captureStream(program, kReplayInstructions),
                         columns.front(), job.fuzzKey);
        }
    }
    report.set("trace.overhead_pct", overhead.pct());
    report.set("fuzz.synth_us",
               tracer.total("fuzz.synthesize").meanMs() * 1e3);
    report.set("fuzz.eval_ms",
               tracer.total("fuzz.evaluateCandidate").meanMs());
    report.set("security.runs_per_check",
               checks == 0 ? 0.0 : static_cast<double>(runs) / checks);
    counterLayerMetrics(drive.results, report);
    spanLayerMetrics(tracer, drive, report);
    std::printf("# fixed per-run cost %.2f%% of directly driven run time "
                "(%zu oracle runs)\n",
                report.values["sim.fixed_cost_pct"], drive.results.size());
    finishTrace(tracer, args.workDir, args.workload);
    report.emit(kPerLayer);
    return 0;
}

// --- Entry point -----------------------------------------------------

[[noreturn]] void
usage(const std::string &message)
{
    std::fprintf(stderr,
                 "dgbench: %s\nusage: dgbench --workload "
                 "paper_matrix|long_sampled|fuzz_campaign --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR\n",
                 message.c_str());
    std::exit(2);
}

std::uint64_t
parseU64(const char *text, const char *flag)
{
    errno = 0;
    char *end = nullptr;
    const unsigned long long value = std::strtoull(text, &end, 10);
    if (*text == '\0' || *end != '\0' || errno == ERANGE || *text == '-')
        usage(std::string(flag) + " needs a non-negative integer");
    return value;
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    bool haveSeed = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(flag + " needs a value");
        const char *value = argv[++i];
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = parseU64(value, "--seed");
            haveSeed = true;
        } else if (flag == "--seconds") {
            const std::uint64_t seconds = parseU64(value, "--seconds");
            if (seconds == 0 || seconds > 600)
                usage("--seconds must be 1..600");
            args.seconds = static_cast<unsigned>(seconds);
        } else if (flag == "--trace") {
            const std::uint64_t trace = parseU64(value, "--trace");
            if (trace > 1)
                usage("--trace must be 0 or 1");
            args.trace = trace == 1;
            haveTrace = true;
        } else if (flag == "--work-dir") {
            args.workDir = value;
        } else {
            usage("unknown option " + flag);
        }
    }
    if (args.workload.empty() || !haveSeed || args.seconds == 0 ||
        !haveTrace || args.workDir.empty())
        usage("missing option");
    return args;
}

} // namespace
} // namespace dgbench

int
main(int argc, char **argv)
{
    using namespace dgbench;
    const Args args = parseArgs(argc, argv);
    if (!dgsim::buildinfo::isReleaseBuild()) {
        std::fprintf(stderr, "dgbench: refusing to record numbers from a "
                             "'%s' build; configure with "
                             "-DCMAKE_BUILD_TYPE=Release\n",
                     dgsim::buildinfo::kBuildType);
        return 1;
    }
    std::filesystem::create_directories(args.workDir);
    std::printf("# dgbench %s seed %llu: %s build, DGSIM_NATIVE=%d, "
                "nproc %u\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                dgsim::buildinfo::kBuildType,
                dgsim::buildinfo::kNativeArch ? 1 : 0,
                std::thread::hardware_concurrency());
    selfTestFailureAccounting(args.seed);
    if (args.workload == "paper_matrix")
        return runSimWorkload(args, buildPaperMatrix, kMatrixSetupPerBatch);
    if (args.workload == "long_sampled")
        return runSimWorkload(args, buildLongSampled, kSampledSetupPerBatch);
    if (args.workload == "fuzz_campaign")
        return runFuzzCampaign(args);
    usage("unknown workload " + args.workload);
}
