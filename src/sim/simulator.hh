/**
 * @file
 * Top-level simulation facade: run a Program under a SimConfig and
 * collect the results every test, example and bench consumes.
 */

#ifndef DGSIM_SIM_SIMULATOR_HH
#define DGSIM_SIM_SIMULATOR_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/config.hh"
#include "isa/program.hh"

namespace dgsim
{

class OooCore;
class StatRegistry;
struct ReadWatch;

/** Everything measured in one simulation run. */
struct SimResult
{
    std::string workload;
    std::string configLabel;

    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    double ipc = 0.0;

    // Memory hierarchy (paper Figure 8).
    std::uint64_t l1Accesses = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t l2Accesses = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t l3Accesses = 0;
    std::uint64_t dramAccesses = 0;

    // Doppelganger metrics (paper Figure 7).
    double dgCoverage = 0.0;
    double dgAccuracy = 0.0;
    std::uint64_t dgAttached = 0;
    std::uint64_t dgIssued = 0;
    std::uint64_t dgVerifiedOk = 0;
    std::uint64_t dgVerifiedBad = 0;

    // Core events.
    std::uint64_t committedLoads = 0;
    std::uint64_t committedStores = 0;
    std::uint64_t committedBranches = 0;
    std::uint64_t branchSquashes = 0;
    std::uint64_t memOrderSquashes = 0;
    std::uint64_t domDelayed = 0;
    std::uint64_t stlForwards = 0;

    /** Cache-hierarchy digest after the run. Kept cache-only so golden
     * stats and historical comparisons stay byte-identical; security
     * checks should prefer uarchDigest. */
    std::uint64_t cacheDigest = 0;

    /** Widened microarchitectural digest: caches + gshare/GHR/BTB +
     * stride prefetcher. This is what the leak oracle diffs — a
     * predictor- or prefetcher-channel leak is invisible to
     * cacheDigest. */
    std::uint64_t uarchDigest = 0;

    /** True iff the program architecturally committed HALT. */
    bool halted = false;
    /** True iff the run stopped on the maxCycles limit instead. */
    bool hitMaxCycles = false;

    /** Full raw counter dump for anything not surfaced above. */
    std::map<std::string, std::uint64_t> counters;

    // --- Observability (host-side / meta; never part of the golden
    // counter dump, and excluded from determinism comparisons) ---------
    /** Host wall-clock seconds spent inside the cycle loop. */
    double hostSeconds = 0.0;
    /** Simulated kilo-instructions per host second. */
    double
    kips() const
    {
        return hostSeconds <= 0.0 ? 0.0
                                  : static_cast<double>(instructions) /
                                        hostSeconds / 1000.0;
    }
    /** Pipeline-trace records written (0 when tracing was off). */
    std::uint64_t traceRecords = 0;
    /** Commit-watchdog threshold the run executed under (cycles). */
    std::uint64_t watchdogCycles = 0;
    /** Idle cycles the event-driven time warp jumped over (0 with
     * skipping off; host-side — the simulated results are identical
     * either way, which is why this lives outside `counters`). */
    std::uint64_t idleCyclesSkipped = 0;
    /** Number of time-warp advances taken. */
    std::uint64_t skipEvents = 0;
    /** Distribution-stats dump (separate section; "" when empty). */
    std::string distributions;
};

/**
 * Run @p program to completion (HALT or a config run limit) under
 * @p config and harvest statistics.
 */
SimResult runProgram(const Program &program, const SimConfig &config);

/**
 * Same, additionally capturing the full sorted `StatRegistry::dump()`
 * text into @p stats_dump (when non-null). The dump is the
 * golden-stats determinism key: hot-path refactors must keep it
 * byte-identical for every (workload, config).
 */
SimResult runProgram(const Program &program, const SimConfig &config,
                     std::string *stats_dump);

/**
 * Same as runProgram(@p program, @p config), with the timing core
 * reporting value reads of @p watch's words into it (cpu/core.hh).
 * Plain detailed runs only: a config that wants the sampled driver
 * (ckpt::wantsSampledRun) is fatal here.
 */
SimResult runProgram(const Program &program, const SimConfig &config,
                     ReadWatch &watch);

/**
 * Build a SimResult from a finished run's registry and core. Shared by
 * the plain path and the sampled-simulation driver (ckpt/sampler),
 * which accumulates several detailed windows into one registry and
 * harvests from the last core.
 */
SimResult harvestResult(const Program &program, const SimConfig &config,
                        const StatRegistry &stats, const OooCore &core,
                        double host_seconds);

/** Scheme x AP matrix used throughout the evaluation (8 columns). */
std::vector<SimConfig> evaluationConfigs(const SimConfig &base);

} // namespace dgsim

#endif // DGSIM_SIM_SIMULATOR_HH
