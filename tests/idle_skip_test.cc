/**
 * @file
 * Event-driven idle-cycle skipping (time warp) tests.
 *
 * The core's run() loop may replace a span of quiescent ticks with one
 * clock jump to the earliest next-event horizon. These tests pin the
 * contract from the other side of golden_stats_test: targeted scenarios
 * that stress each horizon source — in-flight FU completions across a
 * squash, DoM delayed release, post-squash fetch stall, MSHR fills —
 * must produce byte-identical stats dumps, identical distribution
 * dumps (weighted samples stand in for the skipped per-cycle ones) and
 * identical final cycle/commit counts with skipping on and off, while
 * the skipping run actually skips (idleCyclesSkipped > 0).
 */

#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "common/config.hh"
#include "sim/simulator.hh"
#include "workloads/suite.hh"

namespace dgsim
{
namespace
{

constexpr std::uint64_t kInstructions = 20'000;

SimConfig
baseConfig()
{
    SimConfig config;
    config.maxInstructions = kInstructions;
    config.maxCycles = kInstructions * 200;
    return config;
}

struct ModeRun
{
    SimResult result;
    std::string dump;
};

ModeRun
runMode(const std::string &workload, SimConfig config, bool idle_skip)
{
    const Program program = workloads::findWorkload(workload).build(0);
    config.idleSkip = idle_skip;
    ModeRun run;
    run.result = runProgram(program, config, &run.dump);
    return run;
}

/** Run @p workload under @p config in both modes and assert the
 * simulated results are indistinguishable. Returns the skip-on run so
 * callers can add scenario-specific assertions. */
ModeRun
expectModesAgree(const std::string &workload, const SimConfig &config)
{
    ModeRun on = runMode(workload, config, /*idle_skip=*/true);
    const ModeRun off = runMode(workload, config, /*idle_skip=*/false);

    EXPECT_EQ(on.dump, off.dump)
        << workload << "/" << config.label()
        << ": stats dump diverged between time-warp modes";
    EXPECT_EQ(on.result.distributions, off.result.distributions)
        << workload << "/" << config.label()
        << ": weighted occupancy samples diverged from per-cycle ones";
    EXPECT_EQ(on.result.cycles, off.result.cycles);
    EXPECT_EQ(on.result.instructions, off.result.instructions);
    EXPECT_EQ(on.result.cacheDigest, off.result.cacheDigest);
    EXPECT_EQ(on.result.counters, off.result.counters);

    // The knob itself works: off never warps, and the host-side stats
    // never leak into the golden counter map.
    EXPECT_EQ(off.result.idleCyclesSkipped, 0u);
    EXPECT_EQ(off.result.skipEvents, 0u);
    EXPECT_EQ(on.result.counters.count("core.idleCyclesSkipped"), 0u);
    EXPECT_EQ(on.result.counters.count("core.skipEvents"), 0u);
    return on;
}

/** Memory-bound pointer chase: long MSHR-fill waits are the bread and
 * butter of the time warp. The LQ-completion and MSHR-fill horizons
 * must wake the core exactly when data lands. chase_long, the long
 * tier's 1M-node chase, misses to DRAM on nearly every hop. */
TEST(IdleSkipTest, MemoryBoundChaseSkipsWithIdenticalResults)
{
    SimConfig config = baseConfig();
    config.scheme = Scheme::Stt;
    config.addressPrediction = true;
    for (const char *workload : {"mcf", "chase_long"}) {
        const ModeRun on = expectModesAgree(workload, config);
        EXPECT_GT(on.result.idleCyclesSkipped, 0u) << workload;
        EXPECT_GT(on.result.skipEvents, 0u) << workload;
        // Each warp spans at least one skipped cycle.
        EXPECT_GE(on.result.idleCyclesSkipped, on.result.skipEvents)
            << workload;
    }
}

/** DoM delayed release: unsafe loads sit epoch-gated until their
 * shadow lifts, so the delayed-release horizon (earliest in-flight
 * completion that bumps the wake epoch) is what ends the quiescent
 * span. domDelayed > 0 proves the path was exercised. */
TEST(IdleSkipTest, DomDelayedReleaseHorizon)
{
    SimConfig config = baseConfig();
    config.scheme = Scheme::Dom;
    config.addressPrediction = false;
    const ModeRun on = expectModesAgree("mcf", config);
    EXPECT_GT(on.result.domDelayed, 0u);
    EXPECT_GT(on.result.idleCyclesSkipped, 0u);
}

/** Branchy workload: squash recovery leaves the fetch stage stalled
 * for the mispredict penalty with an otherwise-empty pipeline, so the
 * fetch-stall horizon is what must be honoured. A late horizon would
 * shift every post-squash refill and show up in the dump compare. */
TEST(IdleSkipTest, SquashAndFetchStallHorizons)
{
    SimConfig config = baseConfig();
    config.scheme = Scheme::Stt;
    config.addressPrediction = true;
    const ModeRun on = expectModesAgree("gobmk", config);
    EXPECT_GT(on.result.branchSquashes, 0u);
}

/** The full scheme spread on one chase workload: every policy gates
 * wakeups differently (NDA-P propagation, STT taint, DoM delay), and
 * each must expose a horizon no later than its next state change. */
TEST(IdleSkipTest, AllSchemesAgreeAcrossModes)
{
    for (Scheme scheme :
         {Scheme::Unsafe, Scheme::NdaP, Scheme::Stt, Scheme::Dom}) {
        SimConfig config = baseConfig();
        config.scheme = scheme;
        config.addressPrediction = true;
        expectModesAgree("astar", config);
    }
}

/** Sampled runs route through the ckpt driver with several detailed
 * windows sharing one registry: skip stats must accumulate across
 * windows and the simulated results must still match. */
TEST(IdleSkipTest, SampledRunAccumulatesSkipStats)
{
    SimConfig config = baseConfig();
    config.scheme = Scheme::Stt;
    config.addressPrediction = true;
    config.maxInstructions = 40'000;
    config.maxCycles = 40'000 * 200;
    config.sampleInterval = 10'000;
    config.sampleDetail = 2'000;
    const ModeRun on = expectModesAgree("mcf", config);
    EXPECT_GT(on.result.idleCyclesSkipped, 0u);
}

} // namespace
} // namespace dgsim
