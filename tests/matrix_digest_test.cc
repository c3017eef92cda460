/**
 * @file
 * Whole-matrix determinism pin.
 *
 * `golden_stats_test` byte-compares three workloads; this test pins the
 * rest of the paper's evaluation matrix (Figures 1/6/7/8): all 25
 * default-tier proxies under the 8 (scheme, AP) columns, in the figure
 * benches' run shape at a small budget. The concatenated stats dumps
 * are hashed into one FNV-1a digest and compared with a constant, so a
 * consistent behavioural drift on any proxy fails here even when every
 * run is internally deterministic. The same digest must come out with
 * idle-cycle skipping off.
 *
 * A change that intends to alter simulated behaviour updates
 * kMatrixDigest (the failure message prints the new value) and says
 * why in its commit message.
 */

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "common/hash.hh"
#include "sim/simulator.hh"
#include "workloads/suite.hh"

namespace dgsim
{
namespace
{

constexpr std::uint64_t kInstructions = 10'000;

/// Digest of the matrix at kInstructions (unchanged since the cycle
/// loop became event-driven).
constexpr std::uint64_t kMatrixDigest = 0xf7097bddeafea3daULL;

std::string
hex(std::uint64_t value)
{
    char text[17];
    std::snprintf(text, sizeof(text), "%016" PRIx64, value);
    return text;
}

/** FNV-1a over every (proxy, column) stats dump, suite x config order. */
std::uint64_t
matrixDigest(bool idle_skip)
{
    SimConfig base;
    base.maxInstructions = kInstructions;
    base.maxCycles = kInstructions * 200;
    base.warmupInstructions = kInstructions / 3;
    base.idleSkip = idle_skip;
    const std::vector<SimConfig> configs = evaluationConfigs(base);

    std::uint64_t digest = kFnvOffsetBasis;
    for (const workloads::WorkloadDef &workload :
         workloads::evaluationSuite()) {
        const Program program = workload.build(0); // Endless; budgeted.
        for (const SimConfig &config : configs) {
            std::string dump;
            runProgram(program, config, &dump);
            digest = fnv1a(dump.data(), dump.size(), digest);
        }
    }
    return digest;
}

TEST(MatrixDigestTest, EvaluationMatrixMatchesPinnedDigest)
{
    EXPECT_EQ(hex(matrixDigest(/*idle_skip=*/true)), hex(kMatrixDigest));
}

TEST(MatrixDigestTest, IdleSkipOffGivesTheSameDigest)
{
    EXPECT_EQ(hex(matrixDigest(/*idle_skip=*/false)), hex(kMatrixDigest));
}

} // namespace
} // namespace dgsim
