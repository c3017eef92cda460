/**
 * @file
 * Checkpoint/restore + sampled-simulation subsystem tests:
 *   - MemoryImage round-trips through the on-disk format exactly,
 *     including sparse pages, written-then-zeroed words and far words
 *     beyond the direct-page range;
 *   - corrupted/truncated/version-skewed checkpoints die loudly;
 *   - warm-structure restores reject geometry mismatches;
 *   - the determinism contract: save -> restore -> continue produces a
 *     byte-identical stats dump to the uninterrupted run with the same
 *     switch point (the property the CI smoke also enforces end to
 *     end through dgrun);
 *   - sampling windows account instructions exactly and keep detailed
 *     stats separated from fast-forwarded work.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "ckpt/checkpoint.hh"
#include "ckpt/ffwd.hh"
#include "ckpt/sampler.hh"
#include "common/stats.hh"
#include "predictor/branch_predictor.hh"
#include "sim/simulator.hh"
#include "workloads/suite.hh"

namespace dgsim
{
namespace
{

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "ckpt_test_" + name;
}

/** A checkpoint with only architectural content (no warm state). */
ckpt::Checkpoint
archOnlyCheckpoint()
{
    ckpt::Checkpoint checkpoint;
    checkpoint.workload = "synthetic";
    checkpoint.instret = 12345;
    checkpoint.pc = 42;
    for (std::size_t i = 0; i < checkpoint.regs.size(); ++i)
        checkpoint.regs[i] = i * 0x0101;
    return checkpoint;
}

TEST(CkptMemoryImage, RoundTripPreservesSparseAndZeroedAndFarWords)
{
    ckpt::Checkpoint checkpoint = archOnlyCheckpoint();
    MemoryImage &memory = checkpoint.memory;
    // Sparse pages: two words pages apart.
    memory.write(0x1000, 7);
    memory.write(0x900000, 9);
    // Written-then-zeroed: must survive as an *explicit* zero word —
    // the detailed core's STL forwarding treats "written zero" and
    // "never written" identically, but the footprint must not shrink.
    memory.write(0x2000, 1234);
    memory.write(0x2000, 0);
    // Far words beyond the direct-page range (>= 8 GiB).
    memory.write(1ull << 34, 0xfeed);
    memory.write((1ull << 34) + 8, 0);

    const std::uint64_t digest_before = memory.digest();
    const auto words_before = memory.words();
    ASSERT_EQ(words_before.size(), 5u);

    const std::string text = ckpt::serialize(checkpoint);
    const ckpt::Checkpoint loaded = ckpt::deserialize(text, "test");

    EXPECT_EQ(loaded.workload, checkpoint.workload);
    EXPECT_EQ(loaded.instret, checkpoint.instret);
    EXPECT_EQ(loaded.pc, checkpoint.pc);
    EXPECT_EQ(loaded.regs, checkpoint.regs);
    EXPECT_EQ(loaded.memory.words(), words_before);
    EXPECT_EQ(loaded.memory.digest(), digest_before);
    EXPECT_EQ(loaded.memory.read(0x2000), 0u);
    EXPECT_EQ(loaded.memory.read(1ull << 34), 0xfeedu);
}

TEST(CkptMemoryImage, DigestSeesZeroedWordsAndFarWords)
{
    MemoryImage a;
    MemoryImage b;
    a.write(0x100, 5);
    b.write(0x100, 5);
    EXPECT_EQ(a.digest(), b.digest());
    // A written-then-zeroed word changes the footprint, so digests of
    // "wrote zero" and "never wrote" must differ.
    a.write(0x200, 1);
    a.write(0x200, 0);
    EXPECT_NE(a.digest(), b.digest());
    // Far words participate too.
    MemoryImage c;
    c.write(0x100, 5);
    c.write(1ull << 35, 77);
    EXPECT_NE(c.digest(), b.digest());
}

TEST(CkptFormatDeathTest, TruncatedCheckpointDies)
{
    const std::string text = ckpt::serialize(archOnlyCheckpoint());
    const std::string truncated = text.substr(0, text.size() / 2);
    EXPECT_EXIT(ckpt::deserialize(truncated, "trunc"),
                ::testing::ExitedWithCode(1),
                "corrupt or truncated checkpoint");
}

TEST(CkptFormatDeathTest, BitFlippedCheckpointDies)
{
    std::string text = ckpt::serialize(archOnlyCheckpoint());
    const std::size_t pos = text.find("12345");
    ASSERT_NE(pos, std::string::npos);
    text[pos] = '9';
    EXPECT_EXIT(ckpt::deserialize(text, "flip"),
                ::testing::ExitedWithCode(1), "digest mismatch");
}

TEST(CkptFormatDeathTest, FutureFormatVersionDies)
{
    // Re-stamp the version and re-digest so only the version check can
    // object: format evolution must be explicit, never silent.
    std::string text = ckpt::serialize(archOnlyCheckpoint());
    text.replace(0, std::string("dgsim-ckpt 1").size(), "dgsim-ckpt 2");
    const std::size_t digest_pos = text.rfind("digest ");
    text.resize(digest_pos);
    // Rebuild the digest line the same way serialize() does.
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "digest %016llx\n",
                  static_cast<unsigned long long>(hash));
    text += buf;
    EXPECT_EXIT(ckpt::deserialize(text, "future"),
                ::testing::ExitedWithCode(1), "format version");
}

TEST(CkptFormatDeathTest, MissingFileDies)
{
    EXPECT_EXIT(ckpt::loadCheckpoint(tempPath("does_not_exist.ckpt")),
                ::testing::ExitedWithCode(1), "cannot open checkpoint");
}

TEST(CkptGeometryDeathTest, BranchPredictorGeometryMismatchDies)
{
    StatRegistry stats_a, stats_b;
    BranchPredictor small(/*history_bits=*/8, /*btb_entries=*/512, stats_a);
    BranchPredictor big(/*history_bits=*/12, /*btb_entries=*/4096, stats_b);
    const BranchPredictor::State state = small.exportState();
    EXPECT_EXIT(big.restoreState(state), ::testing::ExitedWithCode(1),
                "geometry mismatch");
}

TEST(CkptGeometryDeathTest, RestoringIntoDifferentCacheGeometryDies)
{
    const workloads::WorkloadDef &def = workloads::findWorkload("gobmk");
    const Program program = def.build(/*iterations=*/0);
    SimConfig config;
    ckpt::FfwdEngine engine(program, config);
    engine.ffwd(2'000);
    const ckpt::Checkpoint checkpoint = engine.makeCheckpoint();

    SimConfig shrunk = config;
    shrunk.l1d.sizeBytes = config.l1d.sizeBytes / 2;
    ckpt::FfwdEngine other(program, shrunk);
    EXPECT_EXIT(other.restore(checkpoint), ::testing::ExitedWithCode(1),
                "geometry mismatch");
}

TEST(CkptWarming, FastForwardPopulatesWarmStructures)
{
    const workloads::WorkloadDef &def = workloads::findWorkload("bzip2");
    const Program program = def.build(/*iterations=*/0);
    SimConfig config;
    ckpt::FfwdEngine engine(program, config);
    ASSERT_EQ(engine.ffwd(20'000), 20'000u);
    const ckpt::Checkpoint checkpoint = engine.makeCheckpoint();

    std::size_t warm_lines = 0;
    for (const CacheWarmSet &set : checkpoint.hierarchy.l1.sets)
        warm_lines += set.lines.size();
    EXPECT_GT(warm_lines, 16u) << "fast-forward must warm the L1";

    std::size_t trained_counters = 0;
    for (const std::uint8_t counter : checkpoint.branch.counters)
        trained_counters += counter != 1; // 1 = reset value
    EXPECT_GT(trained_counters, 0u)
        << "fast-forward must train the branch predictor";

    std::size_t stride_entries = 0;
    for (const StrideEntry &entry : checkpoint.stride.entries)
        stride_entries += entry.valid;
    EXPECT_GT(stride_entries, 0u)
        << "fast-forward must train the stride table";

    // Canonical form: warm state never carries timestamps or inflight
    // bits, so two engines reaching the same point by different paths
    // export identical checkpoints.
    for (const StrideEntry &entry : checkpoint.stride.entries) {
        EXPECT_EQ(entry.lruStamp, 0u);
        EXPECT_EQ(entry.inflight, 0u);
    }
}

TEST(CkptDeterminism, SaveRestoreContinueMatchesUninterruptedByteForByte)
{
    const workloads::WorkloadDef &def = workloads::findWorkload("bzip2");
    const Program program = def.build(/*iterations=*/0);
    const std::string path = tempPath("bzip2.ckpt");
    std::remove(path.c_str());

    SimConfig base;
    base.scheme = Scheme::Stt;
    base.addressPrediction = true;
    base.maxInstructions = 3'000;
    base.maxCycles = 3'000'000;

    // Run A: uninterrupted — ffwd 20k, one detailed window.
    SimConfig uninterrupted = base;
    uninterrupted.ffwdInstructions = 20'000;
    std::string dump_a;
    const SimResult result_a = runProgram(program, uninterrupted, &dump_a);

    // Run B: same shape, saving a checkpoint at instruction 10k.
    SimConfig saving = uninterrupted;
    saving.ckptSavePath = path;
    saving.ckptSaveInst = 10'000;
    std::string dump_b;
    runProgram(program, saving, &dump_b);

    // Run C: restore at 10k, fast-forward the remaining 10k, continue.
    SimConfig resumed = base;
    resumed.ffwdInstructions = 10'000;
    resumed.ckptRestorePath = path;
    std::string dump_c;
    const SimResult result_c = runProgram(program, resumed, &dump_c);

    EXPECT_FALSE(dump_a.empty());
    EXPECT_EQ(dump_a, dump_b)
        << "saving a checkpoint must not perturb the run";
    EXPECT_EQ(dump_a, dump_c)
        << "restore + continue must be byte-identical to uninterrupted";
    EXPECT_EQ(result_a.cacheDigest, result_c.cacheDigest);
    EXPECT_EQ(result_a.counters.at("ffwd.instructions"), 20'000u);
    EXPECT_EQ(result_c.counters.at("ffwd.instructions"), 20'000u)
        << "restored instructions count as fast-forwarded";
    std::remove(path.c_str());
}

TEST(CkptDeterminism, CheckpointFileRoundTripsThroughDisk)
{
    const workloads::WorkloadDef &def = workloads::findWorkload("mcf");
    const Program program = def.build(/*iterations=*/0);
    SimConfig config;
    ckpt::FfwdEngine engine(program, config);
    engine.ffwd(5'000);
    const ckpt::Checkpoint checkpoint = engine.makeCheckpoint();

    const std::string path = tempPath("mcf.ckpt");
    ckpt::saveCheckpoint(checkpoint, path);
    const ckpt::Checkpoint loaded = ckpt::loadCheckpoint(path);
    EXPECT_EQ(ckpt::serialize(checkpoint), ckpt::serialize(loaded));
    std::remove(path.c_str());
}

TEST(CkptSampling, WindowAccountingSeparatesDetailedFromFastForwarded)
{
    const workloads::WorkloadDef &def = workloads::findWorkload("gobmk");
    const Program program = def.build(/*iterations=*/0);

    SimConfig config;
    config.maxInstructions = 20'000; // total: ffwd + detailed
    config.sampleInterval = 5'000;
    config.sampleDetail = 1'000;
    config.maxCycles = 3'000'000;

    std::string dump;
    const SimResult result = runProgram(program, config, &dump);

    // 4 periods of (4k skip + 1k detail): detailed stats cover exactly
    // the windows, fast-forwarded work only the ffwd.* counters.
    EXPECT_EQ(result.instructions, 4'000u);
    EXPECT_EQ(result.counters.at("ffwd.windows"), 4u);
    EXPECT_EQ(result.counters.at("ffwd.instructions"), 16'000u);
    EXPECT_EQ(result.counters.at("ffwd.switchPoint"), 4'000u);
    EXPECT_EQ(result.counters.at("core.committedInstrs"), 4'000u);
    EXPECT_NE(dump.find("ffwd.windows 4"), std::string::npos);
}

TEST(CkptSampling, SamplingIsDeterministicAcrossRepeats)
{
    const workloads::WorkloadDef &def = workloads::findWorkload("omnetpp");
    const Program program = def.build(/*iterations=*/0);

    SimConfig config;
    config.scheme = Scheme::Dom;
    config.addressPrediction = true;
    config.maxInstructions = 30'000;
    config.sampleInterval = 10'000;
    config.sampleDetail = 2'000;
    config.maxCycles = 10'000'000;

    std::string first, second;
    runProgram(program, config, &first);
    runProgram(program, config, &second);
    EXPECT_FALSE(first.empty());
    EXPECT_EQ(first, second);
}

TEST(CkptSampling, HaltDuringFastForwardEndsTheRunCleanly)
{
    // A finite kernel much shorter than the requested fast-forward:
    // the driver must stop at HALT without opening further windows.
    const workloads::WorkloadDef &def = workloads::findWorkload("gobmk");
    const Program program = def.build(/*iterations=*/50);

    SimConfig config;
    config.maxInstructions = 1'000'000;
    config.sampleInterval = 500'000;
    config.sampleDetail = 1'000;
    config.maxCycles = 10'000'000;

    const SimResult result = runProgram(program, config);
    EXPECT_EQ(result.counters.at("ffwd.windows"), 0u);
    EXPECT_GT(result.counters.at("ffwd.instructions"), 0u);
    EXPECT_EQ(result.instructions, 0u)
        << "no detailed window ran, so no detailed instructions";
}

TEST(CkptSamplerDeathTest, InvalidShapesDie)
{
    const workloads::WorkloadDef &def = workloads::findWorkload("gobmk");
    const Program program = def.build(/*iterations=*/0);

    SimConfig bad_detail;
    bad_detail.maxInstructions = 10'000;
    bad_detail.sampleInterval = 1'000;
    bad_detail.sampleDetail = 2'000;
    EXPECT_EXIT(runProgram(program, bad_detail),
                ::testing::ExitedWithCode(1), "DETAIL <= INTERVAL");

    SimConfig no_budget;
    no_budget.sampleInterval = 1'000;
    no_budget.sampleDetail = 100;
    EXPECT_EXIT(runProgram(program, no_budget),
                ::testing::ExitedWithCode(1), "total instruction budget");

    SimConfig unreachable_save;
    unreachable_save.ffwdInstructions = 1'000;
    unreachable_save.maxInstructions = 500;
    unreachable_save.maxCycles = 1'000'000;
    unreachable_save.ckptSavePath = tempPath("unreachable.ckpt");
    unreachable_save.ckptSaveInst = 5'000;
    EXPECT_EXIT(runProgram(program, unreachable_save),
                ::testing::ExitedWithCode(1), "never reached");
}

} // namespace
} // namespace dgsim
