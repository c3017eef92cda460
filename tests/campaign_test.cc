/**
 * @file
 * Sharded-campaign tests: the sharding invariants (pure-function
 * membership, disjoint + covering partitions, stability across
 * expansion order), the manifest round-trip and its drift detection,
 * and the headline guarantee — per-shard journals merged by identity
 * byte-compare to an uninterrupted single-process run. Also pins the
 * shared run shape (manifestSpec() configs equal paperRunConfig()'s,
 * functional warming zeroes the warm-up) and the budgets
 * manifestRunnerOptions() carries.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "runner/campaign.hh"
#include "runner/experiment_runner.hh"
#include "runner/journal.hh"
#include "runner/sweep.hh"
#include "workloads/suite.hh"
#include "sweep_fixtures.hh"

namespace dgsim::runner
{
namespace
{

std::string
tempPath(const char *name)
{
    return testing::TempDir() + name;
}

/** A manifest describing smallSpec() in the canonical vocabulary. */
CampaignManifest
smallManifest(unsigned shards, std::uint64_t instructions)
{
    CampaignManifest manifest;
    manifest.name = "test-campaign";
    manifest.shards = shards;
    manifest.suite = "gobmk,h264ref";
    manifest.instructions = instructions;
    manifest.retries = 2;
    manifest.retryBaseMs = 0;
    for (const Job &job : manifestSpec(manifest).expand())
        manifest.jobKeys.push_back(jobKey(job));
    return manifest;
}

TEST(Sharding, MembershipIsAPureFunctionOfIdentity)
{
    const std::vector<Job> jobs = smallSpec(1'000).expand();
    for (const Job &job : jobs) {
        const std::string key = jobKey(job);
        // Stable across calls and independent of index.
        EXPECT_EQ(shardOf(key, 5), shardOf(key, 5));
        Job reindexed = job;
        reindexed.index = 999;
        EXPECT_EQ(shardOf(jobKey(reindexed), 5), shardOf(key, 5));
        // Always in range.
        for (unsigned n : {1u, 2u, 3u, 5u, 8u})
            EXPECT_LT(shardOf(key, n), n);
    }
    EXPECT_THROW(shardOf("any", 0), CampaignError);
}

TEST(Sharding, ShardsAreDisjointAndCovering)
{
    const std::vector<Job> jobs = smallSpec(1'000).expand();
    std::set<std::string> all;
    for (const Job &job : jobs)
        all.insert(jobKey(job));
    ASSERT_EQ(all.size(), jobs.size());

    for (unsigned n : {1u, 2u, 3u, 5u, 8u}) {
        std::set<std::string> seen;
        std::size_t totalFiltered = 0;
        for (unsigned s = 0; s < n; ++s) {
            const std::vector<Job> mine = filterShard(jobs, s, n);
            totalFiltered += mine.size();
            for (std::size_t i = 0; i < mine.size(); ++i) {
                // Re-indexed densely, membership agrees with shardOf.
                EXPECT_EQ(mine[i].index, i);
                const std::string key = jobKey(mine[i]);
                EXPECT_EQ(shardOf(key, n), s);
                // Disjoint: no key appears in two shards.
                EXPECT_TRUE(seen.insert(key).second) << key;
            }
        }
        // Covering: the union is exactly the full sweep.
        EXPECT_EQ(totalFiltered, jobs.size()) << n << " shards";
        EXPECT_EQ(seen, all) << n << " shards";
    }
    EXPECT_THROW(filterShard(jobs, 3, 3), CampaignError);
}

TEST(Manifest, WriteLoadRoundTrip)
{
    const std::string path = tempPath("manifest_roundtrip.jsonl");
    CampaignManifest manifest = smallManifest(3, 2'000);
    manifest.jobTimeoutSec = 7;
    manifest.injectFailRate = 0.25;
    manifest.injectFailSeed = 42;
    writeManifest(path, manifest);

    const CampaignManifest loaded = loadManifest(path);
    EXPECT_EQ(loaded.name, manifest.name);
    EXPECT_EQ(loaded.shards, manifest.shards);
    EXPECT_EQ(loaded.suite, manifest.suite);
    EXPECT_EQ(loaded.tier, manifest.tier);
    EXPECT_EQ(loaded.schemes, manifest.schemes);
    EXPECT_EQ(loaded.ap, manifest.ap);
    EXPECT_EQ(loaded.instructions, manifest.instructions);
    EXPECT_EQ(loaded.retries, manifest.retries);
    EXPECT_EQ(loaded.retryBaseMs, manifest.retryBaseMs);
    EXPECT_EQ(loaded.jobTimeoutSec, manifest.jobTimeoutSec);
    EXPECT_EQ(loaded.injectFailRate, manifest.injectFailRate);
    EXPECT_EQ(loaded.injectFailSeed, manifest.injectFailSeed);
    EXPECT_EQ(loaded.jobKeys, manifest.jobKeys);

    // The loaded manifest validates against its own re-expansion.
    EXPECT_EQ(validateManifest(loaded, manifestSpec(loaded).expand()), "");
}

TEST(Manifest, ValidateCatchesSpecDrift)
{
    CampaignManifest manifest = smallManifest(2, 2'000);
    const std::vector<Job> jobs = manifestSpec(manifest).expand();
    EXPECT_EQ(validateManifest(manifest, jobs), "");

    // A different budget re-keys every job: loud mismatch.
    CampaignManifest drifted = manifest;
    drifted.instructions = 3'000;
    const std::string keyError =
        validateManifest(drifted, manifestSpec(drifted).expand());
    EXPECT_NE(keyError.find("drifted"), std::string::npos) << keyError;

    // A different sweep size is caught before any key comparison.
    CampaignManifest shrunk = manifest;
    shrunk.suite = "gobmk";
    const std::string sizeError =
        validateManifest(manifest, manifestSpec(shrunk).expand());
    EXPECT_NE(sizeError.find("expects"), std::string::npos) << sizeError;
}

TEST(Manifest, LoadRejectsCorruptInput)
{
    const std::string path = tempPath("manifest_corrupt.jsonl");

    EXPECT_THROW(loadManifest(tempPath("manifest_missing.jsonl")),
                 CampaignError);

    { std::ofstream(path) << "not json\n"; }
    EXPECT_THROW(loadManifest(path), CampaignError);

    { std::ofstream(path) << "{\"dgsim_campaign\":99}\n"; }
    EXPECT_THROW(loadManifest(path), CampaignError);

    // A job line whose recorded shard disagrees with shardOf(): the
    // manifest was edited or written by a drifted binary.
    CampaignManifest manifest = smallManifest(3, 2'000);
    writeManifest(path, manifest);
    {
        std::ifstream in(path);
        std::string header, jobLine;
        std::getline(in, header);
        std::getline(in, jobLine);
        in.close();
        const std::size_t colon = jobLine.rfind(':');
        const unsigned shard = static_cast<unsigned>(
            std::stoul(jobLine.substr(colon + 1)));
        std::ofstream out(path, std::ios::trunc);
        out << header << "\n"
            << jobLine.substr(0, colon + 1) << (shard + 1) % 3 << "}\n";
    }
    EXPECT_THROW(loadManifest(path), CampaignError);

    // Header values a hand edit can break: a negative count is not a
    // count (it used to wrap to 2^64 - 1), and retries whose first
    // attempt would wrap maxAttempts to zero exceed --retries' bound,
    // which manifestSpec() applies to manifests and flags alike.
    const auto withHeader = [&](const std::string &from,
                                const std::string &to) {
        writeManifest(path, smallManifest(3, 2'000));
        std::ifstream in(path);
        std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
        in.close();
        const std::size_t at = text.find(from);
        EXPECT_NE(at, std::string::npos) << "fixture drift: " << from;
        text.replace(at, from.size(), to);
        std::ofstream(path, std::ios::trunc) << text;
    };
    withHeader("\"retries\":2", "\"retries\":-1");
    EXPECT_THROW(loadManifest(path), CampaignError);
    withHeader("\"retryBaseMs\":0", "\"retryBaseMs\":-5");
    EXPECT_THROW(loadManifest(path), CampaignError);
    withHeader("\"retries\":2", "\"retries\":4294967296");
    EXPECT_THROW(loadManifest(path), CampaignError);
    withHeader("\"retries\":2", "\"retries\":4294967295");
    EXPECT_THROW(manifestSpec(loadManifest(path)), CampaignError);
    withHeader("\"injectFailRate\":0", "\"injectFailRate\":-0.5");
    EXPECT_THROW(manifestSpec(loadManifest(path)), CampaignError);
}

TEST(Manifest, UnrepresentableJobTimeoutIsRejectedOnExpansion)
{
    // 18446744073709552 s is 2^64 ms plus 384 ms: multiplied out in 64
    // bits it would arm a 384 ms timeout. A header carrying it loads
    // (it is well-formed) but must not expand into jobs.
    const std::string path = tempPath("manifest_timeout.jsonl");
    CampaignManifest manifest = smallManifest(1, 2'000);
    manifest.jobTimeoutSec = 18446744073709552ULL;
    writeManifest(path, manifest);

    CampaignManifest loaded = loadManifest(path);
    EXPECT_EQ(loaded.jobTimeoutSec, 18446744073709552ULL);
    EXPECT_THROW(manifestSpec(loaded), CampaignError);
    loaded.fuzzCount = 3;
    EXPECT_THROW(manifestSpec(loaded), CampaignError);

    // A century is long but representable: it arms as given.
    CampaignManifest century = smallManifest(1, 2'000);
    century.jobTimeoutSec = 100ULL * 365 * 24 * 3600;
    EXPECT_EQ(manifestSpec(century).configs.front().jobTimeoutMs,
              century.jobTimeoutSec * 1000);
}

TEST(Merge, ThreeShardJournalsMatchSingleProcessByteForByte)
{
    const SweepSpec spec = smallSpec(1'000);
    const std::vector<Job> jobs = spec.expand();

    // Reference: the same sweep, one process, no sharding.
    RunnerOptions reference;
    reference.threads = 2;
    reference.progress = false;
    reference.execute = identityMockResult;
    const auto uninterrupted = ExperimentRunner(reference).run(jobs);

    // Three independent shard runs, each journaling its own file —
    // exactly what three `dgrun --shard s/3 --journal ...` invocations
    // (possibly on three machines) produce.
    std::vector<std::string> journalPaths;
    for (unsigned s = 0; s < 3; ++s) {
        const std::string path =
            tempPath(("merge_shard" + std::to_string(s) + ".jsonl").c_str());
        std::remove(path.c_str());
        journalPaths.push_back(path);

        RunnerOptions options;
        options.threads = 1;
        options.progress = false;
        options.execute = identityMockResult;
        options.journalPath = path;
        ExperimentRunner(options).run(filterShard(jobs, s, 3));
    }

    const JournalMap merged = mergeJournals(journalPaths);
    EXPECT_EQ(merged.size(), jobs.size());
    const auto outcomes = orderOutcomes(merged, jobs);

    ASSERT_EQ(outcomes.size(), uninterrupted.size());
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        EXPECT_TRUE(outcomes[i].ok) << outcomes[i].error;
        // Indices are rewritten from shard-local back to full-sweep.
        EXPECT_EQ(outcomes[i].index, i);
    }
    EXPECT_EQ(jsonlOf(outcomes), jsonlOf(uninterrupted));
}

TEST(Merge, MissingJobsSurfaceInsteadOfVanishing)
{
    const std::vector<Job> jobs = smallSpec(1'000).expand();

    // Only shard 0 of 3 ever ran.
    const std::string path = tempPath("merge_partial.jsonl");
    std::remove(path.c_str());
    RunnerOptions options;
    options.threads = 1;
    options.progress = false;
    options.execute = identityMockResult;
    options.journalPath = path;
    const std::vector<Job> mine = filterShard(jobs, 0, 3);
    ExperimentRunner(options).run(mine);

    const auto outcomes = orderOutcomes(mergeJournals({path}), jobs);
    ASSERT_EQ(outcomes.size(), jobs.size());
    std::size_t present = 0, missing = 0;
    for (const JobOutcome &outcome : outcomes) {
        if (outcome.ok) {
            ++present;
        } else {
            ++missing;
            EXPECT_EQ(outcome.attempts, 0u);
            EXPECT_NE(outcome.error.find("missing"), std::string::npos);
        }
    }
    EXPECT_EQ(present, mine.size());
    EXPECT_EQ(missing, jobs.size() - mine.size());
}

// One run shape: dgrun, campaign workers and the figure benches all
// derive their configs from paperRunConfig(). If either derivation
// forks, journals written by one stop satisfying the other.
TEST(SharedRunShape, ManifestSpecIsThePaperRunShape)
{
    for (std::uint64_t budget : {1ULL, 3ULL, 20'000ULL, 100'000ULL}) {
        CampaignManifest manifest;
        manifest.suite = "gobmk";
        manifest.instructions = budget;
        const std::vector<SimConfig> campaignConfigs =
            manifestSpec(manifest).configs;
        const std::vector<SimConfig> paperConfigs =
            evaluationConfigs(paperRunConfig(budget));
        ASSERT_EQ(campaignConfigs.size(), paperConfigs.size());
        for (std::size_t i = 0; i < paperConfigs.size(); ++i) {
            const SimConfig &campaign = campaignConfigs[i];
            const SimConfig &paper = paperConfigs[i];
            EXPECT_EQ(campaign.maxInstructions, paper.maxInstructions);
            EXPECT_EQ(campaign.maxCycles, paper.maxCycles);
            EXPECT_EQ(campaign.warmupInstructions, paper.warmupInstructions);

            // Every other field that feeds job identity, through the key.
            Job campaignJob;
            campaignJob.workload = "gobmk";
            campaignJob.config = campaign;
            Job paperJob = campaignJob;
            paperJob.config = paper;
            EXPECT_EQ(jobKey(campaignJob), jobKey(paperJob))
                << "budget " << budget;
        }
    }
}

// Functional warming (fast-forward or sampling) replaces the warm-up
// prefix; a plain detailed run keeps the paper's budget / 3.
TEST(SharedRunShape, FunctionalWarmingZeroesTheWarmup)
{
    CampaignManifest plain;
    plain.suite = "mcf";
    plain.instructions = 30'000;
    CampaignManifest ffwd = plain;
    ffwd.ffwdInstructions = 50'000;
    CampaignManifest sampled = plain;
    sampled.sampleInterval = 10'000;
    sampled.sampleDetail = 1'000;

    for (const SimConfig &config : manifestSpec(plain).configs)
        EXPECT_EQ(config.warmupInstructions, 10'000u);
    for (const CampaignManifest &warmed : {ffwd, sampled}) {
        const SweepSpec spec = manifestSpec(warmed);
        ASSERT_EQ(spec.configs.size(), 8u);
        for (const SimConfig &config : spec.configs)
            EXPECT_EQ(config.warmupInstructions, 0u);
    }
}

TEST(SharedRunShape, ManifestRunnerOptionsCarryTheBudgets)
{
    CampaignManifest manifest;
    manifest.retries = 7;
    manifest.retryBaseMs = 25;
    manifest.injectFailRate = 0.3;
    manifest.injectFailSeed = 42;
    const RunnerOptions options = manifestRunnerOptions(manifest);
    EXPECT_EQ(options.maxAttempts, 8u);
    EXPECT_EQ(options.backoff.baseMs, 25u);
    EXPECT_EQ(options.injectFailRate, 0.3);
    EXPECT_EQ(options.injectFailSeed, 42u);
}

/** A matrix table as JSONL, one line per cell. */
std::string
tableJsonl(const MatrixTable &table)
{
    std::vector<JobOutcome> cells;
    for (const MatrixRow &row : table.rows)
        for (std::size_t col = 0; col < row.cells.size(); ++col)
            cells.push_back({0, row.workload, row.suite, table.labels[col],
                             true, "", row.cells[col]});
    return jsonlOf(cells);
}

TEST(SharedRunShape, MatrixTableIsIndependentOfThreadCount)
{
    const std::vector<workloads::WorkloadDef> suite = {
        workloads::findWorkload("gobmk"), workloads::findWorkload("mcf"),
        workloads::findWorkload("h264ref")};
    const std::vector<MatrixColumn> columns = paperColumns(5000);
    const MatrixTable serial = runMatrix(suite, columns, {.threads = 1});
    const MatrixTable parallel = runMatrix(suite, columns, {.threads = 3});
    ASSERT_EQ(serial.rows.size(), suite.size());
    ASSERT_EQ(serial.labels.size(), columns.size());
    EXPECT_EQ(tableJsonl(serial), tableJsonl(parallel));
}

} // namespace
} // namespace dgsim::runner
