#include "runner/campaign.hh"

#include <chrono>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/hash.hh"
#include "fuzz/oracle.hh"
#include "runner/json.hh"
#include "runner/paper_matrix.hh"
#include "workloads/suite.hh"

namespace dgsim::runner
{
namespace
{

/**
 * The longest job timeout whose millisecond deadline steady_clock can
 * hold: half the clock's range, leaving the other half for now(). A
 * longer one would wrap jobTimeoutSec * 1000 or the deadline itself
 * into a tiny timeout.
 */
constexpr std::uint64_t kMaxJobTimeoutSec =
    std::chrono::duration_cast<std::chrono::seconds>(
        std::chrono::steady_clock::duration::max())
        .count() /
    2;

} // namespace

unsigned
shardOf(const std::string &key, unsigned shards)
{
    if (shards == 0)
        throw CampaignError("shard count must be positive");
    return static_cast<unsigned>(fnv1a(key.data(), key.size()) % shards);
}

std::string
schemeToken(Scheme scheme)
{
    switch (scheme) {
      case Scheme::Unsafe:
        return "unsafe";
      case Scheme::NdaP:
        return "nda-p";
      case Scheme::Stt:
        return "stt";
      case Scheme::Dom:
        return "dom";
    }
    throw CampaignError("unknown scheme enum value");
}

Scheme
schemeFromToken(const std::string &token)
{
    if (token == "unsafe")
        return Scheme::Unsafe;
    if (token == "nda-p" || token == "ndap" || token == "nda")
        return Scheme::NdaP;
    if (token == "stt")
        return Scheme::Stt;
    if (token == "dom")
        return Scheme::Dom;
    throw CampaignError("manifest: unknown scheme '" + token + "'");
}

std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> items;
    std::stringstream ss(text);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            items.push_back(item);
    return items;
}

std::string
joinList(const std::vector<std::string> &items)
{
    std::string text;
    for (const std::string &item : items)
        text += (text.empty() ? "" : ",") + item;
    return text;
}

SweepSpec
manifestSpec(const CampaignManifest &manifest)
{
    if (manifest.jobTimeoutSec > kMaxJobTimeoutSec)
        throw CampaignError("job timeout of " +
                            std::to_string(manifest.jobTimeoutSec) +
                            "s exceeds the " +
                            std::to_string(kMaxJobTimeoutSec) +
                            "s a steady_clock deadline can hold");
    // retries + 1 attempts must not wrap to zero.
    if (manifest.retries == std::numeric_limits<unsigned>::max())
        throw CampaignError("retries must be at most " +
                            std::to_string(manifest.retries - 1) +
                            ", got " + std::to_string(manifest.retries));
    if (!(manifest.injectFailRate >= 0.0 && manifest.injectFailRate <= 1.0))
        throw CampaignError("inject-fail rate must be in [0, 1], got " +
                            jsonDouble(manifest.injectFailRate));
    if (manifest.fuzzCount != 0) {
        // Fuzzing campaign: the oracle's run budget is centralized in
        // fuzz::oracleBaseConfig(), so every fuzz job of a given
        // (count, seed) has the same key in every mode.
        SweepSpec spec;
        SimConfig base = fuzz::oracleBaseConfig();
        base.jobTimeoutMs = manifest.jobTimeoutSec * 1000;
        spec.configs = {base};
        spec.fuzzCount = manifest.fuzzCount;
        spec.fuzzSeed = manifest.fuzzSeed;
        return spec;
    }

    SimConfig base = paperRunConfig(manifest.instructions);
    base.ffwdInstructions = manifest.ffwdInstructions;
    base.sampleInterval = manifest.sampleInterval;
    base.sampleDetail = manifest.sampleDetail;
    if (base.ffwdInstructions != 0 || base.sampleInterval != 0) {
        // Functional warming replaces the warmup prefix: the detailed
        // window starts measured from its first committed instruction.
        base.warmupInstructions = 0;
    }
    base.jobTimeoutMs = manifest.jobTimeoutSec * 1000;

    SweepSpec spec;
    if (manifest.suite.empty()) {
        for (const auto &workload : workloads::extendedSuite())
            if (manifest.tier == "all" || workload.tier == manifest.tier)
                spec.workloads.push_back(workload);
    } else {
        for (const std::string &name : splitList(manifest.suite))
            spec.workloads.push_back(workloads::findWorkload(name));
    }

    std::vector<bool> apModes;
    if (manifest.ap == "on")
        apModes = {true};
    else if (manifest.ap == "off")
        apModes = {false};
    else if (manifest.ap == "both")
        apModes = {false, true};
    else
        throw CampaignError("manifest: ap must be on, off or both, got '" +
                            manifest.ap + "'");

    const std::vector<std::string> schemeTokens = splitList(manifest.schemes);
    if (schemeTokens.empty())
        throw CampaignError("manifest: needs at least one scheme");
    for (const std::string &token : schemeTokens) {
        for (bool ap : apModes) {
            SimConfig config = base;
            config.scheme = schemeFromToken(token);
            config.addressPrediction = ap;
            spec.configs.push_back(config);
        }
    }
    return spec;
}

RunnerOptions
manifestRunnerOptions(const CampaignManifest &manifest)
{
    RunnerOptions options;
    options.maxAttempts = manifest.retries + 1;
    options.backoff.baseMs = manifest.retryBaseMs;
    options.injectFailRate = manifest.injectFailRate;
    options.injectFailSeed = manifest.injectFailSeed;
    return options;
}

std::vector<Job>
filterShard(std::vector<Job> jobs, unsigned shard, unsigned shards)
{
    if (shard >= shards)
        throw CampaignError("shard index " + std::to_string(shard) +
                            " out of range for " + std::to_string(shards) +
                            " shards");
    std::vector<Job> mine;
    for (Job &job : jobs) {
        if (shardOf(jobKey(job), shards) != shard)
            continue;
        job.index = mine.size();
        mine.push_back(std::move(job));
    }
    return mine;
}

void
writeManifest(const std::string &path, const CampaignManifest &manifest)
{
    std::ofstream out(path);
    if (!out)
        throw CampaignError("cannot open manifest '" + path +
                            "' for writing");
    out << "{\"dgsim_campaign\":1"
        << ",\"name\":\"" << jsonEscape(manifest.name) << "\""
        << ",\"shards\":" << manifest.shards
        << ",\"jobs\":" << manifest.jobKeys.size()
        << ",\"suite\":\"" << jsonEscape(manifest.suite) << "\""
        << ",\"tier\":\"" << jsonEscape(manifest.tier) << "\""
        << ",\"schemes\":\"" << jsonEscape(manifest.schemes) << "\""
        << ",\"ap\":\"" << jsonEscape(manifest.ap) << "\""
        << ",\"instructions\":" << manifest.instructions
        << ",\"ffwd\":" << manifest.ffwdInstructions
        << ",\"sampleInterval\":" << manifest.sampleInterval
        << ",\"sampleDetail\":" << manifest.sampleDetail
        << ",\"fuzzCount\":" << manifest.fuzzCount
        << ",\"fuzzSeed\":" << manifest.fuzzSeed
        << ",\"retries\":" << manifest.retries
        << ",\"retryBaseMs\":" << manifest.retryBaseMs
        << ",\"jobTimeoutSec\":" << manifest.jobTimeoutSec
        << ",\"injectFailRate\":" << jsonDouble(manifest.injectFailRate)
        << ",\"injectFailSeed\":" << manifest.injectFailSeed
        << "}\n";
    for (const std::string &key : manifest.jobKeys)
        out << "{\"job\":\"" << jsonEscape(key) << "\",\"shard\":"
            << shardOf(key, manifest.shards) << "}\n";
    out.flush();
    if (!out)
        throw CampaignError("failed writing manifest '" + path + "'");
}

CampaignManifest
loadManifest(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw CampaignError("cannot open manifest '" + path + "'");

    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        if (!line.empty())
            lines.push_back(line);
    if (lines.empty())
        throw CampaignError("manifest '" + path + "' is empty");

    CampaignManifest manifest;
    std::uint64_t expectedJobs = 0;
    try {
        const JsonValue header = JsonParser(lines[0]).parse();
        if (jsonU64(header, "dgsim_campaign") != 1)
            throw CampaignError("manifest '" + path +
                                "': unsupported version");
        manifest.name = jsonMember(header, "name").str;
        manifest.shards = static_cast<unsigned>(
            jsonU64(header, "shards", std::numeric_limits<unsigned>::max()));
        expectedJobs = jsonU64(header, "jobs");
        manifest.suite = jsonMember(header, "suite").str;
        manifest.tier = jsonMember(header, "tier").str;
        manifest.schemes = jsonMember(header, "schemes").str;
        manifest.ap = jsonMember(header, "ap").str;
        manifest.instructions = jsonU64(header, "instructions");
        manifest.ffwdInstructions = jsonU64(header, "ffwd");
        manifest.sampleInterval = jsonU64(header, "sampleInterval");
        manifest.sampleDetail = jsonU64(header, "sampleDetail");
        manifest.fuzzCount = jsonU64(header, "fuzzCount");
        manifest.fuzzSeed = jsonU64(header, "fuzzSeed");
        manifest.retries = static_cast<unsigned>(jsonU64(
            header, "retries", std::numeric_limits<unsigned>::max()));
        manifest.retryBaseMs = jsonU64(header, "retryBaseMs");
        manifest.jobTimeoutSec = jsonU64(header, "jobTimeoutSec");
        manifest.injectFailRate = jsonF64(header, "injectFailRate");
        manifest.injectFailSeed = jsonU64(header, "injectFailSeed");
    } catch (const JsonParseError &e) {
        throw CampaignError("manifest '" + path + "' header: " + e.what());
    }
    if (manifest.shards == 0)
        throw CampaignError("manifest '" + path + "': zero shards");

    manifest.jobKeys.reserve(lines.size() - 1);
    for (std::size_t i = 1; i < lines.size(); ++i) {
        try {
            const JsonValue record = JsonParser(lines[i]).parse();
            const std::string key = jsonMember(record, "job").str;
            const std::uint64_t shard = jsonU64(record, "shard");
            if (shard != shardOf(key, manifest.shards))
                throw CampaignError(
                    "manifest '" + path + "' line " + std::to_string(i + 1) +
                    ": recorded shard " + std::to_string(shard) +
                    " disagrees with shardOf('" + key + "', " +
                    std::to_string(manifest.shards) + ")");
            manifest.jobKeys.push_back(key);
        } catch (const JsonParseError &e) {
            throw CampaignError("manifest '" + path + "' line " +
                                std::to_string(i + 1) + ": " + e.what());
        }
    }
    if (manifest.jobKeys.size() != expectedJobs)
        throw CampaignError(
            "manifest '" + path + "': header promises " +
            std::to_string(expectedJobs) + " jobs but " +
            std::to_string(manifest.jobKeys.size()) + " are listed");
    return manifest;
}

std::string
validateManifest(const CampaignManifest &manifest,
                 const std::vector<Job> &expanded)
{
    if (expanded.size() != manifest.jobKeys.size())
        return "sweep expands to " + std::to_string(expanded.size()) +
               " jobs but the manifest expects " +
               std::to_string(manifest.jobKeys.size());
    for (std::size_t i = 0; i < expanded.size(); ++i) {
        const std::string key = jobKey(expanded[i]);
        if (key != manifest.jobKeys[i])
            return "job " + std::to_string(i) + " expands to key '" + key +
                   "' but the manifest expects '" + manifest.jobKeys[i] +
                   "' — the sweep spec drifted since --campaign-init";
    }
    return "";
}

JournalMap
mergeJournals(const std::vector<std::string> &paths)
{
    JournalMap merged;
    for (const std::string &path : paths)
        for (auto &entry : loadJournal(path))
            merged[entry.first] = std::move(entry.second); // Last wins.
    return merged;
}

std::vector<JobOutcome>
orderOutcomes(const JournalMap &merged, const std::vector<Job> &jobs)
{
    std::vector<JobOutcome> outcomes;
    outcomes.reserve(jobs.size());
    for (const Job &job : jobs) {
        const std::string key = jobKey(job);
        const auto it = merged.find(key);
        JobOutcome outcome;
        if (it != merged.end()) {
            outcome = it->second;
        } else {
            outcome.workload = job.workload;
            outcome.suite = job.suite;
            outcome.configLabel = job.config.label();
            outcome.ok = false;
            outcome.attempts = 0;
            outcome.error = "missing from merged journals (never completed)";
        }
        outcome.index = job.index; // Shard journals carry local indices.
        outcomes.push_back(std::move(outcome));
    }
    return outcomes;
}

std::string
workerJournalPath(const std::string &manifestPath, unsigned worker)
{
    return manifestPath + ".w" + std::to_string(worker) + ".journal";
}

std::string
claimsPath(const std::string &manifestPath)
{
    return manifestPath + ".claims";
}

} // namespace dgsim::runner
