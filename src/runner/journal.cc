#include "runner/journal.hh"

#include <cstdio>
#include <cstring>
#include <limits>
#include <vector>

#include "common/hash.hh"
#include "common/log.hh"
#include "runner/result_sink.hh"

namespace dgsim::runner
{
namespace
{

/** Chain one identity field into @p hash (byte-wise FNV-1a). */
void
hashField(std::uint64_t &hash, const std::string &text)
{
    // Hash the terminator too so {"ab","c"} != {"a","bc"}.
    hash = fnv1a(text.c_str(), text.size() + 1, hash);
}

void
hashField(std::uint64_t &hash, std::uint64_t value)
{
    hash = fnv1a(&value, sizeof(value), hash);
}

} // namespace

std::string
jobKey(const Job &job)
{
    std::uint64_t hash = kFnvOffsetBasis;
    hashField(hash, job.suite);
    hashField(hash, job.workload);
    hashField(hash, job.config.label());
    if (job.kind == JobKind::FuzzCandidate) {
        // A fuzz job's identity is its candidate: two integers that the
        // synthesizer expands deterministically. Different seeds (or a
        // key/workload mismatch) must never satisfy each other's
        // journal records.
        hashField(hash, std::string("fuzz-candidate"));
        hashField(hash, job.fuzzKey);
        hashField(hash, job.fuzzSeed);
    }
    hashField(hash, job.config.maxInstructions);
    hashField(hash, job.config.maxCycles);
    hashField(hash, job.config.warmupInstructions);
    // Sampled-simulation shape: a resumed/sampled sweep must never be
    // satisfied by a journal record from a differently-shaped run.
    hashField(hash, job.config.ffwdInstructions);
    hashField(hash, job.config.sampleInterval);
    hashField(hash, job.config.sampleDetail);
    hashField(hash, job.config.ckptSavePath);
    hashField(hash, job.config.ckptSaveInst);
    hashField(hash, job.config.ckptRestorePath);
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(hash));
    return job.workload + "/" + job.config.label() + "#" + hex;
}

JournalWriter::JournalWriter(const std::string &path, bool host_metrics,
                             bool sync)
    : log_(path), host_metrics_(host_metrics), sync_(sync)
{
}

void
JournalWriter::record(const std::string &key, const JobOutcome &outcome)
{
    // The wrapper fields ride in front of the standard serialization;
    // outcomeFromJson() ignores them on the way back in.
    std::string line = "{\"key\":\"" + jsonEscape(key) + "\",\"attempts\":" +
                       std::to_string(outcome.attempts) + "," +
                       toJsonLine(outcome, host_metrics_).substr(1);
    std::lock_guard<std::mutex> lock(mutex_);
    // One write(2) per record: crash tolerance is the whole point.
    // Sweeps are simulation-bound (seconds per job), so it is noise.
    if (const int err = log_.append(std::move(line)))
        DGSIM_FATAL("journal '" + path() + "' append failed: " +
                    std::strerror(err));
    // Opt-in durability against power loss, not just process death.
    if (sync_)
        if (const int err = log_.sync())
            DGSIM_WARN("fsync of journal '" + path() + "' failed: " +
                       std::strerror(err));
}

JournalMap
loadJournal(const std::string &path)
{
    const std::vector<std::string> lines = readLogLines(path);
    JournalMap map;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        try {
            const JsonValue record = JsonParser(lines[i]).parse();
            const std::string key = jsonMember(record, "key").str;
            JobOutcome outcome = outcomeFromJson(record);
            outcome.attempts = static_cast<unsigned>(
                jsonU64(record, "attempts",
                        std::numeric_limits<unsigned>::max()));
            map[key] = std::move(outcome); // Last record wins.
        } catch (const JsonParseError &e) {
            DGSIM_FATAL("journal '" + path + "' line " +
                        std::to_string(i + 1) + " is corrupt: " + e.what());
        }
    }
    return map;
}

} // namespace dgsim::runner
