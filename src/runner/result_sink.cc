#include "runner/result_sink.hh"

#include <string>

#include "common/log.hh"

namespace dgsim::runner
{
namespace
{

/**
 * The scalar SimResult fields, in serialization order. One table drives
 * the JSONL writer and reader so the two can never drift apart.
 */
struct Field
{
    const char *name;
    std::uint64_t SimResult::*u64; ///< Null for double fields.
    double SimResult::*dbl;        ///< Null for integer fields.
};

const Field kFields[] = {
    {"cycles", &SimResult::cycles, nullptr},
    {"instructions", &SimResult::instructions, nullptr},
    {"ipc", nullptr, &SimResult::ipc},
    {"l1Accesses", &SimResult::l1Accesses, nullptr},
    {"l1Misses", &SimResult::l1Misses, nullptr},
    {"l2Accesses", &SimResult::l2Accesses, nullptr},
    {"l2Misses", &SimResult::l2Misses, nullptr},
    {"l3Accesses", &SimResult::l3Accesses, nullptr},
    {"dramAccesses", &SimResult::dramAccesses, nullptr},
    {"dgCoverage", nullptr, &SimResult::dgCoverage},
    {"dgAccuracy", nullptr, &SimResult::dgAccuracy},
    {"dgAttached", &SimResult::dgAttached, nullptr},
    {"dgIssued", &SimResult::dgIssued, nullptr},
    {"dgVerifiedOk", &SimResult::dgVerifiedOk, nullptr},
    {"dgVerifiedBad", &SimResult::dgVerifiedBad, nullptr},
    {"committedLoads", &SimResult::committedLoads, nullptr},
    {"committedStores", &SimResult::committedStores, nullptr},
    {"committedBranches", &SimResult::committedBranches, nullptr},
    {"branchSquashes", &SimResult::branchSquashes, nullptr},
    {"memOrderSquashes", &SimResult::memOrderSquashes, nullptr},
    {"domDelayed", &SimResult::domDelayed, nullptr},
    {"stlForwards", &SimResult::stlForwards, nullptr},
    {"cacheDigest", &SimResult::cacheDigest, nullptr},
    {"uarchDigest", &SimResult::uarchDigest, nullptr},
};

} // namespace

std::string
toJsonLine(const JobOutcome &outcome, bool host_metrics)
{
    std::string out = "{";
    out += "\"index\":" + std::to_string(outcome.index);
    out += ",\"workload\":\"" + jsonEscape(outcome.workload) + "\"";
    out += ",\"suite\":\"" + jsonEscape(outcome.suite) + "\"";
    out += ",\"config\":\"" + jsonEscape(outcome.configLabel) + "\"";
    out += std::string(",\"ok\":") + (outcome.ok ? "true" : "false");
    out += ",\"error\":\"" + jsonEscape(outcome.error) + "\"";
    for (const Field &field : kFields) {
        out += ",\"" + std::string(field.name) + "\":";
        out += field.u64 ? std::to_string(outcome.result.*field.u64)
                         : jsonDouble(outcome.result.*field.dbl);
    }
    out += ",\"counters\":{";
    bool first = true;
    for (const auto &kv : outcome.result.counters) {
        if (!first)
            out += ",";
        first = false;
        out += "\"" + jsonEscape(kv.first) + "\":" + std::to_string(kv.second);
    }
    out += "}";
    if (host_metrics) {
        // Nested so readers looking fields up by name are unaffected;
        // never emitted on determinism-compared output (values are
        // host-dependent by nature).
        out += ",\"host\":{";
        out += "\"seconds\":" + jsonDouble(outcome.result.hostSeconds);
        out += ",\"kips\":" + jsonDouble(outcome.result.kips());
        out += ",\"traceRecords\":" +
               std::to_string(outcome.result.traceRecords);
        out += ",\"watchdogCycles\":" +
               std::to_string(outcome.result.watchdogCycles);
        out += ",\"idleCyclesSkipped\":" +
               std::to_string(outcome.result.idleCyclesSkipped);
        out += ",\"skipEvents\":" +
               std::to_string(outcome.result.skipEvents);
        out += "}";
    }
    out += "}";
    return out;
}

JobOutcome
outcomeFromJson(const JsonValue &record)
{
    JobOutcome outcome;
    outcome.index = jsonU64(record, "index");
    outcome.workload = jsonMember(record, "workload").str;
    outcome.suite = jsonMember(record, "suite").str;
    outcome.configLabel = jsonMember(record, "config").str;
    outcome.ok = jsonMember(record, "ok").boolean;
    outcome.error = jsonMember(record, "error").str;
    for (const Field &field : kFields) {
        if (field.u64)
            outcome.result.*field.u64 = jsonU64(record, field.name);
        else
            outcome.result.*field.dbl = jsonF64(record, field.name);
    }
    const JsonValue &counters = jsonMember(record, "counters");
    for (const auto &kv : counters.object)
        outcome.result.counters[kv.first] =
            jsonU64(counters, kv.first.c_str());
    // Optional host-metrics object (toJsonLine host_metrics mode).
    const auto host = record.object.find("host");
    if (host != record.object.end()) {
        const JsonValue &metrics = host->second;
        outcome.result.hostSeconds = jsonF64(metrics, "seconds");
        outcome.result.traceRecords = jsonU64(metrics, "traceRecords");
        outcome.result.watchdogCycles = jsonU64(metrics, "watchdogCycles");
        // Skip accounting postdates the host-object format: read it
        // tolerantly so journals written before it still load.
        if (metrics.object.count("idleCyclesSkipped"))
            outcome.result.idleCyclesSkipped =
                jsonU64(metrics, "idleCyclesSkipped");
        if (metrics.object.count("skipEvents"))
            outcome.result.skipEvents = jsonU64(metrics, "skipEvents");
    }
    outcome.result.workload = outcome.workload;
    outcome.result.configLabel = outcome.configLabel;
    return outcome;
}

std::vector<JobOutcome>
readJsonl(std::istream &is)
{
    std::vector<JobOutcome> outcomes;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        if (line.empty())
            continue;
        try {
            outcomes.push_back(outcomeFromJson(JsonParser(line).parse()));
        } catch (const JsonParseError &e) {
            DGSIM_FATAL("JSONL line " + std::to_string(lineno) + ": " +
                        e.what());
        }
    }
    return outcomes;
}

} // namespace dgsim::runner
