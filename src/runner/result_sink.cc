#include "runner/result_sink.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
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

/**
 * A double as a JSON value: the shortest text strtod restores
 * bit-exactly when finite. Non-finite values (a zero-denominator job's
 * ipc or dgAccuracy) become quoted canonical tokens instead of the bare
 * `nan`/`inf` %g would print — JSON has no NaN/Infinity literals, and a
 * bare token would make the whole line unparseable.
 */
std::string
jsonDouble(double value)
{
    if (std::isnan(value))
        return "\"NaN\"";
    if (std::isinf(value))
        return std::signbit(value) ? "\"-Infinity\"" : "\"Infinity\"";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

std::uint64_t
stringToU64(const std::string &text, const char *what)
{
    // strtoull silently accepts leading whitespace and a sign — and
    // wraps "-1" to 2^64-1 — so a corrupted row would round-trip as
    // garbage. toJsonLine only ever writes bare digits; demand them.
    if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])))
        DGSIM_FATAL(std::string("bad integer for ") + what + ": '" + text +
                    "'");
    errno = 0;
    char *end = nullptr;
    const std::uint64_t value = std::strtoull(text.c_str(), &end, 10);
    if (*end != '\0' || errno == ERANGE)
        DGSIM_FATAL(std::string("bad integer for ") + what + ": '" + text +
                    "'");
    return value;
}

double
stringToDouble(const std::string &text, const char *what)
{
    // Like the integer path, reject the whitespace/'+' prefixes strtod
    // would silently eat ('-' stays legal: -Infinity needs it).
    if (text.empty() ||
        std::isspace(static_cast<unsigned char>(text[0])) || text[0] == '+')
        DGSIM_FATAL(std::string("bad number for ") + what + ": '" + text +
                    "'");
    errno = 0;
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    // ERANGE covers two very different cases: overflow (+-HUGE_VAL, a
    // value we never wrote) and *underflow*, which toJsonLine itself can
    // legitimately produce — %.17g of a subnormal parses back with
    // errno == ERANGE but a perfectly valid result. Only overflow is an
    // error.
    const bool overflow =
        errno == ERANGE && (value == HUGE_VAL || value == -HUGE_VAL);
    if (*end != '\0' || overflow)
        DGSIM_FATAL(std::string("bad number for ") + what + ": '" + text +
                    "'");
    return value;
}

/**
 * The raw text of a numeric member. Finite doubles arrive as JSON
 * numbers; NaN/Infinity arrive as the quoted tokens jsonDouble emits.
 */
const std::string &
numberText(const JsonValue &value)
{
    return value.kind == JsonValue::Kind::String ? value.str : value.number;
}

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
    outcome.index = stringToU64(jsonMember(record, "index").number, "index");
    outcome.workload = jsonMember(record, "workload").str;
    outcome.suite = jsonMember(record, "suite").str;
    outcome.configLabel = jsonMember(record, "config").str;
    outcome.ok = jsonMember(record, "ok").boolean;
    outcome.error = jsonMember(record, "error").str;
    for (const Field &field : kFields) {
        const std::string &raw = numberText(jsonMember(record, field.name));
        if (field.u64)
            outcome.result.*field.u64 = stringToU64(raw, field.name);
        else
            outcome.result.*field.dbl = stringToDouble(raw, field.name);
    }
    for (const auto &kv : jsonMember(record, "counters").object)
        outcome.result.counters[kv.first] =
            stringToU64(kv.second.number, kv.first.c_str());
    // Optional host-metrics object (toJsonLine host_metrics mode).
    const auto host = record.object.find("host");
    if (host != record.object.end()) {
        outcome.result.hostSeconds = stringToDouble(
            numberText(jsonMember(host->second, "seconds")), "host.seconds");
        outcome.result.traceRecords =
            stringToU64(jsonMember(host->second, "traceRecords").number,
                        "host.traceRecords");
        outcome.result.watchdogCycles =
            stringToU64(jsonMember(host->second, "watchdogCycles").number,
                        "host.watchdogCycles");
        // Skip accounting postdates the host-object format: read it
        // tolerantly so journals written before it still load.
        const auto skipped = host->second.object.find("idleCyclesSkipped");
        if (skipped != host->second.object.end()) {
            outcome.result.idleCyclesSkipped = stringToU64(
                skipped->second.number, "host.idleCyclesSkipped");
        }
        const auto skips = host->second.object.find("skipEvents");
        if (skips != host->second.object.end()) {
            outcome.result.skipEvents =
                stringToU64(skips->second.number, "host.skipEvents");
        }
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
