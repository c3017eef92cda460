#include "telemetry/trace.hh"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/linelog.hh"
#include "common/log.hh"
#include "runner/json.hh"

namespace dgsim::telemetry
{
namespace
{

using runner::JsonParseError;
using runner::JsonParser;
using runner::JsonValue;
using runner::jsonEscape;
using runner::jsonMember;
using runner::jsonU64;

TraceEvent
eventFromJson(const JsonValue &record)
{
    TraceEvent event;
    event.name = jsonMember(record, "name").str;
    event.cat = jsonMember(record, "cat").str;
    event.ph = jsonMember(record, "ph").str;
    event.ts = jsonU64(record, "ts");
    event.pid = jsonU64(record, "pid");
    event.tid = jsonU64(record, "tid");
    // "M" metadata events may omit dur.
    if (record.object.count("dur"))
        event.dur = jsonU64(record, "dur");
    const auto args = record.object.find("args");
    if (args != record.object.end()) {
        if (args->second.kind != JsonValue::Kind::Object)
            throw JsonParseError("event 'args' is not an object");
        for (const auto &entry : args->second.object) {
            switch (entry.second.kind) {
              case JsonValue::Kind::String:
                event.args[entry.first] = entry.second.str;
                break;
              case JsonValue::Kind::Number:
                event.args[entry.first] = entry.second.number;
                break;
              case JsonValue::Kind::Boolean:
                event.args[entry.first] =
                    entry.second.boolean ? "true" : "false";
                break;
              default:
                throw JsonParseError("event arg '" + entry.first +
                                     "' is not a scalar");
            }
        }
    }
    return event;
}

std::string
eventToJsonLine(const TraceEvent &event)
{
    std::string line = "{\"name\":\"" + jsonEscape(event.name) +
                       "\",\"cat\":\"" + jsonEscape(event.cat) +
                       "\",\"ph\":\"" + jsonEscape(event.ph) +
                       "\",\"ts\":" + std::to_string(event.ts) +
                       ",\"dur\":" + std::to_string(event.dur) +
                       ",\"pid\":" + std::to_string(event.pid) +
                       ",\"tid\":" + std::to_string(event.tid) +
                       ",\"args\":{";
    bool first = true;
    for (const auto &entry : event.args) {
        if (!first)
            line += ',';
        first = false;
        // Args round-trip as strings: the report reads them as text
        // and Perfetto renders them either way.
        line += "\"" + jsonEscape(entry.first) + "\":\"" +
                jsonEscape(entry.second) + "\"";
    }
    line += "}}";
    return line;
}

} // namespace

std::vector<TraceEvent>
loadTraceEvents(const std::string &path)
{
    const std::vector<std::string> lines = readLogLines(path);
    std::vector<TraceEvent> events;
    events.reserve(lines.size());
    for (std::size_t i = 0; i < lines.size(); ++i) {
        try {
            events.push_back(eventFromJson(JsonParser(lines[i]).parse()));
        } catch (const JsonParseError &e) {
            DGSIM_FATAL("telemetry events '" + path + "' line " +
                        std::to_string(i + 1) + " is corrupt: " + e.what());
        }
    }
    return events;
}

std::size_t
mergeTraceFiles(const std::vector<std::string> &partPaths,
                const std::string &outPath)
{
    std::vector<TraceEvent> events;
    for (const std::string &part : partPaths) {
        std::vector<TraceEvent> loaded = loadTraceEvents(part);
        events.insert(events.end(),
                      std::make_move_iterator(loaded.begin()),
                      std::make_move_iterator(loaded.end()));
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         if (a.ts != b.ts)
                             return a.ts < b.ts;
                         if (a.pid != b.pid)
                             return a.pid < b.pid;
                         return a.tid < b.tid;
                     });

    std::ofstream out(outPath, std::ios::trunc);
    if (!out)
        DGSIM_FATAL("cannot write merged telemetry trace '" + outPath +
                    "'");
    // The JSON-object trace format Perfetto/chrome://tracing load
    // directly; one event per line keeps it greppable.
    out << "{\"dgsim_telemetry\":1,\"displayTimeUnit\":\"ms\","
        << "\"traceEvents\":[\n";
    for (std::size_t i = 0; i < events.size(); ++i)
        out << eventToJsonLine(events[i])
            << (i + 1 < events.size() ? ",\n" : "\n");
    out << "]}\n";
    return events.size();
}

std::vector<TraceEvent>
loadMergedTrace(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw JsonParseError("cannot open telemetry trace '" + path + "'");
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();

    const JsonValue document = JsonParser(text).parse();
    const JsonValue &list = jsonMember(document, "traceEvents");
    if (list.kind != JsonValue::Kind::Array)
        throw JsonParseError("'traceEvents' is not an array");
    std::vector<TraceEvent> events;
    events.reserve(list.array.size());
    for (const JsonValue &record : list.array)
        events.push_back(eventFromJson(record));
    return events;
}

std::string
validateTraceEvents(const std::vector<TraceEvent> &events)
{
    for (std::size_t i = 0; i < events.size(); ++i) {
        const TraceEvent &event = events[i];
        const std::string where = "event " + std::to_string(i + 1) + " ('" +
                                  event.name + "')";
        if (event.name.empty())
            return "event " + std::to_string(i + 1) + " has an empty name";
        if (event.ph != "X" && event.ph != "M")
            return where + " has unknown phase '" + event.ph + "'";
        if (event.ph == "M" && event.name != "process_name")
            return where + " is unexpected metadata";
        if (event.pid == 0)
            return where + " has pid 0";
        if (i > 0 && event.ts < events[i - 1].ts)
            return where + " breaks timestamp ordering";
    }
    return "";
}

} // namespace dgsim::telemetry
