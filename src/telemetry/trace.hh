/**
 * @file
 * Chrome trace-event files: the JSONL part-file loader (a LineLog
 * reader, like the journal loader), the merger that folds per-process
 * part files into one strict-JSON trace-event document, and the strict
 * loader + validator the tests and `dgrun --report`/`--validate` use.
 */

#ifndef DGSIM_TELEMETRY_TRACE_HH
#define DGSIM_TELEMETRY_TRACE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dgsim::telemetry
{

/** One trace event. ph "X" = complete span, "M" = metadata. */
struct TraceEvent
{
    std::string name;
    std::string cat;
    std::string ph;
    std::uint64_t ts = 0;  ///< Microseconds since the campaign epoch.
    std::uint64_t dur = 0; ///< Microseconds ("X" spans; 0 for "M").
    std::uint64_t pid = 0;
    std::uint64_t tid = 0;
    /** Args flattened to text: strings verbatim, numbers as raw text,
     * booleans as "true"/"false". */
    std::map<std::string, std::string> args;
};

/**
 * Load one JSONL event part file. The torn final line of a worker
 * killed mid-emission is dropped (readLogLines); any malformed
 * complete line is fatal (corruption, not a crash). A missing file
 * yields an empty vector: a worker that died before its first span,
 * or a pass that never forked it.
 */
std::vector<TraceEvent> loadTraceEvents(const std::string &path);

/**
 * Merge @p partPaths (each loaded tolerantly, see above) into one
 * strict-JSON Chrome trace-event document at @p outPath, events
 * sorted by timestamp. Returns the merged event count.
 */
std::size_t mergeTraceFiles(const std::vector<std::string> &partPaths,
                            const std::string &outPath);

/**
 * Strictly parse a merged trace document (the whole file through the
 * runner JSON parser — trailing garbage, truncation or malformed
 * events all throw runner::JsonParseError).
 */
std::vector<TraceEvent> loadMergedTrace(const std::string &path);

/** Structural validation; returns "" when valid, else the violation. */
std::string validateTraceEvents(const std::vector<TraceEvent> &events);

} // namespace dgsim::telemetry

#endif // DGSIM_TELEMETRY_TRACE_HH
