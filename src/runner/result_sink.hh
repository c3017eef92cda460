/**
 * @file
 * The one result format: a JobOutcome as one JSON line.
 *
 * dgrun's --jsonl output, completion journals, --merge and every
 * byte-compared determinism check use toJsonLine(); outcomeFromJson()
 * and readJsonl() read it back. Callers write outcomes in job-index
 * order, so the files are byte-identical regardless of the thread
 * count that executed the sweep.
 */

#ifndef DGSIM_RUNNER_RESULT_SINK_HH
#define DGSIM_RUNNER_RESULT_SINK_HH

#include <istream>
#include <string>
#include <vector>

#include "runner/json.hh"
#include "runner/sweep.hh"

namespace dgsim::runner
{

/**
 * Serialize one outcome as a single JSON line (no trailing newline):
 * job metadata, every SimResult scalar, and the full raw counters map
 * as a nested object.
 *
 * With @p host_metrics the line additionally carries a nested "host"
 * object (wall-clock seconds, KIPS, trace/watchdog metadata). Host
 * metrics differ from run to run by construction, so they default to
 * off and MUST stay off wherever output is byte-compared for
 * determinism (`--no-host-metrics`, the runner round-trip tests).
 */
std::string toJsonLine(const JobOutcome &outcome, bool host_metrics = false);

/**
 * Rebuild a JobOutcome from a parsed toJsonLine() record. Extra members
 * (the journal's "key"/"attempts" wrapper fields) are ignored; missing
 * ones, and numbers jsonU64()/jsonF64() reject, raise JsonParseError.
 */
JobOutcome outcomeFromJson(const JsonValue &record);

/** Parse toJsonLine() lines, one per line. Fatal on malformed input. */
std::vector<JobOutcome> readJsonl(std::istream &is);

} // namespace dgsim::runner

#endif // DGSIM_RUNNER_RESULT_SINK_HH
