/**
 * @file
 * Pluggable serialization sinks for experiment results.
 *
 * Sinks receive outcomes in deterministic job-index order, so the files
 * they produce are byte-identical regardless of the thread count that
 * executed the sweep. JSONL lines read back through outcomeFromJson()
 * (journals, --merge); CSV is write-only output.
 */

#ifndef DGSIM_RUNNER_RESULT_SINK_HH
#define DGSIM_RUNNER_RESULT_SINK_HH

#include <istream>
#include <ostream>
#include <vector>

#include "runner/json.hh"
#include "runner/sweep.hh"

namespace dgsim::runner
{

/** Consumer of a sweep's outcomes, fed in job-index order. */
class ResultSink
{
  public:
    virtual ~ResultSink() = default;

    /** Accept the next outcome (called sequentially, index order). */
    virtual void consume(const JobOutcome &outcome) = 0;

    /** Flush; called once after the last outcome. */
    virtual void finish() {}
};

/**
 * One JSON object per line: job metadata, every SimResult scalar, and
 * the full raw counters map as a nested object.
 *
 * With @p host_metrics the line additionally carries a nested "host"
 * object (wall-clock seconds, KIPS, trace/watchdog metadata). Host
 * metrics differ from run to run by construction, so they default to
 * off and MUST stay off wherever sink output is byte-compared for
 * determinism (`dgrun --verify`, the runner round-trip tests).
 */
class JsonlSink : public ResultSink
{
  public:
    explicit JsonlSink(std::ostream &os, bool host_metrics = false)
        : os_(os), host_metrics_(host_metrics)
    {
    }

    void consume(const JobOutcome &outcome) override;

  private:
    std::ostream &os_;
    bool host_metrics_;
};

/**
 * RFC-4180-style CSV. The counter columns are the sorted union of every
 * row's counter names ("counter:<name>"), so rows are buffered and the
 * file is written in finish(). A counter absent from a row serializes
 * as an empty cell, distinguishing "never registered" from zero.
 */
class CsvSink : public ResultSink
{
  public:
    explicit CsvSink(std::ostream &os) : os_(os) {}

    void consume(const JobOutcome &outcome) override;
    void finish() override;

  private:
    std::ostream &os_;
    std::vector<JobOutcome> rows_;
};

/** Serialize one outcome as a single JSON line (no trailing newline). */
std::string toJsonLine(const JobOutcome &outcome, bool host_metrics = false);

/**
 * Rebuild a JobOutcome from a parsed toJsonLine() record. Extra members
 * (the journal's "key"/"attempts" wrapper fields) are ignored; missing
 * ones raise JsonParseError. Malformed numerics are fatal.
 */
JobOutcome outcomeFromJson(const JsonValue &record);

/** Parse everything a JsonlSink wrote. Fatal on malformed input. */
std::vector<JobOutcome> readJsonl(std::istream &is);

} // namespace dgsim::runner

#endif // DGSIM_RUNNER_RESULT_SINK_HH
