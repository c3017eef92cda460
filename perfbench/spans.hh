/**
 * @file
 * In-memory span recorder for dgbench's traced run.
 *
 * Spans sit in the benchmark's own code, around each call it makes into
 * a dgsim layer. They are kept in memory while the run executes and
 * written once, at the end, as a Chrome trace-event document that
 * Perfetto loads. A layer's self time is its span minus the spans
 * directly nested in it.
 */

#ifndef DGBENCH_SPANS_HH
#define DGBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "runner/json.hh"
#include "telemetry/trace.hh"

namespace dgbench
{

/** Nanoseconds on the steady clock since the first call. */
inline std::int64_t
nowNs()
{
    using namespace std::chrono;
    static const steady_clock::time_point epoch = steady_clock::now();
    return duration_cast<nanoseconds>(steady_clock::now() - epoch).count();
}

/** One recorded call into a layer. */
struct Span
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    int parent = -1;        ///< Index of the enclosing span, -1 at top.
    std::uint64_t job = 0;  ///< Job (or candidate) the span belongs to.
    std::uint64_t ops = 0;  ///< Operations covered (replays, instructions).
};

/** Summed durations of every span with one name. */
struct SpanTotal
{
    double ns = 0.0;
    std::uint64_t count = 0;
    std::uint64_t ops = 0;

    double meanMs() const { return count == 0 ? 0.0 : ns / count / 1e6; }
    double nsPerOp() const { return ops == 0 ? 0.0 : ns / ops; }
};

/**
 * Single-threaded span recorder. Every traced call runs on the
 * benchmark's main thread, so spans nest strictly and need no lock.
 */
class Tracer
{
  public:
    int
    open(const std::string &name, std::uint64_t job, std::uint64_t ops)
    {
        Span span;
        span.name = name;
        span.parent = stack_.empty() ? -1 : stack_.back();
        span.job = job;
        span.ops = ops;
        span.startNs = nowNs();
        spans_.push_back(std::move(span));
        stack_.push_back(static_cast<int>(spans_.size() - 1));
        return stack_.back();
    }

    void
    close(int id)
    {
        spans_[id].endNs = nowNs();
        stack_.pop_back();
    }

    /** Record the operation count once it is known (after the call). */
    void setOps(int id, std::uint64_t ops) { spans_[id].ops = ops; }

    const std::vector<Span> &spans() const { return spans_; }

    SpanTotal
    total(const std::string &name) const
    {
        SpanTotal sum;
        for (const Span &span : spans_) {
            if (span.name != name)
                continue;
            sum.ns += static_cast<double>(span.endNs - span.startNs);
            ++sum.count;
            sum.ops += span.ops;
        }
        return sum;
    }

    /** Per span: its duration minus its direct children's durations. */
    std::vector<std::int64_t>
    selfTimes() const
    {
        std::vector<std::int64_t> self(spans_.size());
        for (std::size_t i = 0; i < spans_.size(); ++i)
            self[i] = spans_[i].endNs - spans_[i].startNs;
        for (const Span &span : spans_) {
            if (span.parent >= 0)
                self[span.parent] -= span.endNs - span.startNs;
        }
        return self;
    }

    /**
     * Write the spans as a Chrome trace-event document at
     * @p dir/@p stem.json through the telemetry merger, then load it
     * back strictly and validate it with the checks
     * `dgrun --validate-telemetry` runs. Returns "" when valid.
     */
    std::string
    writeChromeTrace(const std::string &dir, const std::string &stem,
                     const std::string &process) const
    {
        const std::string part = dir + "/" + stem + ".part.jsonl";
        const std::string path = dir + "/" + stem + ".json";
        {
            std::ofstream out(part, std::ios::trunc);
            out << "{\"name\":\"process_name\",\"cat\":\"__metadata\","
                   "\"ph\":\"M\",\"ts\":0,\"pid\":1,\"tid\":1,\"args\":"
                   "{\"name\":\""
                << dgsim::runner::jsonEscape(process) << "\"}}\n";
            for (std::size_t i = 0; i < spans_.size(); ++i) {
                const Span &span = spans_[i];
                out << "{\"name\":\"" << dgsim::runner::jsonEscape(span.name)
                    << "\",\"cat\":\"dgbench\",\"ph\":\"X\",\"ts\":"
                    << span.startNs / 1000
                    << ",\"dur\":" << (span.endNs - span.startNs) / 1000
                    << ",\"pid\":1,\"tid\":1,\"args\":{\"span\":" << i
                    << ",\"parent\":" << span.parent
                    << ",\"job\":" << span.job << ",\"ops\":" << span.ops
                    << "}}\n";
            }
            if (!out)
                return "cannot write " + part;
        }
        const std::size_t merged =
            dgsim::telemetry::mergeTraceFiles({part}, path);
        std::filesystem::remove(part);
        try {
            const std::vector<dgsim::telemetry::TraceEvent> events =
                dgsim::telemetry::loadMergedTrace(path);
            if (events.size() != merged || merged != spans_.size() + 1)
                return "trace event count mismatch in " + path;
            return dgsim::telemetry::validateTraceEvents(events);
        } catch (const dgsim::runner::JsonParseError &e) {
            return std::string("trace does not parse: ") + e.what();
        }
    }

  private:
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span; a null recorder records nothing. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, const std::string &name,
               std::uint64_t job = 0, std::uint64_t ops = 0)
        : tracer_(tracer), id_(tracer ? tracer->open(name, job, ops) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (tracer_)
            tracer_->close(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    void
    setOps(std::uint64_t ops)
    {
        if (tracer_)
            tracer_->setOps(id_, ops);
    }

  private:
    Tracer *tracer_;
    int id_;
};

} // namespace dgbench

#endif // DGBENCH_SPANS_HH
