/**
 * @file
 * Fleet telemetry: hierarchical span tracing + host metric counters
 * for the campaign/runner layer (DESIGN.md §11).
 *
 * Everything here is host-side observability: no simulated counter,
 * stats dump, journal or result line ever changes with telemetry on or
 * off (golden dumps and journals stay byte-identical — enforced by
 * telemetry_test and the CI campaign smoke). The disabled path is one
 * relaxed atomic load per instrumentation site.
 *
 * Spans form the hierarchy campaign → worker → job → phase
 * (expand / ffwd-warm / detailed-window / retry-backoff /
 * journal-append / steal / recovery). Each closed span becomes one
 * Chrome trace-event "X" line appended to a per-process event part
 * file, a LineLog (common/linelog.hh), so spans survive worker _exit
 * and concurrent writers never interleave.
 * finalizeTrace() merges the per-process files into one strict-JSON
 * trace-event document Perfetto loads directly, exactly like worker
 * journals merge into one result set.
 *
 * One reporter thread per process ticks on a clock: the sampler hook
 * (ScopedSampler), then the `--metrics` snapshot and the `--progress`
 * heartbeat line, both read from the metrics registry.
 */

#ifndef DGSIM_TELEMETRY_TELEMETRY_HH
#define DGSIM_TELEMETRY_TELEMETRY_HH

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>

namespace dgsim::telemetry
{

/** What `dgrun --telemetry/--metrics/--progress` enables. */
struct TelemetryConfig
{
    /** Merged Chrome trace-event JSON output ("" = tracing off). */
    std::string tracePath;
    /** Prometheus-text snapshot file ("" = metrics off). */
    std::string metricsPath;
    /** Snapshot period in seconds (0 = only the final snapshot). */
    double metricsPeriodSec = 5.0;
    /** Heartbeat period in seconds (0 = no heartbeat). */
    double progressPeriodSec = 0.0;
    /** Heartbeat destination; null = stderr (tests inject a tmpfile). */
    std::FILE *progressStream = nullptr;
};

namespace detail
{
struct TelemetryState;
/** Null when telemetry is off — the single disabled-path branch. */
extern std::atomic<TelemetryState *> g_state;
std::uint64_t nowMicros(TelemetryState &state);
void emitSpan(TelemetryState &state, const char *name, const char *cat,
              std::uint64_t start_us, std::uint64_t end_us,
              const std::string &args);
void setSampler(std::function<void()> sample);
} // namespace detail

/** True while telemetry is enabled (one relaxed load). */
inline bool
enabled()
{
    return detail::g_state.load(std::memory_order_relaxed) != nullptr;
}

/**
 * Turn telemetry on for this process. Starts this process's event
 * part file afresh (unlinks, then opens it); captures the monotonic epoch all timestamps (including
 * forked workers', which inherit it) are measured from; starts the
 * reporter when the config asks for snapshots or a heartbeat. Fatal
 * when already enabled — nesting would corrupt the epoch.
 */
void enable(const TelemetryConfig &config);

/**
 * Join the reporter, run a final tick (a run shorter than a period
 * still reports), close the event file, disable. No-op when disabled.
 */
void shutdown();

/**
 * Post-fork worker setup: redirect span output to the worker's own
 * event part file (appends across recovery passes), refresh
 * the cached pid, replace the metrics registry wholesale (the
 * inherited one's mutex may have been mid-lock at fork), and emit the
 * Perfetto process-name metadata for this worker's track. No-op when
 * telemetry is off.
 */
void reopenForWorker(unsigned worker);

/**
 * Parent-side campaign setup: record how many worker part files
 * finalizeTrace() must merge and unlink stale ones from a previous
 * incarnation of the campaign (their timestamps belong to a dead
 * epoch). No-op when telemetry is off.
 */
void setWorkerCount(unsigned workers);

/**
 * Merge the per-process event part files into the configured trace
 * path as one strict-JSON Chrome trace-event document. Tolerates a
 * truncated final line per part file (a killed worker's artifact).
 * Returns the merged path, or "" when tracing is off. Idempotent —
 * only the first call merges.
 */
std::string finalizeTrace();

/** Emit Perfetto "process_name" metadata for this process's track. */
void emitProcessName(const std::string &name);

// --- Metric counters/gauges (no-ops when disabled) ---------------------

/** Add @p delta to counter @p name (Prometheus name, labels inline). */
void metricAdd(const std::string &name, double delta = 1.0);

/** Set gauge @p name to @p value. */
void metricSet(const std::string &name, double value);

/** Current value of @p name (0 when absent or disabled). */
double metricValue(const std::string &name);

/**
 * Installs a sampler hook for its lifetime: each reporter tick runs it
 * first, so that tick's snapshot and heartbeat read what it publishes.
 * One at a time; both ends wait out a running tick. Inert when off.
 */
class ScopedSampler
{
  public:
    explicit ScopedSampler(std::function<void()> sample)
    {
        detail::setSampler(std::move(sample));
    }
    ~ScopedSampler() { detail::setSampler(nullptr); }

    ScopedSampler(const ScopedSampler &) = delete;
    ScopedSampler &operator=(const ScopedSampler &) = delete;
};

/**
 * RAII span. Construction stamps the start, destruction emits one
 * trace-event line; both are no-ops when telemetry is off. arg()
 * attaches key/value pairs shown in the Perfetto slice details.
 * A null @p name makes the span inert — the conditional-span idiom
 * (`ScopedSpan s(stolen ? "steal" : nullptr, "phase")`).
 */
class ScopedSpan
{
  public:
    ScopedSpan(const char *name, const char *cat)
        : state_(name ? detail::g_state.load(std::memory_order_relaxed)
                      : nullptr)
    {
        if (!state_)
            return;
        name_ = name;
        cat_ = cat;
        startUs_ = detail::nowMicros(*state_);
    }

    ~ScopedSpan()
    {
        if (state_)
            detail::emitSpan(*state_, name_, cat_, startUs_,
                             detail::nowMicros(*state_), args_);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    void arg(const char *key, const std::string &value);
    void arg(const char *key, std::uint64_t value);

  private:
    detail::TelemetryState *state_;
    const char *name_ = nullptr;
    const char *cat_ = nullptr;
    std::uint64_t startUs_ = 0;
    std::string args_; ///< Pre-rendered `"k":"v"` members, comma-joined.
};

} // namespace dgsim::telemetry

#endif // DGSIM_TELEMETRY_TELEMETRY_HH
