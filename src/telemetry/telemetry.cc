#include "telemetry/telemetry.hh"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/linelog.hh"
#include "common/log.hh"
#include "runner/json.hh"
#include "telemetry/metrics.hh"
#include "telemetry/trace.hh"

namespace dgsim::telemetry
{
namespace detail
{

/**
 * The whole enabled-telemetry world. Forked workers inherit a copy:
 * the epoch stays shared (so timestamps align across processes) while
 * reopenForWorker() swaps the process-local pieces (event log, pid,
 * registry). The reporter thread exists only in the process that
 * called enable(); fork does not duplicate threads.
 */
struct TelemetryState
{
    TelemetryConfig config;
    std::chrono::steady_clock::time_point epoch;

    /** This process's event part file; null when tracing is off. */
    std::unique_ptr<LineLog> events;
    int pid = 0;
    unsigned workers = 0;
    bool finalized = false;

    MetricsRegistry *registry = nullptr;

    /** Guards sampler and reporterStop; held for a whole tick. */
    std::mutex reporterMutex;
    std::function<void()> sampler;
    bool reporterStop = false;
    std::condition_variable reporterCv;
    std::thread reporter;
};

std::atomic<TelemetryState *> g_state{nullptr};

namespace
{

/** Per-thread Perfetto track id, assigned on first span. */
std::atomic<std::uint64_t> g_nextTid{1};
thread_local std::uint64_t t_tid = 0;

std::uint64_t
threadTid()
{
    if (t_tid == 0)
        t_tid = g_nextTid.fetch_add(1, std::memory_order_relaxed);
    return t_tid;
}

std::string
mainEventPath(const TelemetryConfig &config)
{
    return config.tracePath + ".main.events";
}

std::string
workerEventPath(const TelemetryConfig &config, unsigned worker)
{
    return config.tracePath + ".w" + std::to_string(worker) + ".events";
}

/** One event, one LineLog record. Tracing is best-effort: a failed
 * write warns once and never stops the run. */
void
writeEvent(const LineLog &events, std::string line)
{
    if (const int err = events.append(std::move(line)))
        DGSIM_WARN_ONCE("telemetry event write failed: " +
                        std::string(std::strerror(err)));
}

/** Peak RSS in bytes: ru_maxrss is KiB on Linux. */
double
maxRssBytes()
{
    struct ::rusage self{};
    struct ::rusage children{};
    ::getrusage(RUSAGE_SELF, &self);
    ::getrusage(RUSAGE_CHILDREN, &children);
    const long kib = std::max(self.ru_maxrss, children.ru_maxrss);
    return static_cast<double>(kib) * 1024.0;
}

/**
 * The `--progress` line from the registry: `[campaign]` (plus steals
 * and live workers) once a coordinator publishes a job count, else
 * `[runner]` once runners do, else "". Rates are over uptime.
 */
std::string
heartbeatLine(const MetricsRegistry &registry, double uptime)
{
    const bool campaign = registry.value("dgsim_campaign_jobs_total") > 0.0;
    const double total = registry.value(
        campaign ? "dgsim_campaign_jobs_total" : "dgsim_runner_jobs_total");
    if (total <= 0.0)
        return "";
    const double done = std::min(
        registry.value(campaign ? "dgsim_campaign_jobs_done"
                                : "dgsim_runner_jobs_completed_total"),
        total);
    const double rate = uptime > 0.0 ? done / uptime : 0.0;
    // No completion yet means no rate to extrapolate: the ETA is
    // unknown, not zero.
    char eta[32] = "-";
    if (rate > 0.0 || done >= total)
        std::snprintf(eta, sizeof(eta), "%.0fs",
                      rate > 0.0 ? (total - done) / rate : 0.0);
    char tail[96] = "";
    if (campaign)
        std::snprintf(tail, sizeof(tail), ", %.0f stolen, %.0f worker(s) alive",
                      registry.value("dgsim_campaign_jobs_stolen"),
                      registry.value("dgsim_campaign_workers_alive"));
    char line[256];
    const int len = std::snprintf(
        line, sizeof(line),
        "[%s] heartbeat %.0f/%.0f jobs (%.1f%%), %.2f jobs/s, ETA %s, "
        "%.0f retried%s\n",
        campaign ? "campaign" : "runner", done, total, 100.0 * done / total,
        rate, eta,
        registry.value(campaign ? "dgsim_campaign_jobs_retried"
                                : "dgsim_jobs_retried_total"),
        tail);
    return len > 0 ? std::string(line, std::min<std::size_t>(
                                           len, sizeof(line) - 1))
                   : "";
}

/**
 * One reporter tick: the sampler publishes, then the snapshot (with
 * the host gauges sampled now) and the heartbeat read the registry.
 * The caller holds reporterMutex, so a ScopedSampler cannot uninstall
 * the hook while it runs.
 */
void
tick(TelemetryState &state, bool snapshot, bool heartbeat)
{
    if (state.sampler)
        state.sampler();
    MetricsRegistry &registry = *state.registry;
    const double uptime = nowMicros(state) * 1e-6;
    if (snapshot) {
        registry.set("dgsim_uptime_seconds", uptime);
        registry.set("dgsim_maxrss_bytes", maxRssBytes());
        registry.set("dgsim_kips",
                     uptime > 0.0 ? registry.value("dgsim_instructions_total") /
                                        uptime / 1000.0
                                  : 0.0);
        if (const double jobs = registry.value("dgsim_runner_jobs_total"))
            registry.set("dgsim_runner_queue_depth",
                         jobs - registry.value(
                                    "dgsim_runner_jobs_completed_total"));
        writeFileAtomic(state.config.metricsPath,
                        registry.renderPrometheus());
    }
    const std::string line = heartbeat ? heartbeatLine(registry, uptime) : "";
    if (line.empty())
        return;
    // One whole line, one fwrite: concurrent output never splits it.
    std::FILE *out =
        state.config.progressStream ? state.config.progressStream : stderr;
    std::fwrite(line.data(), 1, line.size(), out);
    std::fflush(out);
}

/** The reporter: ticks whenever the snapshot or the heartbeat is due,
 * each on its own period, until shutdown() stops it. */
void
reporterLoop(TelemetryState &state)
{
    const TelemetryConfig &config = state.config;
    const double never = std::numeric_limits<double>::infinity();
    // Uptime seconds at which each output is next due.
    double snapshotDue =
        !config.metricsPath.empty() && config.metricsPeriodSec > 0.0
            ? config.metricsPeriodSec
            : never;
    double heartbeatDue =
        config.progressPeriodSec > 0.0 ? config.progressPeriodSec : never;
    std::unique_lock<std::mutex> lock(state.reporterMutex);
    for (;;) {
        // Capped at an hour: the clock's nanosecond count overflows on
        // a far deadline (an infinite or huge period).
        const double wait = std::clamp(
            std::min(snapshotDue, heartbeatDue) - nowMicros(state) * 1e-6,
            0.0, 3600.0);
        if (state.reporterCv.wait_for(lock,
                                      std::chrono::duration<double>(wait),
                                      [&state] { return state.reporterStop; }))
            return;
        const double now = nowMicros(state) * 1e-6;
        const bool snapshot = now >= snapshotDue;
        const bool heartbeat = now >= heartbeatDue;
        if (snapshot)
            snapshotDue = now + config.metricsPeriodSec;
        if (heartbeat)
            heartbeatDue = now + config.progressPeriodSec;
        tick(state, snapshot, heartbeat);
    }
}

} // namespace

std::uint64_t
nowMicros(TelemetryState &state)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - state.epoch)
            .count());
}

void
emitSpan(TelemetryState &state, const char *name, const char *cat,
         std::uint64_t start_us, std::uint64_t end_us,
         const std::string &args)
{
    if (!state.events)
        return;
    std::string line;
    line.reserve(160 + args.size());
    line += "{\"name\":\"";
    line += name;
    line += "\",\"cat\":\"";
    line += cat;
    line += "\",\"ph\":\"X\",\"ts\":" + std::to_string(start_us) +
            ",\"dur\":" +
            std::to_string(end_us >= start_us ? end_us - start_us : 0) +
            ",\"pid\":" + std::to_string(state.pid) +
            ",\"tid\":" + std::to_string(threadTid()) + ",\"args\":{" +
            args + "}}";
    writeEvent(*state.events, std::move(line));
}

} // namespace detail

using detail::TelemetryState;

void
enable(const TelemetryConfig &config)
{
    if (enabled())
        DGSIM_FATAL("telemetry is already enabled in this process");
    auto *state = new TelemetryState;
    state->config = config;
    state->epoch = std::chrono::steady_clock::now();
    state->pid = static_cast<int>(::getpid());
    state->registry = new MetricsRegistry;
    if (!config.tracePath.empty()) {
        // A fresh trace: no earlier run's events, and no torn tail.
        const std::string path = detail::mainEventPath(config);
        ::unlink(path.c_str());
        state->events = std::make_unique<LineLog>(path);
    }
    detail::g_state.store(state, std::memory_order_release);
    emitProcessName("dgrun");

    if (!config.metricsPath.empty() || config.progressPeriodSec > 0.0)
        state->reporter = std::thread(detail::reporterLoop, std::ref(*state));
}

void
shutdown()
{
    TelemetryState *state =
        detail::g_state.load(std::memory_order_acquire);
    if (!state)
        return;
    if (state->reporter.joinable()) {
        {
            std::lock_guard<std::mutex> lock(state->reporterMutex);
            state->reporterStop = true;
        }
        state->reporterCv.notify_all();
        state->reporter.join();
    }
    {
        // Still published, so a sampler's metricSet() calls land.
        std::lock_guard<std::mutex> lock(state->reporterMutex);
        detail::tick(*state, !state->config.metricsPath.empty(),
                     state->config.progressPeriodSec > 0.0);
    }
    // Unpublish before teardown so in-flight instrumentation sites
    // (there are none by the time dgrun shuts down, but cheap
    // insurance) stop observing the state being destroyed.
    detail::g_state.store(nullptr, std::memory_order_release);
    delete state->registry;
    delete state;
}

void
reopenForWorker(unsigned worker)
{
    TelemetryState *state =
        detail::g_state.load(std::memory_order_acquire);
    if (!state)
        return;
    state->pid = static_cast<int>(::getpid());
    // Closes only this process's copy of the inherited descriptor. The
    // worker's own part file persists across recovery passes; the
    // previous pass's incarnation is dead, so no other process
    // appends to it.
    state->events.reset();
    if (!state->config.tracePath.empty())
        state->events = std::make_unique<LineLog>(
            detail::workerEventPath(state->config, worker));
    // The inherited registry's mutex may have been held by a parent
    // thread at fork time; locking it here could deadlock forever.
    // Replace it wholesale and deliberately leak the old object (a few
    // hundred bytes, once per worker) — destroying a locked mutex is
    // undefined behavior.
    state->registry = new MetricsRegistry;
    // The reporter thread did not survive the fork, and its mutex may
    // have been held mid-tick: workers never touch either, and _exit().
    emitProcessName("worker " + std::to_string(worker));
}

void
setWorkerCount(unsigned workers)
{
    TelemetryState *state =
        detail::g_state.load(std::memory_order_acquire);
    if (!state)
        return;
    state->workers = workers;
    if (state->config.tracePath.empty())
        return;
    // Stale part files from a previous incarnation of this campaign
    // carry timestamps from a dead epoch; a resumed campaign starts
    // its trace fresh, like the claims rotation.
    for (unsigned w = 0; w < workers; ++w)
        ::unlink(detail::workerEventPath(state->config, w).c_str());
}

std::string
finalizeTrace()
{
    TelemetryState *state =
        detail::g_state.load(std::memory_order_acquire);
    if (!state || state->config.tracePath.empty())
        return "";
    if (state->finalized)
        return state->config.tracePath;
    state->finalized = true;
    std::vector<std::string> parts;
    parts.push_back(detail::mainEventPath(state->config));
    for (unsigned w = 0; w < state->workers; ++w)
        parts.push_back(detail::workerEventPath(state->config, w));
    const std::size_t events =
        mergeTraceFiles(parts, state->config.tracePath);
    DGSIM_INFORM("telemetry: merged " + std::to_string(events) +
                 " event(s) from " + std::to_string(parts.size()) +
                 " part file(s) into " + state->config.tracePath);
    return state->config.tracePath;
}

void
emitProcessName(const std::string &name)
{
    TelemetryState *state =
        detail::g_state.load(std::memory_order_acquire);
    if (!state || !state->events)
        return;
    std::string line =
        "{\"name\":\"process_name\",\"cat\":\"__metadata\",\"ph\":\"M\","
        "\"ts\":0,\"dur\":0,\"pid\":" +
        std::to_string(state->pid) + ",\"tid\":0,\"args\":{\"name\":\"" +
        runner::jsonEscape(name) + "\"}}";
    detail::writeEvent(*state->events, std::move(line));
}

void
metricAdd(const std::string &name, double delta)
{
    TelemetryState *state =
        detail::g_state.load(std::memory_order_relaxed);
    if (state && state->registry)
        state->registry->add(name, delta);
}

void
metricSet(const std::string &name, double value)
{
    TelemetryState *state =
        detail::g_state.load(std::memory_order_relaxed);
    if (state && state->registry)
        state->registry->set(name, value);
}

double
metricValue(const std::string &name)
{
    TelemetryState *state =
        detail::g_state.load(std::memory_order_relaxed);
    return state && state->registry ? state->registry->value(name) : 0.0;
}

void
detail::setSampler(std::function<void()> sample)
{
    TelemetryState *state = g_state.load(std::memory_order_acquire);
    if (!state)
        return;
    std::lock_guard<std::mutex> lock(state->reporterMutex);
    state->sampler = std::move(sample);
}

void
ScopedSpan::arg(const char *key, const std::string &value)
{
    if (!state_)
        return;
    if (!args_.empty())
        args_ += ',';
    args_ += std::string("\"") + key + "\":\"" + runner::jsonEscape(value) +
             "\"";
}

void
ScopedSpan::arg(const char *key, std::uint64_t value)
{
    if (!state_)
        return;
    if (!args_.empty())
        args_ += ',';
    args_ += std::string("\"") + key + "\":" + std::to_string(value);
}

} // namespace dgsim::telemetry
