/** @file Sweep, mock-result and heartbeat helpers shared by the
 * runner, campaign, coordinator and telemetry tests. */

#ifndef DGSIM_TESTS_SWEEP_FIXTURES_HH
#define DGSIM_TESTS_SWEEP_FIXTURES_HH

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/hash.hh"
#include "runner/paper_matrix.hh"
#include "runner/result_sink.hh"
#include "runner/sweep.hh"
#include "telemetry/telemetry.hh"
#include "workloads/suite.hh"

namespace dgsim::runner
{

/** A small but real sweep: 2 L1-resident workloads x the paper's eight
    columns, in the paper run shape. */
inline SweepSpec
smallSpec(std::uint64_t instructions)
{
    return {{workloads::findWorkload("gobmk"),
             workloads::findWorkload("h264ref")},
            evaluationConfigs(paperRunConfig(instructions))};
}

/**
 * A deterministic mock result keyed on job *identity*, never on
 * job.index: shard runs re-index their jobs 0..n-1, so an index-keyed
 * mock would fabricate different results per shard and void the byte
 * comparison.
 */
inline SimResult
identityMockResult(const Job &job)
{
    const std::string identity = job.workload + "/" + job.config.label();
    const std::uint64_t hash = fnv1a(identity.data(), identity.size());
    SimResult result;
    result.workload = job.workload;
    result.configLabel = job.config.label();
    result.cycles = 1000 + hash % 1000;
    result.instructions = 500 + hash % 500;
    result.ipc = 0.5;
    return result;
}

/** @p outcomes as dgrun --jsonl writes them (no host metrics). */
inline std::string
jsonlOf(const std::vector<JobOutcome> &outcomes)
{
    std::string text;
    for (const JobOutcome &outcome : outcomes)
        text += toJsonLine(outcome) + "\n";
    return text;
}

/**
 * Telemetry enabled with @p config for one test, its heartbeat stream
 * a temporary file; shut down however the test ends.
 */
class HeartbeatCapture
{
  public:
    explicit HeartbeatCapture(telemetry::TelemetryConfig config)
        : stream_(std::tmpfile())
    {
        if (!stream_)
            throw std::runtime_error("tmpfile() failed");
        config.progressStream = stream_;
        telemetry::enable(config);
    }

    ~HeartbeatCapture()
    {
        telemetry::shutdown();
        std::fclose(stream_);
    }

    HeartbeatCapture(const HeartbeatCapture &) = delete;
    HeartbeatCapture &operator=(const HeartbeatCapture &) = delete;

    /** True once the reporter has written any heartbeat line. */
    bool
    written()
    {
        return std::ftell(stream_) > 0;
    }

    /** Shut telemetry down (its final tick writes the last line), then
        return every line written, each with its '\n'. */
    std::vector<std::string>
    lines()
    {
        telemetry::shutdown();
        std::rewind(stream_);
        std::vector<std::string> lines;
        char buffer[256];
        while (std::fgets(buffer, sizeof(buffer), stream_))
            lines.push_back(buffer);
        return lines;
    }

  private:
    std::FILE *stream_;
};

} // namespace dgsim::runner

#endif // DGSIM_TESTS_SWEEP_FIXTURES_HH
