/**
 * @file
 * Shared harness for the figure/table reproduction benches: runs the
 * SPEC-proxy suite over the scheme x AP matrix (through the parallel
 * experiment runner) and folds results into per-workload rows.
 */

#ifndef DGSIM_BENCH_BENCH_COMMON_HH
#define DGSIM_BENCH_BENCH_COMMON_HH

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "common/buildinfo.hh"
#include "runner/experiment_runner.hh"
#include "runner/sweep.hh"
#include "sim/simulator.hh"
#include "workloads/suite.hh"

namespace dgsim::bench
{

/** Results of one workload across all evaluated configurations. */
struct WorkloadRow
{
    std::string name;
    std::string suite;
    /** Keyed by config label ("Unsafe", "NDA-P+AP", ...). */
    std::map<std::string, SimResult> byConfig;
};

/** Default per-run instruction budget (override with argv[1]). */
constexpr std::uint64_t kDefaultInstructions = 100'000;

/** Command-line knobs shared by every bench. */
struct BenchArgs
{
    std::uint64_t instructions = kDefaultInstructions;
    unsigned threads = 1;
    /** Transient-failure retries per job (figure campaigns are long
        enough for host hiccups to matter; sim errors never retry). */
    unsigned retries = 2;
};

/**
 * Parse `[instructions] [--threads N] [--retries N]` from the command
 * line.
 *
 * Malformed or zero values are rejected with a usage message instead of
 * silently turning into a 0-instruction run (strtoull's default).
 */
inline BenchArgs
parseBenchArgs(int argc, char **argv)
{
    auto fail = [&](const std::string &msg) {
        std::fprintf(stderr,
                     "%s: %s\nusage: %s [instructions-per-run] "
                     "[--threads N] [--retries N]\n",
                     argv[0], msg.c_str(), argv[0]);
        std::exit(2);
    };
    auto parsePositive = [&](const char *text,
                             const char *what) -> std::uint64_t {
        errno = 0;
        char *end = nullptr;
        const std::uint64_t value = std::strtoull(text, &end, 10);
        if (*text == '\0' || *end != '\0' || errno == ERANGE || value == 0)
            fail(std::string(what) + " must be a positive integer, got '" +
                 text + "'");
        return value;
    };

    BenchArgs args;
    bool haveBudget = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--threads") {
            if (i + 1 >= argc)
                fail("--threads needs an argument");
            args.threads = static_cast<unsigned>(
                parsePositive(argv[++i], "--threads"));
        } else if (arg == "--retries") {
            if (i + 1 >= argc)
                fail("--retries needs an argument");
            // Zero is legal here: it means "fail fast".
            const char *text = argv[++i];
            errno = 0;
            char *end = nullptr;
            const std::uint64_t value = std::strtoull(text, &end, 10);
            if (*text == '\0' || *end != '\0' || errno == ERANGE)
                fail(std::string("--retries must be a non-negative "
                                 "integer, got '") + text + "'");
            args.retries = static_cast<unsigned>(value);
        } else if (!haveBudget) {
            args.instructions = parsePositive(arg.c_str(),
                                              "instruction budget");
            haveBudget = true;
        } else {
            fail("unexpected argument '" + arg + "'");
        }
    }
    return args;
}

/** Parse the instruction budget from the command line (validated). */
inline std::uint64_t
instructionBudget(int argc, char **argv)
{
    return parseBenchArgs(argc, argv).instructions;
}

/**
 * Run the whole suite over the 8-config evaluation matrix on
 * @p threads worker threads. Row/column order (and therefore all
 * stdout produced from the rows) is independent of the thread count;
 * wall-clock goes to stderr.
 */
inline std::vector<WorkloadRow>
runSuiteMatrix(std::uint64_t instructions, unsigned threads = 1,
               unsigned retries = 2)
{
    SimConfig base;
    base.maxInstructions = instructions;
    base.maxCycles = instructions * 200;
    // Measure the warmed region only: caches, predictors and branch
    // history settle during the first third of the run.
    base.warmupInstructions = instructions / 3;

    runner::RunnerOptions options;
    options.threads = threads;
    // Retry transient host failures; deterministic sim errors still
    // fail the bench immediately (the runner never retries those).
    options.maxAttempts = retries + 1;
    runner::ExperimentRunner runner(options);

    const auto start = std::chrono::steady_clock::now();
    const std::vector<runner::JobOutcome> outcomes =
        runner.run(runner::SweepSpec::evaluationMatrix(base));
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    std::fprintf(stderr,
                 "  [suite] %zu jobs on %u thread(s): %.2fs (%s build)\n",
                 outcomes.size(), runner.threads(), elapsed.count(),
                 buildinfo::kBuildType);

    // Fold the flat outcome list back into per-workload rows. Outcomes
    // arrive in expansion order (workloads outer), so rows keep the
    // suite's presentation order.
    std::vector<WorkloadRow> rows;
    for (const runner::JobOutcome &outcome : outcomes) {
        if (!outcome.ok) {
            std::fprintf(stderr, "%s under %s failed: %s\n",
                         outcome.workload.c_str(),
                         outcome.configLabel.c_str(), outcome.error.c_str());
            std::exit(1);
        }
        if (rows.empty() || rows.back().name != outcome.workload) {
            WorkloadRow row;
            row.name = outcome.workload;
            row.suite = outcome.suite;
            rows.push_back(std::move(row));
        }
        rows.back().byConfig[outcome.configLabel] = outcome.result;
    }
    return rows;
}

/** Geometric mean over a vector of positive values. */
inline double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

/** Normalized IPC of one config against the unsafe no-AP baseline. */
inline double
normalizedIpc(const WorkloadRow &row, const std::string &label)
{
    const double base = row.byConfig.at("Unsafe").ipc;
    return base == 0.0 ? 0.0 : row.byConfig.at(label).ipc / base;
}

} // namespace dgsim::bench

#endif // DGSIM_BENCH_BENCH_COMMON_HH
