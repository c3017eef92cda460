/**
 * @file
 * Shared command line of the figure and ablation benches, and the call
 * that runs their workload x column table (runner/paper_matrix.hh).
 */

#ifndef DGSIM_BENCH_BENCH_COMMON_HH
#define DGSIM_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <string>
#include <vector>

#include "common/buildinfo.hh"
#include "common/number.hh"
#include "paper/reference.hh"
#include "runner/paper_matrix.hh"
#include "workloads/suite.hh"

namespace dgsim::bench
{

/** Command-line knobs shared by every bench. */
struct BenchArgs
{
    std::uint64_t instructions = 100'000; ///< Per run; argv[1].
    runner::MatrixOptions matrix;         ///< --threads N, --retries N.
};

/**
 * Parse `[instructions] [--threads N] [--retries N]`: counts under
 * parseU64()'s rule. A malformed, zero (but for --retries) or too large
 * value exits 2 with a usage message instead of running something else.
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
    auto count = [&](const char *text, const std::string &what,
                     std::uint64_t min, std::uint64_t max) {
        const auto value = parseU64(text, max);
        if (!value || *value < min)
            fail(what + " must be an integer in [" + std::to_string(min) +
                 ", " + std::to_string(max) + "], got '" + text + "'");
        return *value;
    };

    constexpr unsigned kMaxUnsigned = std::numeric_limits<unsigned>::max();
    BenchArgs args;
    bool haveBudget = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if ((arg == "--threads" || arg == "--retries") && i + 1 >= argc)
            fail(arg + " needs an argument");
        if (arg == "--threads") {
            args.matrix.threads =
                static_cast<unsigned>(count(argv[++i], arg, 1, kMaxUnsigned));
        } else if (arg == "--retries") {
            // Zero is legal here: it means "fail fast". One attempt more
            // than the retries must still fit.
            args.matrix.retries = static_cast<unsigned>(
                count(argv[++i], arg, 0, kMaxUnsigned - 1));
        } else if (!haveBudget) {
            args.instructions =
                count(argv[i], "instruction budget", 1,
                      std::numeric_limits<std::uint64_t>::max());
            haveBudget = true;
        } else {
            fail("unexpected argument '" + arg + "'");
        }
    }
    return args;
}

/** runMatrix() with the bench's options. Wall time goes to stderr, so
    stdout does not depend on the thread count; a failed job exits 1. */
inline runner::MatrixTable
benchMatrix(const BenchArgs &args,
            const std::vector<workloads::WorkloadDef> &workloads,
            const std::vector<runner::MatrixColumn> &columns)
{
    try {
        runner::MatrixTable table =
            runner::runMatrix(workloads, columns, args.matrix);
        std::fprintf(stderr,
                     "  [suite] %zu jobs on %u thread(s): %.2fs (%s build)\n",
                     workloads.size() * columns.size(), args.matrix.threads,
                     table.seconds, buildinfo::kBuildType);
        return table;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        std::exit(1);
    }
}

} // namespace dgsim::bench

#endif // DGSIM_BENCH_BENCH_COMMON_HH
