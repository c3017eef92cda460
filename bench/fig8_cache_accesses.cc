/**
 * @file
 * Reproduces Figure 8: L1 and L2 access counts of each scheme with
 * address prediction, normalized to the same scheme without it. The
 * paper highlights xalancbmk's large L1 traffic increase (mispredicted
 * doppelgangers), omnetpp's ~10% L2 increase, and that bzip2/gcc gain
 * L1 accesses but not L2 accesses (correct predictions down the
 * hierarchy).
 *
 * Usage: fig8_cache_accesses [instructions-per-run] [--threads N] [--retries N]
 */

#include <iterator>
#include <utility>

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace dgsim;
    using namespace dgsim::bench;
    // Figure 8's three schemes, labelled as in Figures 1/6.
    const auto &schemes = paper::reference::kSchemeGmeans;

    const BenchArgs args = parseBenchArgs(argc, argv);
    std::printf("=== Figure 8: normalized L1/L2 accesses (+AP vs base "
                "scheme), %llu instructions/run ===\n\n",
                static_cast<unsigned long long>(args.instructions));

    const runner::MatrixTable table =
        benchMatrix(args, workloads::evaluationSuite(),
                    runner::paperColumns(args.instructions));

    const std::pair<const char *, std::uint64_t SimResult::*> levels[] = {
        {"L1", &SimResult::l1Accesses}, {"L2", &SimResult::l2Accesses}};
    for (const auto &[level, accesses] : levels) {
        std::printf("--- %s accesses, +AP normalized to base scheme ---\n",
                    level);
        std::printf("%-14s", "benchmark");
        for (const auto &scheme : schemes)
            std::printf(" %10s", scheme.schemeAp);
        std::printf("\n");
        std::vector<double> per_scheme[std::size(schemes)];
        for (const runner::MatrixRow &row : table.rows) {
            std::printf("%-14s", row.workload.c_str());
            for (std::size_t i = 0; i < std::size(schemes); ++i) {
                const std::uint64_t base =
                    row.cells[table.column(schemes[i].scheme)].*accesses;
                const std::uint64_t ap =
                    row.cells[table.column(schemes[i].schemeAp)].*accesses;
                // A run with no accesses at this level has no ratio:
                // it prints "-" and stays out of the GMEAN, as fig7
                // leaves out workloads that never predict.
                if (base == 0) {
                    std::printf(" %10s", "-");
                    continue;
                }
                const double value =
                    static_cast<double>(ap) / static_cast<double>(base);
                per_scheme[i].push_back(value);
                std::printf(" %10.3f", value);
            }
            std::printf("\n");
        }
        std::printf("%-14s", "GMEAN");
        for (const std::vector<double> &values : per_scheme)
            std::printf(" %10.3f", runner::geomean(values));
        std::printf("\n\n");
    }

    std::printf("Expected shape (paper): L1 traffic rises where accuracy "
                "is low (xalancbmk-class);\nL2 traffic stays ~flat where "
                "predictions are correct (bzip2/gcc-class).\n");
    return 0;
}
