/**
 * @file
 * Reproduces Figure 6 of the paper: per-benchmark IPC of NDA-P, STT and
 * DoM, with and without Doppelganger Loads (address prediction),
 * normalized to the unsafe baseline; plus the Unsafe+AP column the text
 * discusses (expected to be close to 1.0) and the GMEAN row.
 *
 * Usage: fig6_normalized_ipc [instructions-per-run] [--threads N] [--retries N]
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace dgsim;
    using namespace dgsim::bench;

    const BenchArgs args = parseBenchArgs(argc, argv);
    std::printf("=== Figure 6: normalized IPC (baseline = 1.000), %llu "
                "instructions/run ===\n\n",
                static_cast<unsigned long long>(args.instructions));

    const runner::MatrixTable table =
        benchMatrix(args, workloads::evaluationSuite(),
                    runner::paperColumns(args.instructions));
    const std::size_t unsafe = table.column("Unsafe");

    std::printf("%-14s %-9s", "benchmark", "suite");
    for (std::size_t col = unsafe + 1; col < table.labels.size(); ++col)
        std::printf(" %9s", table.labels[col].c_str());
    std::printf("\n");

    for (const runner::MatrixRow &row : table.rows) {
        std::printf("%-14s %-9s", row.workload.c_str(), row.suite.c_str());
        for (std::size_t col = unsafe + 1; col < table.labels.size(); ++col)
            std::printf(" %9.3f", runner::normalizedIpc(row, col, unsafe));
        std::printf("\n");
    }

    std::printf("%-14s %-9s", "GMEAN", "");
    for (std::size_t col = unsafe + 1; col < table.labels.size(); ++col)
        std::printf(" %9.3f", runner::gmeanNormalizedIpc(table, col, unsafe));
    std::printf("\n");

    std::printf("\nPaper reference (GMEAN):");
    for (const paper::reference::SchemeGmean &paper :
         paper::reference::kSchemeGmeans)
        std::printf(" %s %.3f -> +AP %.3f |", paper.scheme, paper.base,
                    paper.ap);
    std::printf(" Unsafe+AP ~%.3f\n", paper::reference::kUnsafeApGmean);
    return 0;
}
