/**
 * @file
 * Runs the full SPEC-proxy evaluation suite across the scheme x AP
 * matrix and prints the normalized-IPC table — a compact programmatic
 * tour of the library's top-level API (suite registry, runMatrix over
 * the paper's columns, SimResult).
 *
 * Usage: scheme_comparison [instructions-per-run]   (default 40000)
 */

#include <cstdio>
#include <cstdlib>

#include "runner/paper_matrix.hh"
#include "workloads/suite.hh"

int
main(int argc, char **argv)
{
    using namespace dgsim;
    using namespace dgsim::runner;

    const std::uint64_t instructions =
        argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 40000;

    const MatrixTable table = runMatrix(workloads::evaluationSuite(),
                                        paperColumns(instructions));
    const std::size_t unsafe = table.column("Unsafe");

    std::printf("%-14s %8s", "workload", "base-IPC");
    for (std::size_t col = unsafe + 1; col < table.labels.size(); ++col)
        std::printf(" %9s", table.labels[col].c_str());
    std::printf("\n");

    for (const MatrixRow &row : table.rows) {
        std::printf("%-14s %8.2f", row.workload.c_str(),
                    row.cells[unsafe].ipc);
        for (std::size_t col = unsafe + 1; col < table.labels.size(); ++col)
            std::printf(" %9.3f", normalizedIpc(row, col, unsafe));
        std::printf("\n");
    }

    std::printf("%-14s %8s", "GMEAN", "");
    for (std::size_t col = unsafe + 1; col < table.labels.size(); ++col)
        std::printf(" %9.3f", gmeanNormalizedIpc(table, col, unsafe));
    std::printf("\n");
    return 0;
}
