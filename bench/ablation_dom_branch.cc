/**
 * @file
 * Ablation: the cost of the DoM+AP in-order branch-resolution rule
 * (paper §4.6). DoM with Doppelganger Loads must resolve branches in
 * order, or the doppelganger misses form an implicit channel that leaks
 * (see tests/security_leak_test.cc for the leak demonstration). This
 * bench quantifies what that security fix costs in performance by
 * comparing DoM+AP against the intentionally-insecure eager variant.
 *
 * Usage: ablation_dom_branch [instructions-per-run] [--threads N] [--retries N]
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace dgsim;
    using namespace dgsim::bench;
    using runner::normalizedIpc;

    const BenchArgs args = parseBenchArgs(argc, argv);
    std::printf("=== Ablation: DoM+AP in-order branch resolution (§4.6), "
                "%llu instructions/run ===\n\n",
                static_cast<unsigned long long>(args.instructions));

    std::vector<runner::MatrixColumn> columns =
        runner::paperColumns(args.instructions, {"DoM", "DoM+AP"});
    runner::MatrixColumn eager = columns[1];
    eager.label = "DoM+AP-eager";
    eager.config.domEagerBranchResolution = true;
    columns.push_back(eager);
    const runner::MatrixTable table =
        benchMatrix(args, workloads::evaluationSuite(), columns);

    std::printf("%-14s %10s %12s %14s %10s\n", "benchmark", "DoM",
                "DoM+AP", "DoM+AP-eager", "fix cost");

    for (const runner::MatrixRow &row : table.rows) {
        const double fixed_norm = normalizedIpc(row, 1, 0);
        const double eager_norm = normalizedIpc(row, 2, 0);
        std::printf("%-14s %10.3f %12.3f %14.3f %9.1f%%\n",
                    row.workload.c_str(), 1.0, fixed_norm, eager_norm,
                    100.0 * (eager_norm - fixed_norm));
    }

    const double in_order = runner::gmeanNormalizedIpc(table, 1, 0);
    const double eager_gmean = runner::gmeanNormalizedIpc(table, 2, 0);
    std::printf("\nGMEAN: in-order %.3f, eager (INSECURE) %.3f -> the "
                "security rule costs %.1f%% on DoM+AP.\n",
                in_order, eager_gmean, 100.0 * (eager_gmean - in_order));
    return 0;
}
