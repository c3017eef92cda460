/**
 * @file
 * Reproduces Figure 7: per-benchmark coverage (correctly predicted
 * committed loads / all committed loads) and accuracy (correct /
 * verified predictions) of the address predictor under DoM+AP. The
 * paper reports ~35% geomean coverage, typically >=90% accuracy, with
 * outliers like mcf (9% coverage) and xalancbmk_s (~60% accuracy).
 *
 * The paper notes coverage/accuracy are within 1% across the three
 * schemes; this bench also prints NDA-P+AP as a cross-check.
 *
 * Usage: fig7_coverage_accuracy [instructions-per-run] [--threads N]
 *                               [--retries N]
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace dgsim;
    using namespace dgsim::bench;
    namespace reference = paper::reference;

    const BenchArgs args = parseBenchArgs(argc, argv);
    std::printf("=== Figure 7: address-predictor coverage & accuracy "
                "(DoM+AP), %llu instructions/run ===\n\n",
                static_cast<unsigned long long>(args.instructions));

    const runner::MatrixTable table = benchMatrix(
        args, workloads::evaluationSuite(),
        runner::paperColumns(args.instructions, {"DoM+AP", "NDA-P+AP"}));

    std::printf("%-14s %-9s %10s %10s | %10s %10s\n", "benchmark", "suite",
                "coverage", "accuracy", "cov(NDA)", "acc(NDA)");

    std::vector<double> coverages;
    std::vector<double> accuracies;
    for (const runner::MatrixRow &row : table.rows) {
        const SimResult &dom = row.cells[0];
        const SimResult &nda = row.cells[1];
        std::printf("%-14s %-9s %9.1f%% %9.1f%% | %9.1f%% %9.1f%%\n",
                    row.workload.c_str(), row.suite.c_str(),
                    100.0 * dom.dgCoverage, 100.0 * dom.dgAccuracy,
                    100.0 * nda.dgCoverage, 100.0 * nda.dgAccuracy);
        if (dom.dgCoverage > 0.0)
            coverages.push_back(dom.dgCoverage);
        if (dom.dgAccuracy > 0.0)
            accuracies.push_back(dom.dgAccuracy);
    }

    std::printf("\nGMEAN coverage (predicting workloads): %.1f%%  "
                "(paper: ~%.0f%% with max %.0f%%)\n",
                100.0 * runner::geomean(coverages),
                100.0 * reference::kCoverageGmean,
                100.0 * reference::kCoverageMax);
    std::printf("GMEAN accuracy (predicting workloads): %.1f%%  "
                "(paper: typically >=%.0f%%)\n",
                100.0 * runner::geomean(accuracies),
                100.0 * reference::kAccuracyTypical);
    return 0;
}
