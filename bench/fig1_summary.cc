/**
 * @file
 * Reproduces the Figure 1 headline numbers: geometric-mean normalized
 * performance of NDA-P, STT and DoM with and without Doppelganger
 * Loads, and the resulting reduction of the mean slowdown (paper: 42%,
 * 48% and 30% respectively).
 *
 * Usage: fig1_summary [instructions-per-run] [--threads N] [--retries N]
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace dgsim;
    using namespace dgsim::bench;
    using runner::gmeanNormalizedIpc;

    const BenchArgs args = parseBenchArgs(argc, argv);
    std::printf("=== Figure 1: headline summary, %llu instructions/run "
                "===\n\n",
                static_cast<unsigned long long>(args.instructions));

    const runner::MatrixTable table =
        benchMatrix(args, workloads::evaluationSuite(),
                    runner::paperColumns(args.instructions));
    const std::size_t unsafe = table.column("Unsafe");

    // Share of the slowdown that AP wins back, in percent.
    auto reduced = [](double base, double ap) {
        const double slowdown = 1.0 - base;
        return slowdown <= 0.0 ? 0.0
                               : 100.0 * (slowdown - (1.0 - ap)) / slowdown;
    };
    std::printf("%-8s %10s %10s %18s %14s\n", "scheme", "base", "+AP",
                "slowdown reduced", "paper");
    for (const paper::reference::SchemeGmean &paper :
         paper::reference::kSchemeGmeans) {
        const double base =
            gmeanNormalizedIpc(table, table.column(paper.scheme), unsafe);
        const double ap =
            gmeanNormalizedIpc(table, table.column(paper.schemeAp), unsafe);
        std::printf("%-8s %10.3f %10.3f %17.1f%% %8.3f->%5.3f (%.0f%%)\n",
                    paper.scheme, base, ap, reduced(base, ap), paper.base,
                    paper.ap, reduced(paper.base, paper.ap));
    }

    std::printf("\nUnsafe baseline + AP: %.3f (paper: ~%.3f, \"a geomean "
                "performance improvement of 0.5%%\")\n",
                gmeanNormalizedIpc(table, table.column("Unsafe+AP"), unsafe),
                paper::reference::kUnsafeApGmean);
    return 0;
}
