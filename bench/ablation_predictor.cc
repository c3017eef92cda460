/**
 * @file
 * Ablation: sensitivity of the Doppelganger gains to the address
 * predictor configuration (size, associativity, confidence threshold)
 * and to the doppelganger port policy. The paper deliberately uses a
 * simple 1024-entry, 8-way stride predictor "to deliver just the ground
 * performance level" (§5.1); this bench quantifies how much headroom a
 * larger/better predictor would have on the same kernels.
 *
 * Usage: ablation_predictor [instructions-per-run] [--threads N] [--retries N]
 */

#include "bench_common.hh"

namespace
{

/** Workloads whose doppelganger behaviour spans the interesting range. */
const char *const kWorkloads[] = {"bzip2", "libquantum", "hmmer", "mcf",
                                  "xalancbmk_s"};

} // namespace

int
main(int argc, char **argv)
{
    using namespace dgsim;
    using namespace dgsim::bench;

    const BenchArgs args = parseBenchArgs(argc, argv);
    std::printf("=== Ablation: predictor configuration (NDA-P+AP "
                "normalized to NDA-P), %llu instructions/run ===\n\n",
                static_cast<unsigned long long>(args.instructions));

    // NDA-P, then NDA-P+AP under each predictor variant.
    std::vector<runner::MatrixColumn> columns =
        runner::paperColumns(args.instructions, {"NDA-P", "NDA-P+AP"});
    const runner::MatrixColumn ap = columns.back();
    columns.pop_back();
    auto variant = [&](const char *name, unsigned entries, unsigned assoc,
                       unsigned confidence) {
        runner::MatrixColumn column = ap;
        column.label = name;
        column.config.predictorEntries = entries;
        column.config.predictorAssoc = assoc;
        column.config.predictorConfidenceThreshold = confidence;
        columns.push_back(column);
    };
    variant("64e/4w/c2", 64, 4, 2);
    variant("256e/8w/c2", 256, 8, 2);
    variant("1024e/8w/c2", 1024, 8, 2); // Table 1 configuration.
    variant("4096e/8w/c2", 4096, 8, 2);
    variant("1024e/8w/c0", 1024, 8, 0);
    variant("1024e/8w/c6", 1024, 8, 6);
    std::vector<workloads::WorkloadDef> suite;
    for (const char *name : kWorkloads)
        suite.push_back(workloads::findWorkload(name));
    const runner::MatrixTable table = benchMatrix(args, suite, columns);

    std::printf("%-14s", "workload");
    for (std::size_t col = 1; col < columns.size(); ++col)
        std::printf(" %12s", columns[col].label.c_str());
    std::printf("\n");

    for (const runner::MatrixRow &row : table.rows) {
        std::printf("%-14s", row.workload.c_str());
        for (std::size_t col = 1; col < columns.size(); ++col)
            std::printf(" %12.3f", runner::normalizedIpc(row, col, 0));
        std::printf("\n");
    }

    std::printf("\nColumns are speedup of NDA-P+AP over NDA-P with the "
                "given predictor (entries/ways/confidence threshold).\n"
                "Expected shape: gains saturate near the Table 1 point; "
                "confidence 0 attaches wrong predictions (replay cost), "
                "very high confidence loses coverage.\n");
    return 0;
}
