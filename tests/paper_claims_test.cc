/**
 * @file
 * The paper's headline claims as executable checks.
 *
 * Runs the paper matrix (all 25 proxies under the 8 (scheme, AP)
 * columns) once through runMatrix() and asserts the shape results the
 * paper reports: orderings and directions. The orderings and the Figure
 * 7 bounds come from paper::reference. Absolute values are not
 * compared: the proxies are synthetic kernels, not SPEC simpoints (see
 * EXPERIMENTS.md).
 */

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "paper/reference.hh"
#include "runner/paper_matrix.hh"
#include "workloads/suite.hh"

namespace dgsim
{
namespace
{

namespace reference = paper::reference;
using reference::SchemeGmean;
using runner::MatrixRow;
using runner::MatrixTable;

constexpr std::uint64_t kInstructions = 20'000;

const MatrixTable &
paperMatrix()
{
    static const MatrixTable table =
        runner::runMatrix(workloads::evaluationSuite(),
                          runner::paperColumns(kInstructions),
                          {.threads = 2});
    return table;
}

/** GMEAN normalized IPC of one column against the unsafe baseline. */
double
gmean(const std::string &label)
{
    const MatrixTable &table = paperMatrix();
    return runner::gmeanNormalizedIpc(table, table.column(label),
                                      table.column("Unsafe"));
}

const MatrixRow &
row(const std::string &workload)
{
    for (const MatrixRow &candidate : paperMatrix().rows)
        if (candidate.workload == workload)
            return candidate;
    throw std::out_of_range("no row " + workload);
}

std::vector<SchemeGmean>
schemesByPaper(double SchemeGmean::*key)
{
    std::vector<SchemeGmean> schemes(std::begin(reference::kSchemeGmeans),
                                     std::end(reference::kSchemeGmeans));
    std::sort(schemes.begin(), schemes.end(),
              [key](const SchemeGmean &a, const SchemeGmean &b) {
                  return a.*key < b.*key;
              });
    return schemes;
}

// Figures 1 and 6: DoM costs most, then NDA-P, then STT, and every
// scheme runs below the unsafe baseline.
TEST(PaperClaims, SchemesOrderAsInFigure6)
{
    const std::vector<SchemeGmean> schemes =
        schemesByPaper(&SchemeGmean::base);
    for (std::size_t i = 0; i + 1 < schemes.size(); ++i)
        EXPECT_LT(gmean(schemes[i].scheme), gmean(schemes[i + 1].scheme))
            << schemes[i].scheme << " vs " << schemes[i + 1].scheme;
    EXPECT_LT(gmean(schemes.back().scheme), 1.0);
}

// Figure 1: Doppelganger Loads raise all three schemes' GMEAN.
TEST(PaperClaims, AddressPredictionRaisesEveryScheme)
{
    for (const SchemeGmean &paper : reference::kSchemeGmeans) {
        ASSERT_GT(paper.ap, paper.base);
        EXPECT_GT(gmean(paper.schemeAp), gmean(paper.scheme))
            << paper.scheme;
    }
}

// §7 "Unsafe Baseline + Address Prediction": without a secure scheme
// restricting memory-level parallelism, AP is close to noise.
TEST(PaperClaims, UnsafeBaselineGainsLittleFromAp)
{
    constexpr double kBand = 0.03;
    ASSERT_LT(std::abs(reference::kUnsafeApGmean - 1.0), kBand);
    EXPECT_NEAR(gmean("Unsafe+AP"), 1.0, kBand);
}

// Figure 6: DoM+AP stays the slowest of the +AP columns (in-order
// branch resolution, §4.6).
TEST(PaperClaims, DomPlusApIsTheSlowestApColumn)
{
    const std::vector<SchemeGmean> schemes = schemesByPaper(&SchemeGmean::ap);
    for (std::size_t i = 1; i < schemes.size(); ++i)
        EXPECT_LT(gmean(schemes.front().schemeAp),
                  gmean(schemes[i].schemeAp))
            << schemes[i].schemeAp;
}

// Figures 6 and 7: the pointer-chase proxies are coverage-starved (the
// paper's lowest coverage is mcf's) and gain under 1% from AP under
// every scheme.
TEST(PaperClaims, PointerChaseProxiesGainNothingFromAp)
{
    const MatrixTable &table = paperMatrix();
    for (const char *name : {"mcf", "mcf_s"}) {
        const MatrixRow &chase = row(name);
        EXPECT_LE(chase.cells[table.column("DoM+AP")].dgCoverage,
                  reference::kCoverageMin)
            << name;
        for (const SchemeGmean &paper : reference::kSchemeGmeans)
            EXPECT_LT(runner::normalizedIpc(chase,
                                            table.column(paper.schemeAp),
                                            table.column(paper.scheme)),
                      1.01)
                << name << " under " << paper.scheme;
    }
}

// Figure 7: where the predictor predicts at all, it is right at least
// as often as the paper's "typically" bound.
TEST(PaperClaims, PredictionsAreAccurate)
{
    const MatrixTable &table = paperMatrix();
    std::vector<double> accuracies;
    for (const MatrixRow &workload : table.rows) {
        const double accuracy =
            workload.cells[table.column("DoM+AP")].dgAccuracy;
        if (accuracy > 0.0)
            accuracies.push_back(accuracy);
    }
    EXPECT_GE(runner::geomean(accuracies), reference::kAccuracyTypical);
}

} // namespace
} // namespace dgsim
