/**
 * @file
 * The paper matrix: the run shape of the paper reproduction and
 * the one loop that runs a workload x column table on the experiment
 * runner. The figure and ablation benches are formatters over its table.
 */

#ifndef DGSIM_RUNNER_PAPER_MATRIX_HH
#define DGSIM_RUNNER_PAPER_MATRIX_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/simulator.hh"
#include "workloads/suite.hh"

namespace dgsim::runner
{

/** The paper run shape at @p budget instructions: a cap of 200 cycles
    per instruction, statistics measured after a warm-up third. */
SimConfig paperRunConfig(std::uint64_t budget);

/** A config under the caller's label (ablation variants share one
    SimConfig::label()). Columns are addressed by position. */
struct MatrixColumn
{
    std::string label;
    SimConfig config;
};

/** The paper's eight (scheme, AP) columns at @p budget as labelled and
    ordered by evaluationConfigs(), or just @p labels, in that order
    (std::invalid_argument on an unknown one). */
std::vector<MatrixColumn>
paperColumns(std::uint64_t budget,
             const std::vector<std::string> &labels = {});

struct MatrixOptions
{
    unsigned threads = 1;
    unsigned retries = 2; ///< Per job, for transient host failures only.
};

/** One workload's results, one cell per column. */
struct MatrixRow
{
    std::string workload;
    std::string suite;
    std::vector<SimResult> cells;
};

struct MatrixTable
{
    std::vector<std::string> labels; ///< Column labels.
    std::vector<MatrixRow> rows;     ///< In the given workload order.
    double seconds = 0.0;            ///< Wall time of the whole table.

    /** First column labelled @p label; std::out_of_range if none. */
    std::size_t
    column(const std::string &label) const
    {
        const auto it = std::find(labels.begin(), labels.end(), label);
        if (it == labels.end())
            throw std::out_of_range("no matrix column '" + label + "'");
        return static_cast<std::size_t>(it - labels.begin());
    }
};

/** Run every workload under every column, independent of the thread
    count; a job failing after its retries throws std::runtime_error. */
MatrixTable runMatrix(const std::vector<workloads::WorkloadDef> &workloads,
                      const std::vector<MatrixColumn> &columns,
                      const MatrixOptions &options = {});

/** Geometric mean (0 for no values). */
inline double
geomean(const std::vector<double> &values)
{
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return values.empty() ? 0.0 : std::exp(log_sum / values.size());
}

/** IPC of @p column over @p baseline's (0 when that IPC is 0). */
inline double
normalizedIpc(const MatrixRow &row, std::size_t column, std::size_t baseline)
{
    const double base = row.cells.at(baseline).ipc;
    return base == 0.0 ? 0.0 : row.cells.at(column).ipc / base;
}

/** geomean() of normalizedIpc() over every row. */
inline double
gmeanNormalizedIpc(const MatrixTable &table, std::size_t column,
                   std::size_t baseline)
{
    std::vector<double> values;
    for (const MatrixRow &row : table.rows)
        values.push_back(normalizedIpc(row, column, baseline));
    return geomean(values);
}

} // namespace dgsim::runner

#endif // DGSIM_RUNNER_PAPER_MATRIX_HH
