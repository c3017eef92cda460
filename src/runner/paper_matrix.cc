#include "runner/paper_matrix.hh"

#include <chrono>

#include "runner/experiment_runner.hh"

namespace dgsim::runner
{

SimConfig
paperRunConfig(std::uint64_t budget)
{
    SimConfig config;
    config.maxInstructions = budget;
    config.maxCycles = budget * 200;
    config.warmupInstructions = budget / 3;
    return config;
}

std::vector<MatrixColumn>
paperColumns(std::uint64_t budget, const std::vector<std::string> &labels)
{
    std::vector<MatrixColumn> all, picked;
    for (const SimConfig &config : evaluationConfigs(paperRunConfig(budget)))
        all.push_back({config.label(), config});
    for (const std::string &label : labels)
        for (const MatrixColumn &column : all)
            if (column.label == label)
                picked.push_back(column);
    if (picked.size() != labels.size())
        throw std::invalid_argument("unknown paper column label");
    return labels.empty() ? all : picked;
}

MatrixTable
runMatrix(const std::vector<workloads::WorkloadDef> &workloads,
          const std::vector<MatrixColumn> &columns,
          const MatrixOptions &options)
{
    MatrixTable table;
    SweepSpec spec{workloads, {}};
    for (const MatrixColumn &column : columns) {
        table.labels.push_back(column.label);
        spec.configs.push_back(column.config);
    }
    RunnerOptions runnerOptions;
    runnerOptions.threads = options.threads;
    runnerOptions.maxAttempts = options.retries + 1;

    const auto start = std::chrono::steady_clock::now();
    const std::vector<JobOutcome> outcomes =
        ExperimentRunner(runnerOptions).run(spec);
    table.seconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();

    // Outcomes arrive in expansion order: workloads outer, columns inner.
    for (const JobOutcome &outcome : outcomes) {
        const std::size_t col = outcome.index % columns.size();
        if (!outcome.ok)
            throw std::runtime_error(outcome.workload + " under " +
                                     table.labels[col] +
                                     " failed: " + outcome.error);
        if (col == 0)
            table.rows.push_back({outcome.workload, outcome.suite, {}});
        table.rows.back().cells.push_back(outcome.result);
    }
    return table;
}

} // namespace dgsim::runner
