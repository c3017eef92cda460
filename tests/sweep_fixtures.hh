/** @file Sweep helpers shared by the runner and campaign tests. */

#ifndef DGSIM_TESTS_SWEEP_FIXTURES_HH
#define DGSIM_TESTS_SWEEP_FIXTURES_HH

#include <sstream>
#include <string>
#include <vector>

#include "runner/paper_matrix.hh"
#include "runner/result_sink.hh"
#include "runner/sweep.hh"
#include "workloads/suite.hh"

namespace dgsim::runner
{

/** A small but real sweep: 2 L1-resident workloads x the paper's eight
    columns, in the paper run shape. */
inline SweepSpec
smallSpec(std::uint64_t instructions)
{
    return {{workloads::findWorkload("gobmk"),
             workloads::findWorkload("h264ref")},
            evaluationConfigs(paperRunConfig(instructions))};
}

/** @p outcomes as a JsonlSink writes them (no host metrics). */
inline std::string
jsonlOf(const std::vector<JobOutcome> &outcomes)
{
    std::ostringstream ss;
    JsonlSink sink(ss);
    for (const JobOutcome &outcome : outcomes)
        sink.consume(outcome);
    return ss.str();
}

} // namespace dgsim::runner

#endif // DGSIM_TESTS_SWEEP_FIXTURES_HH
