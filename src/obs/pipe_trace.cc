#include "obs/pipe_trace.hh"

#include <cerrno>
#include <cinttypes>
#include <cstring>

#include "common/log.hh"
#include "isa/isa.hh"

namespace dgsim
{
namespace
{

std::uint64_t
toTick(Cycle cycle)
{
    return cycle * kTicksPerCycle;
}

/** Bracketed speculation annotations appended to the disassembly. */
std::string
annotations(const DynInst &inst, bool squashed)
{
    std::string out;
    switch (inst.dgState) {
      case DgState::None: break;
      case DgState::Predicted: out += " [dg:pred]"; break;
      case DgState::Verified: out += " [dg:ok]"; break;
      case DgState::Mispredicted: out += " [dg:bad]"; break;
    }
    if (inst.forwarded)
        out += " [stl-fwd]";
    if (inst.domDelayed)
        out += " [dom-delayed]";
    if (inst.policyBlocked)
        out += " [policy-blocked]";
    if (inst.resultTainted)
        out += " [tainted]";
    if (squashed)
        out += " [squashed]";
    return out;
}

} // namespace

PipeTracer::PipeTracer(const std::string &path, std::uint64_t start_inst,
                       std::uint64_t max_insts)
    : start_inst_(start_inst), max_insts_(max_insts)
{
    if (path == "-") {
        file_ = stdout;
    } else {
        file_ = std::fopen(path.c_str(), "w");
        owns_file_ = file_ != nullptr;
        if (!file_)
            DGSIM_WARN("cannot open trace file " + path + ": " +
                       std::strerror(errno) + "; tracing disabled");
    }
}

PipeTracer::~PipeTracer()
{
    if (file_ && owns_file_)
        std::fclose(file_);
}

void
PipeTracer::flush(const DynInst &inst, Cycle retire_cycle)
{
    if (!file_)
        return;
    const bool squashed = retire_cycle == 0;
    const std::string disasm =
        disassemble(inst.inst) + annotations(inst, squashed);
    const std::uint64_t retire_tick = toTick(retire_cycle);
    // Stage stamps an instruction never reached stay 0 (gem5's own
    // convention for squashed instructions).
    const std::uint64_t issue_tick =
        inst.issuedAt == kInvalidCycle ? 0 : toTick(inst.issuedAt);
    const std::uint64_t complete_tick =
        inst.completedAt == kInvalidCycle ? 0 : toTick(inst.completedAt);
    std::fprintf(file_,
                 "O3PipeView:fetch:%" PRIu64 ":0x%08" PRIx64 ":0:%" PRIu64
                 ":%s\n"
                 "O3PipeView:decode:%" PRIu64 "\n"
                 "O3PipeView:rename:%" PRIu64 "\n"
                 "O3PipeView:dispatch:%" PRIu64 "\n"
                 "O3PipeView:issue:%" PRIu64 "\n"
                 "O3PipeView:complete:%" PRIu64 "\n"
                 "O3PipeView:retire:%" PRIu64 ":store:%" PRIu64 "\n",
                 toTick(inst.tsFetch), inst.pc, inst.seq, disasm.c_str(),
                 toTick(inst.tsDecode), toTick(inst.dispatchedAt),
                 toTick(inst.dispatchedAt), issue_tick, complete_tick,
                 retire_tick,
                 inst.isStore() && !squashed ? retire_tick : 0);
    ++records_;
}

// ---------------------------------------------------------------------
// Parser + validator (shared by trace_test and dgrun --validate).
// ---------------------------------------------------------------------

namespace
{

/** Parse "<num>" strictly. */
std::uint64_t
parseNum(const std::string &text, int base, const std::string &line)
{
    errno = 0;
    char *end = nullptr;
    const std::uint64_t value = std::strtoull(text.c_str(), &end, base);
    if (text.empty() || *end != '\0' || errno == ERANGE)
        DGSIM_FATAL("bad number '" + text + "' in trace line: " + line);
    return value;
}

/** Split off the next ':'-delimited field starting at @p pos. */
std::string
nextField(const std::string &line, std::size_t &pos)
{
    const std::size_t colon = line.find(':', pos);
    if (colon == std::string::npos)
        DGSIM_FATAL("truncated trace line: " + line);
    std::string field = line.substr(pos, colon - pos);
    pos = colon + 1;
    return field;
}

/** Expect "O3PipeView:<stage>:<tick>" and return the tick. */
std::uint64_t
parseStageLine(const std::string &line, const char *stage)
{
    std::size_t pos = 0;
    if (nextField(line, pos) != "O3PipeView" ||
        nextField(line, pos) != stage) {
        DGSIM_FATAL(std::string("expected O3PipeView:") + stage +
                    " line, got: " + line);
    }
    return parseNum(line.substr(pos), 10, line);
}

} // namespace

std::vector<TraceRecord>
parseO3PipeView(std::istream &is)
{
    std::vector<TraceRecord> records;
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        TraceRecord record;
        // O3PipeView:fetch:<tick>:0x<pc>:0:<seq>:<disasm>
        std::size_t pos = 0;
        if (nextField(line, pos) != "O3PipeView" ||
            nextField(line, pos) != "fetch")
            DGSIM_FATAL("expected O3PipeView:fetch line, got: " + line);
        record.fetch = parseNum(nextField(line, pos), 10, line);
        record.pc = parseNum(nextField(line, pos), 16, line);
        nextField(line, pos); // Context id, always 0.
        record.seq = parseNum(nextField(line, pos), 10, line);
        record.disasm = line.substr(pos);

        auto stage = [&is, &line](const char *name) {
            if (!std::getline(is, line))
                DGSIM_FATAL(std::string("trace truncated before ") + name +
                            " line");
            return parseStageLine(line, name);
        };
        record.decode = stage("decode");
        record.rename = stage("rename");
        record.dispatch = stage("dispatch");
        record.issue = stage("issue");
        record.complete = stage("complete");
        // O3PipeView:retire:<tick>:store:<tick>
        if (!std::getline(is, line))
            DGSIM_FATAL("trace truncated before retire line");
        pos = 0;
        if (nextField(line, pos) != "O3PipeView" ||
            nextField(line, pos) != "retire")
            DGSIM_FATAL("expected O3PipeView:retire line, got: " + line);
        record.retire = parseNum(nextField(line, pos), 10, line);
        if (nextField(line, pos) != "store")
            DGSIM_FATAL("malformed retire line: " + line);
        record.storeTick = parseNum(line.substr(pos), 10, line);
        record.squashed = record.retire == 0;
        records.push_back(std::move(record));
    }
    return records;
}

std::string
validateO3PipeView(const std::vector<TraceRecord> &records)
{
    SeqNum last_retired_seq = 0;
    for (std::size_t i = 0; i < records.size(); ++i) {
        const TraceRecord &r = records[i];
        const auto fail = [&](const std::string &why) {
            return "record " + std::to_string(i) + " (seq " +
                   std::to_string(r.seq) + "): " + why;
        };
        if (r.fetch == 0)
            return fail("missing fetch stamp");
        // Non-decreasing stamps over the stages actually reached.
        const std::uint64_t stamps[] = {r.fetch,    r.decode,   r.rename,
                                        r.dispatch, r.issue,    r.complete,
                                        r.retire};
        std::uint64_t prev = 0;
        for (std::uint64_t stamp : stamps) {
            if (stamp == 0)
                continue; // Stage never reached (squash / no-op class).
            if (stamp < prev)
                return fail("stage stamps not monotonic: " +
                            std::to_string(stamp) + " after " +
                            std::to_string(prev));
            prev = stamp;
        }
        const bool flagged =
            r.disasm.find("[squashed]") != std::string::npos;
        if (r.squashed != flagged)
            return fail(r.squashed ? "squashed record lacks [squashed] flag"
                                   : "retired record carries [squashed]");
        if (!r.squashed) {
            if (r.complete == 0)
                return fail("retired without a complete stamp");
            if (r.seq <= last_retired_seq)
                return fail("retired out of sequence order");
            last_retired_seq = r.seq;
        }
    }
    return "";
}

} // namespace dgsim
