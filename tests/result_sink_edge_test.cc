/**
 * @file
 * Round-trip edge cases for toJsonLine's hand-rolled numeric
 * serialization — the bug class this file pins down:
 *
 *  - strtoull silently wraps "-1" to 2^64-1 and skips leading
 *    whitespace, so sign/space prefixes must be rejected up front;
 *  - %.17g prints bare `nan`/`inf`, which is not JSON — non-finite
 *    doubles serialize as quoted "NaN"/"Infinity"/"-Infinity" tokens
 *    and must read back exactly;
 *  - strtod sets ERANGE for *underflow* too, with a perfectly valid
 *    subnormal result — only overflow may be rejected.
 *
 * The integer cases also feed the completion journal and telemetry
 * trace readers, which share the one number rule (common/number.hh).
 * Every reader shares one string parser too, whose `\u` escape must
 * take exactly four hex digits.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "runner/journal.hh"
#include "runner/json.hh"
#include "runner/result_sink.hh"
#include "runner/sweep.hh"
#include "telemetry/trace.hh"

namespace dgsim::runner
{
namespace
{

JobOutcome
baseOutcome()
{
    JobOutcome outcome;
    outcome.index = 0;
    outcome.workload = "gobmk";
    outcome.suite = "SPEC2006";
    outcome.configLabel = "DoM+AP";
    outcome.ok = true;
    outcome.result.workload = outcome.workload;
    outcome.result.configLabel = outcome.configLabel;
    outcome.result.cycles = 1000;
    outcome.result.instructions = 500;
    outcome.result.ipc = 0.5;
    return outcome;
}

/** Serialize, round-trip through the JSONL reader, return the copy. */
JobOutcome
jsonlRoundTrip(const JobOutcome &outcome)
{
    std::stringstream ss(toJsonLine(outcome) + "\n");
    const auto loaded = readJsonl(ss);
    EXPECT_EQ(loaded.size(), 1u);
    return loaded.at(0);
}

/** One serialized line with a field value swapped for a hostile one. */
std::string
corruptedLine(const std::string &from, const std::string &to)
{
    std::string line = toJsonLine(baseOutcome());
    const std::size_t at = line.find(from);
    EXPECT_NE(at, std::string::npos) << "fixture drift: " << from;
    line.replace(at, from.size(), to);
    return line + "\n";
}

void
readJsonlText(const std::string &text)
{
    std::istringstream ss(text);
    readJsonl(ss);
}

/** @p text written to a fresh file under the test temp dir. */
std::string
tempFile(const char *name, const std::string &text)
{
    const std::string path = testing::TempDir() + name;
    std::ofstream(path, std::ios::trunc) << text;
    return path;
}

/** A journal holding one record whose attempts member is @p attempts. */
std::string
journalWithAttempts(const std::string &attempts)
{
    return tempFile("edge.journal",
                    "{\"key\":\"k\",\"attempts\":" + attempts + "," +
                        toJsonLine(baseOutcome()).substr(1) + "\n");
}

/** One telemetry event line whose timestamp is @p ts. */
std::string
eventWithTs(const std::string &ts)
{
    return "{\"name\":\"job\",\"cat\":\"job\",\"ph\":\"X\",\"ts\":" + ts +
           ",\"dur\":5,\"pid\":1,\"tid\":1}";
}

/** The error loadMergedTrace() throws for a trace of that one event. */
std::string
mergedTraceError(const std::string &ts)
{
    const std::string path = tempFile(
        "edge.trace.json",
        "{\"dgsim_telemetry\":1,\"traceEvents\":[" + eventWithTs(ts) + "]}\n");
    try {
        telemetry::loadMergedTrace(path);
    } catch (const JsonParseError &e) {
        return e.what();
    }
    return "";
}

using IntegerParsing = ::testing::Test;

TEST(IntegerParsing, NegativeValueIsFatalNotWrapped)
{
    // strtoull("-1") "succeeds" with 18446744073709551615; accepting it
    // would turn a corrupted record into a plausible huge counter.
    EXPECT_EXIT(readJsonlText(corruptedLine("\"cycles\":1000",
                                            "\"cycles\":\"-1\"")),
                testing::ExitedWithCode(1), "bad integer for cycles");
    // The journal's wrapper field and a trace timestamp: a wrapped -1
    // would record 4294967295 attempts or reorder the trace.
    EXPECT_EXIT(loadJournal(journalWithAttempts("-1")),
                testing::ExitedWithCode(1),
                "is corrupt: bad integer for attempts");
    EXPECT_EXIT(telemetry::loadTraceEvents(
                    tempFile("edge.events", eventWithTs("-1") + "\n")),
                testing::ExitedWithCode(1), "bad integer for ts");
    EXPECT_NE(mergedTraceError("-1").find("bad integer for ts: '-1'"),
              std::string::npos);
}

TEST(IntegerParsing, ExplicitPlusSignIsFatal)
{
    EXPECT_EXIT(readJsonlText(corruptedLine("\"cycles\":1000",
                                            "\"cycles\":\"+1\"")),
                testing::ExitedWithCode(1), "bad integer for cycles");
    EXPECT_EXIT(loadJournal(journalWithAttempts("+1")),
                testing::ExitedWithCode(1),
                "is corrupt: bad integer for attempts");
    EXPECT_NE(mergedTraceError("+1").find("bad integer for ts"),
              std::string::npos);
}

TEST(IntegerParsing, LeadingWhitespaceIsFatal)
{
    // strtoull skips isspace() prefixes; the wire format never contains
    // them, so their presence means the record is corrupt.
    EXPECT_EXIT(readJsonlText(corruptedLine("\"cycles\":1000",
                                            "\"cycles\":\" 1\"")),
                testing::ExitedWithCode(1), "bad integer for cycles");
}

TEST(IntegerParsing, OverflowIsFatal)
{
    EXPECT_EXIT(readJsonlText(corruptedLine(
                    "\"cycles\":1000", "\"cycles\":99999999999999999999999")),
                testing::ExitedWithCode(1), "bad integer for cycles");
    // Past 2^64 (std::stoul used to throw out_of_range through the
    // journal reader) and past the unsigned field it lands in.
    EXPECT_EXIT(loadJournal(journalWithAttempts("99999999999999999999")),
                testing::ExitedWithCode(1),
                "is corrupt: bad integer for attempts");
    EXPECT_EXIT(loadJournal(journalWithAttempts("4294967296")),
                testing::ExitedWithCode(1),
                "is corrupt: bad integer for attempts");
    EXPECT_NE(mergedTraceError("99999999999999999999999")
                  .find("bad integer for ts"),
              std::string::npos);
}

TEST(NonFiniteDoubles, JsonlLinesStayValidJson)
{
    JobOutcome outcome = baseOutcome();
    outcome.result.ipc = std::numeric_limits<double>::quiet_NaN();
    const std::string line = toJsonLine(outcome);
    // %.17g would have produced `"ipc":nan` — a token no JSON parser
    // (including ours) accepts. The sink must quote it instead.
    EXPECT_EQ(line.find(":nan"), std::string::npos) << line;
    EXPECT_EQ(line.find(":inf"), std::string::npos) << line;
    EXPECT_NE(line.find("\"ipc\":\"NaN\""), std::string::npos) << line;
}

TEST(NonFiniteDoubles, JsonlRoundTrip)
{
    JobOutcome outcome = baseOutcome();
    outcome.result.ipc = std::numeric_limits<double>::quiet_NaN();
    outcome.result.dgCoverage = std::numeric_limits<double>::infinity();
    outcome.result.dgAccuracy = -std::numeric_limits<double>::infinity();

    const JobOutcome loaded = jsonlRoundTrip(outcome);
    EXPECT_TRUE(std::isnan(loaded.result.ipc));
    EXPECT_TRUE(std::isinf(loaded.result.dgCoverage));
    EXPECT_FALSE(std::signbit(loaded.result.dgCoverage));
    EXPECT_TRUE(std::isinf(loaded.result.dgAccuracy));
    EXPECT_TRUE(std::signbit(loaded.result.dgAccuracy));
}

TEST(SubnormalDoubles, RoundTripExactly)
{
    // strtod reports ERANGE for these even though the returned value is
    // exact; the reader must not treat underflow as corruption.
    const double denormMin = std::numeric_limits<double>::denorm_min();
    JobOutcome outcome = baseOutcome();
    outcome.result.ipc = denormMin;          // 5e-324
    outcome.result.dgCoverage = 1.5e-310;    // Mid-range subnormal.
    outcome.result.dgAccuracy = -denormMin;  // Signed underflow.

    const JobOutcome viaJsonl = jsonlRoundTrip(outcome);
    EXPECT_EQ(viaJsonl.result.ipc, denormMin);
    EXPECT_EQ(viaJsonl.result.dgCoverage, 1.5e-310);
    EXPECT_EQ(viaJsonl.result.dgAccuracy, -denormMin);
}

TEST(DoubleParsing, OverflowIsStillFatal)
{
    EXPECT_EXIT(readJsonlText(corruptedLine("\"ipc\":0.5",
                                            "\"ipc\":1e999")),
                testing::ExitedWithCode(1), "bad number for ipc");
}

TEST(DoubleParsing, WhitespaceAndPlusPrefixesAreFatal)
{
    EXPECT_EXIT(readJsonlText(corruptedLine("\"ipc\":0.5",
                                            "\"ipc\":\" 0.5\"")),
                testing::ExitedWithCode(1), "bad number for ipc");
    EXPECT_EXIT(readJsonlText(corruptedLine("\"ipc\":0.5",
                                            "\"ipc\":\"+0.5\"")),
                testing::ExitedWithCode(1), "bad number for ipc");
}

TEST(StringParsing, UnicodeEscapeTakesExactlyFourHexDigits)
{
    const auto member = [](const std::string &text) {
        return jsonMember(JsonParser(text).parse(), "s").str;
    };
    EXPECT_EQ(member(R"({"s":"a\u0041b"})"), "aAb");
    EXPECT_EQ(member(R"({"s":"a\u004ab"})"), "aJb");
    // strtoul alone read "zzzz" as 0 and skipped a sign or leading
    // space: each read back as a different string instead of failing.
    for (const char *bad : {R"({"s":"a\uzzzzb"})", R"({"s":"a\u00zzb"})",
                            R"({"s":"a\u 041b"})", R"({"s":"a\u-041b"})",
                            R"({"s":"a\u+041b"})"}) {
        EXPECT_THROW(JsonParser(bad).parse(), JsonParseError) << bad;
    }
}

} // namespace
} // namespace dgsim::runner
