/**
 * @file
 * The minimal JSON subset the runner serializes: objects of strings,
 * numbers (kept as raw text so uint64 values survive untruncated),
 * booleans, arrays and nested objects. Shared by the JSONL result
 * reader, the completion journal, campaign manifests and claims, and
 * the telemetry trace readers so they can never drift apart.
 *
 * Numbers are read only through jsonU64()/jsonF64(), under the rule of
 * common/number.hh: an integer is a JSON number of digits alone, a real
 * a JSON number or a quoted non-finite token jsonDouble() wrote.
 *
 * The parser reports malformed input by throwing JsonParseError rather
 * than calling DGSIM_FATAL: the result reader converts it to a fatal
 * (malformed results are unrecoverable), while the journal reader
 * *recovers* from a truncated final line — the expected artifact of a
 * killed sweep.
 */

#ifndef DGSIM_RUNNER_JSON_HH
#define DGSIM_RUNNER_JSON_HH

#include <cstdint>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace dgsim::runner
{

/** Malformed JSON (or a missing member lookup). */
class JsonParseError : public std::runtime_error
{
  public:
    explicit JsonParseError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/** One parsed value of the runner's JSON subset. */
struct JsonValue
{
    enum class Kind { Boolean, Number, String, Object, Array };

    Kind kind = Kind::Boolean;
    bool boolean = false;
    std::string number; ///< Raw text, e.g. "18446744073709551615".
    std::string str;
    std::map<std::string, JsonValue> object;
    std::vector<JsonValue> array;
};

/** Single-line (well, single-string) parser for the subset above. */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    /** Parse the full string; throws JsonParseError on malformed input. */
    JsonValue parse();

  private:
    [[noreturn]] void fail(const std::string &why);
    void skipWs();
    char peek();
    void expect(char c);
    JsonValue parseValue();
    JsonValue parseObject();
    JsonValue parseArray();
    JsonValue parseString();
    JsonValue parseBoolean();
    JsonValue parseNumber();

    const std::string &text_;
    std::size_t pos_ = 0;
};

/** Escape @p raw for embedding inside a JSON string literal. */
std::string jsonEscape(const std::string &raw);

/** Member lookup; throws JsonParseError when @p name is absent. */
const JsonValue &jsonMember(const JsonValue &object, const char *name);

/** Member @p name as a count of at most @p max under parseU64();
 * else throws JsonParseError("bad integer for NAME: 'TEXT'"). */
std::uint64_t
jsonU64(const JsonValue &object, const char *name,
        std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/** Member @p name as a real under parseF64(), a JSON number or quoted
 * token; else throws JsonParseError("bad number for NAME: 'TEXT'"). */
double jsonF64(const JsonValue &object, const char *name);

/**
 * A double as a JSON value: %.17g, which strtod restores bit-exactly,
 * when finite; else the quoted token "NaN", "Infinity" or "-Infinity",
 * since JSON has no literals for them and a bare `nan` would make the
 * whole line unparseable.
 */
std::string jsonDouble(double value);

} // namespace dgsim::runner

#endif // DGSIM_RUNNER_JSON_HH
