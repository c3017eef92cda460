#include "runner/json.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/number.hh"

namespace dgsim::runner
{

JsonValue
JsonParser::parse()
{
    JsonValue value = parseValue();
    skipWs();
    if (pos_ != text_.size())
        fail("trailing characters");
    return value;
}

void
JsonParser::fail(const std::string &why)
{
    throw JsonParseError("JSON parse error at offset " +
                         std::to_string(pos_) + ": " + why);
}

void
JsonParser::skipWs()
{
    // Newlines count as whitespace so multi-line documents (the merged
    // telemetry trace) parse; JSONL callers never see them — they feed
    // one getline()'d line at a time.
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
        ++pos_;
}

char
JsonParser::peek()
{
    if (pos_ >= text_.size())
        fail("unexpected end of input");
    return text_[pos_];
}

void
JsonParser::expect(char c)
{
    if (peek() != c)
        fail(std::string("expected '") + c + "'");
    ++pos_;
}

JsonValue
JsonParser::parseValue()
{
    skipWs();
    const char c = peek();
    if (c == '{')
        return parseObject();
    if (c == '[')
        return parseArray();
    if (c == '"')
        return parseString();
    if (c == 't' || c == 'f')
        return parseBoolean();
    return parseNumber();
}

JsonValue
JsonParser::parseObject()
{
    expect('{');
    JsonValue value;
    value.kind = JsonValue::Kind::Object;
    skipWs();
    if (peek() == '}') {
        ++pos_;
        return value;
    }
    for (;;) {
        skipWs();
        JsonValue key = parseString();
        skipWs();
        expect(':');
        value.object[key.str] = parseValue();
        skipWs();
        if (peek() == ',') {
            ++pos_;
            continue;
        }
        expect('}');
        return value;
    }
}

JsonValue
JsonParser::parseArray()
{
    expect('[');
    JsonValue value;
    value.kind = JsonValue::Kind::Array;
    skipWs();
    if (peek() == ']') {
        ++pos_;
        return value;
    }
    for (;;) {
        value.array.push_back(parseValue());
        skipWs();
        if (peek() == ',') {
            ++pos_;
            continue;
        }
        expect(']');
        return value;
    }
}

JsonValue
JsonParser::parseString()
{
    expect('"');
    JsonValue value;
    value.kind = JsonValue::Kind::String;
    for (;;) {
        const char c = peek();
        ++pos_;
        if (c == '"')
            return value;
        if (c != '\\') {
            value.str += c;
            continue;
        }
        const char esc = peek();
        ++pos_;
        switch (esc) {
          case '"': value.str += '"'; break;
          case '\\': value.str += '\\'; break;
          case '/': value.str += '/'; break;
          case 'n': value.str += '\n'; break;
          case 'r': value.str += '\r'; break;
          case 't': value.str += '\t'; break;
          case 'b': value.str += '\b'; break;
          case 'f': value.str += '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size())
                fail("truncated \\u escape");
            for (std::size_t i = pos_; i < pos_ + 4; ++i) {
                if (!std::isxdigit(static_cast<unsigned char>(text_[i])))
                    fail("bad \\u escape: four hex digits expected");
            }
            const unsigned long code =
                std::strtoul(text_.substr(pos_, 4).c_str(), nullptr, 16);
            pos_ += 4;
            if (code > 0x7f)
                fail("non-ASCII \\u escape unsupported");
            value.str += static_cast<char>(code);
            break;
          }
          default: fail("bad escape");
        }
    }
}

JsonValue
JsonParser::parseBoolean()
{
    JsonValue value;
    value.kind = JsonValue::Kind::Boolean;
    if (text_.compare(pos_, 4, "true") == 0) {
        value.boolean = true;
        pos_ += 4;
    } else if (text_.compare(pos_, 5, "false") == 0) {
        value.boolean = false;
        pos_ += 5;
    } else {
        fail("bad literal");
    }
    return value;
}

JsonValue
JsonParser::parseNumber()
{
    JsonValue value;
    value.kind = JsonValue::Kind::Number;
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E'))
        ++pos_;
    if (pos_ == start)
        fail("expected a value");
    value.number = text_.substr(start, pos_ - start);
    return value;
}

std::string
jsonEscape(const std::string &raw)
{
    std::string out;
    out.reserve(raw.size() + 2);
    for (unsigned char c : raw) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

const JsonValue &
jsonMember(const JsonValue &object, const char *name)
{
    auto it = object.object.find(name);
    if (it == object.object.end())
        throw JsonParseError(std::string("record missing field '") + name +
                             "'");
    return it->second;
}

namespace
{

/** The text of a numeric member: a JSON number, or a quoted token. */
const std::string &
numberText(const JsonValue &value)
{
    return value.kind == JsonValue::Kind::String ? value.str : value.number;
}

} // namespace

std::uint64_t
jsonU64(const JsonValue &object, const char *name, std::uint64_t max)
{
    const JsonValue &value = jsonMember(object, name);
    const auto parsed = parseU64(value.number, max);
    if (value.kind != JsonValue::Kind::Number || !parsed)
        throw JsonParseError(std::string("bad integer for ") + name + ": '" +
                             numberText(value) + "'");
    return *parsed;
}

double
jsonF64(const JsonValue &object, const char *name)
{
    const JsonValue &value = jsonMember(object, name);
    const auto parsed = parseF64(numberText(value));
    if (!parsed)
        throw JsonParseError(std::string("bad number for ") + name + ": '" +
                             numberText(value) + "'");
    return *parsed;
}

std::string
jsonDouble(double value)
{
    if (std::isnan(value))
        return "\"NaN\"";
    if (std::isinf(value))
        return std::signbit(value) ? "\"-Infinity\"" : "\"Infinity\"";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

} // namespace dgsim::runner
