/**
 * @file
 * The one rule for what text is a number, shared by every reader of
 * host text: dgrun's flags, the bench arguments and the JSON records
 * (results, journals, manifests, claims, telemetry traces). strtoull
 * and strtod alone would skip leading whitespace and take a sign, and
 * strtoull wraps "-1" to 2^64 - 1, so a corrupt record or a typo would
 * read as a plausible value.
 */

#ifndef DGSIM_COMMON_NUMBER_HH
#define DGSIM_COMMON_NUMBER_HH

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>

namespace dgsim
{

/** A decimal count: digits only, no overflow, at most @p max. */
inline std::optional<std::uint64_t>
parseU64(const std::string &text,
         std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
{
    if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])))
        return std::nullopt;
    errno = 0;
    char *end = nullptr;
    const std::uint64_t value = std::strtoull(text.c_str(), &end, 10);
    if (*end != '\0' || errno == ERANGE || value > max)
        return std::nullopt;
    return value;
}

/**
 * A real as strtod reads it ("-Infinity" and "nan" included), but
 * non-empty and with no leading whitespace or '+'. Overflow is
 * rejected; underflow is kept, because the %.17g text of a subnormal
 * reads back exactly although strtod reports ERANGE for it.
 */
inline std::optional<double>
parseF64(const std::string &text)
{
    if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])) ||
        text[0] == '+')
        return std::nullopt;
    errno = 0;
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (*end != '\0' || (errno == ERANGE && std::isinf(value)))
        return std::nullopt;
    return value;
}

} // namespace dgsim

#endif // DGSIM_COMMON_NUMBER_HH
