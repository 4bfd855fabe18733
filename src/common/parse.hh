/**
 * @file
 * Strict decimal parsing for command-line flags and environment
 * variables. strtoull-style parsing skips leading whitespace, accepts a
 * sign (wrapping "-1" to the maximum), stops quietly at the first
 * non-digit and returns 0 for garbage; every one of those turns a typo
 * into a silently different run.
 */

#ifndef WSL_COMMON_PARSE_HH
#define WSL_COMMON_PARSE_HH

#include <cstdint>
#include <limits>
#include <optional>

namespace wsl {

/**
 * `text` as a decimal number in [0, max]: one or more ASCII digits
 * and nothing else (no sign, whitespace, base prefix or suffix).
 * nullopt for anything else, including a null pointer and overflow.
 */
inline std::optional<std::uint64_t>
parseDecimal(const char *text,
             std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
{
    if (!text || !*text)
        return std::nullopt;
    std::uint64_t v = 0;
    for (const char *p = text; *p; ++p) {
        if (*p < '0' || *p > '9')
            return std::nullopt;
        const unsigned digit = static_cast<unsigned>(*p - '0');
        if (v > (max - digit) / 10)
            return std::nullopt;
        v = v * 10 + digit;
    }
    return v;
}

} // namespace wsl

#endif // WSL_COMMON_PARSE_HH
