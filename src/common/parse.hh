/**
 * @file
 * Strict integer parsing, shared by every integer input the programs
 * take: the sweep-spec grammar, the command-line flags of lbpsim,
 * lbpsweep and lbpserved, and the REPRO_* environment variables. A
 * value with a sign, blanks, trailing junk, overflow or outside its
 * range is an error, never a silent 0.
 */

#ifndef LBP_COMMON_PARSE_HH
#define LBP_COMMON_PARSE_HH

#include <charconv>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace lbp {

/**
 * Parse @p text as a plain decimal in [@p lo, @p hi]: no sign, blank
 * or trailing junk, no overflow. On failure returns false and leaves
 * @p out unchanged.
 */
template <typename T>
bool
parseBounded(const std::string &text, T lo, T hi, T &out)
{
    T v = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || ptr != end || v < lo || v > hi)
        return false;
    out = v;
    return true;
}

/**
 * @p text, the value of environment variable @p name, as a decimal in
 * [@p lo, @p hi]; throws std::invalid_argument naming the variable
 * when parseBounded() rejects it.
 */
template <typename T>
T
parseEnvValue(const char *name, const std::string &text, T lo, T hi)
{
    T v = 0;
    if (!parseBounded(text, lo, hi, v))
        throw std::invalid_argument(
            std::string(name) + " wants an integer in " +
            std::to_string(lo) + ".." + std::to_string(hi) + ", got '" +
            text + "'");
    return v;
}

/** Environment variable @p name through parseEnvValue(), or
 *  @p fallback when it is unset. */
template <typename T>
T
envBounded(const char *name, T lo, T hi, T fallback)
{
    const char *s = std::getenv(name);
    return s ? parseEnvValue(name, s, lo, hi) : fallback;
}

} // namespace lbp

#endif // LBP_COMMON_PARSE_HH
