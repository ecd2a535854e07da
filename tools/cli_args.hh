/**
 * @file
 * Integer command-line options for lbpsim, lbpsweep and lbpserved.
 *
 * Every integer flag goes through parseBounded() (common/parse.hh),
 * the same strict parser as the sweep-spec grammar: a value with a
 * sign, blanks, trailing junk or outside the flag's range is a usage
 * error instead of silently becoming 0 (so `--suite abc` no longer
 * means "the whole suite").
 */

#ifndef LBP_TOOLS_CLI_ARGS_HH
#define LBP_TOOLS_CLI_ARGS_HH

#include <cstdio>
#include <stdexcept>

#include "common/parse.hh"
#include "common/thread_pool.hh"

namespace lbp {

/**
 * Parse @p text, the value of @p flag, as a decimal in [@p lo, @p hi]
 * into @p out; on failure print a usage error naming the flag and
 * return false.
 */
template <typename T>
bool
parseIntOption(const char *flag, const char *text, T lo, T hi, T &out)
{
    if (parseBounded(std::string(text), lo, hi, out))
        return true;
    std::fprintf(stderr, "%s wants an integer in %llu..%llu, got '%s'\n",
                 flag, static_cast<unsigned long long>(lo),
                 static_cast<unsigned long long>(hi), text);
    return false;
}

/**
 * Check REPRO_JOBS up front: a junk value is a usage error naming the
 * variable, not an exception out of the first resolveJobs().
 */
inline bool
reproJobsValid()
{
    try {
        envJobs();
        return true;
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return false;
    }
}

} // namespace lbp

#endif // LBP_TOOLS_CLI_ARGS_HH
