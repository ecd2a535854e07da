/**
 * @file
 * The declarative sweep-spec grammar, shared by every sweep frontend.
 *
 * lbpsweep historically owned the --spec parser; the sweep daemon
 * (src/serve/) accepts the same text over the wire, and the two must
 * agree byte-for-byte on what a spec means or `lbpsweep --server`
 * stops being a thin client. This header hoists the grammar into the
 * sim layer: directives (`suite N|all`, `warmup N`, `instr N`,
 * `config <scheme> [modifiers]`), the default 11-configuration figure
 * set, and suite construction, all returning errors instead of
 * exiting so the daemon can turn a bad spec into a `rejected` reply.
 * Grammar reference: docs/SWEEP.md; wire usage: docs/SERVER.md.
 */

#ifndef LBP_SIM_SWEEP_SPEC_HH
#define LBP_SIM_SWEEP_SPEC_HH

#include <charconv>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/sweep.hh"

namespace lbp {

/**
 * A fully described sweep request: suite selection, instruction
 * budgets, and the configurations to run. Field defaults mirror the
 * lbpsweep command-line defaults; parseSweepSpecText() overrides them
 * in directive order, and config lines capture the budgets in effect
 * at their point in the text (so a `warmup` directive applies to the
 * config lines after it, exactly as the CLI always behaved).
 */
struct SweepSpec
{
    unsigned suite = 8;        ///< workload cap (ignored if fullSuite)
    bool fullSuite = false;    ///< `suite all`: the whole 202 workloads
    std::uint64_t warmupInstrs = 40000;   ///< warm-up budget per cell
    std::uint64_t measureInstrs = 60000;  ///< measured budget per cell
    std::vector<SweepConfig> configs;     ///< empty = caller's default
};

/**
 * Parse @p text as a plain decimal in [@p lo, @p hi]: no sign, blank
 * or trailing junk, no overflow. The one integer parser behind the spec
 * grammar and every integer option of lbpsim, lbpsweep and lbpserved.
 * On failure returns false and leaves @p out unchanged.
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
 * Scheme-name -> RepairKind mapping ("perfect", "forward-walk", ...).
 * False when @p name names no scheme ("baseline" is not a scheme: it
 * is the TAGE-only configuration config lines special-case).
 */
bool sweepSchemeKind(const std::string &name, RepairKind &kind);

/**
 * Parse a repair structure size `M-N-P` (the spec's `ports=` modifier
 * and `lbpsim --ports`): M OBQ or snapshot-queue entries, N OBQ read
 * ports, P BHT write ports, each a plain decimal. M must be 2..4096, N
 * and P at least 1, so the repair layer never sees a size it asserts
 * on. On error fills @p error ("ports wants M-N-P ...") and returns
 * false, leaving @p out unchanged.
 */
bool parseRepairPorts(const std::string &text, RepairPorts &out,
                      std::string &error);

/**
 * Parse a limited-pc repair-set size (`limited-m=`, `lbpsim
 * --limited-m`): a decimal in [1, LimitedPcScheme::maxM]. On error
 * fills @p error and returns false, leaving @p out unchanged.
 */
bool parseLimitedM(const std::string &text, unsigned &out,
                   std::string &error);

/**
 * Parse spec text ('#' comments, blank lines, directives — see the
 * file comment) into @p spec, overriding its current fields. On
 * error, fills @p error with a one-line description and returns
 * false; @p spec is then partially updated and must be discarded.
 */
bool parseSweepSpecText(const std::string &text, SweepSpec &spec,
                        std::string &error);

/**
 * The default figure set at @p spec's budgets: baseline, perfect,
 * no-repair, retire-update, backward-walk, snapshot, forward-walk,
 * forward-walk+merge, limited-pc, multi-stage, future-file — every
 * paper configuration at CBPw-Loop128.
 */
std::vector<SweepConfig> defaultFigureConfigs(const SweepSpec &spec);

/** Substitute the default figure set when the spec has no configs. */
void finalizeSweepSpec(SweepSpec &spec);

/**
 * True when @p spec selects the whole suite: `suite all`, or a cap
 * suiteCapIsFull() accepts. buildSpecSuite() builds the same full
 * suite for each, so they share one suite key.
 */
bool specIsFullSuite(const SweepSpec &spec);

/** Build the workload suite @p spec selects (cap or full suite). */
std::vector<Program> buildSpecSuite(const SweepSpec &spec);

/**
 * The cross-client identity of a sweep request: suiteKey(suite)
 * followed by each configuration's display name and configKey(), one
 * per line. Two requests with equal keys produce byte-identical
 * results (CSV included — the name is the CSV's config column), which
 * is exactly the condition under which the daemon coalesces them.
 */
std::string sweepRequestKey(const std::vector<Program> &suite,
                            const std::vector<SweepConfig> &configs);

} // namespace lbp

#endif // LBP_SIM_SWEEP_SPEC_HH
