#include "sim/sweep_spec.hh"

#include <climits>
#include <cstdint>
#include <sstream>

#include "repair/schemes.hh"
#include "sim/suite_cache.hh"
#include "workload/suite.hh"

namespace lbp {

bool
sweepSchemeKind(const std::string &name, RepairKind &kind)
{
    const struct
    {
        const char *name;
        RepairKind k;
    } names[] = {
        {"perfect", RepairKind::Perfect},
        {"no-repair", RepairKind::NoRepair},
        {"retire-update", RepairKind::RetireUpdate},
        {"backward-walk", RepairKind::BackwardWalk},
        {"snapshot", RepairKind::Snapshot},
        {"forward-walk", RepairKind::ForwardWalk},
        {"limited-pc", RepairKind::LimitedPc},
        {"multi-stage", RepairKind::MultiStage},
        {"future-file", RepairKind::FutureFile},
    };
    for (const auto &n : names) {
        if (name == n.name) {
            kind = n.k;
            return true;
        }
    }
    return false;
}

namespace {

/**
 * Largest OBQ / snapshot queue a config may ask for: each scheme
 * allocates its queue up front, so the bound keeps a hostile spec from
 * exhausting memory. The paper's largest structure has 64 entries.
 */
constexpr unsigned maxRepairEntries = 4096;

/**
 * Parse one `config` line: scheme name plus optional ports=M-N-P,
 * loop=64|128|256, tage=7|9|57, limited-m=M, coalesce, name=<id>
 * modifiers. Budgets are the spec's current ones.
 */
bool
parseConfigLine(std::istringstream &ls, const SweepSpec &spec,
                SweepConfig &out, std::string &error)
{
    std::string scheme;
    if (!(ls >> scheme)) {
        error = "spec: 'config' needs a scheme name";
        return false;
    }

    out = SweepConfig();
    out.name = scheme;
    out.cfg.warmupInstrs = spec.warmupInstrs;
    out.cfg.measureInstrs = spec.measureInstrs;
    if (scheme != "baseline") {
        RepairKind kind;
        if (!sweepSchemeKind(scheme, kind)) {
            error = "spec: unknown scheme '" + scheme + "'";
            return false;
        }
        out.cfg.useLocal = true;
        out.cfg.repair.kind = kind;
    }

    std::string tok;
    while (ls >> tok) {
        if (tok == "coalesce") {
            out.cfg.repair.coalesce = true;
            continue;
        }
        const std::size_t eq = tok.find('=');
        if (eq == std::string::npos) {
            error = "spec: bad config modifier '" + tok + "'";
            return false;
        }
        const std::string k = tok.substr(0, eq);
        const std::string v = tok.substr(eq + 1);
        if (k == "name") {
            out.name = v;
        } else if (k == "ports") {
            if (!parseRepairPorts(v, out.cfg.repair.ports, error)) {
                error = "spec: " + error;
                return false;
            }
        } else if (k == "loop") {
            if (v == "64")
                out.cfg.repair.loop = LoopConfig::entries64();
            else if (v == "128")
                out.cfg.repair.loop = LoopConfig::entries128();
            else if (v == "256")
                out.cfg.repair.loop = LoopConfig::entries256();
            else {
                error = "spec: loop must be 64, 128 or 256";
                return false;
            }
        } else if (k == "tage") {
            if (v == "7")
                out.cfg.tage = TageConfig::kb7();
            else if (v == "9")
                out.cfg.tage = TageConfig::kb9();
            else if (v == "57")
                out.cfg.tage = TageConfig::kb57();
            else {
                error = "spec: tage must be 7, 9 or 57";
                return false;
            }
        } else if (k == "limited-m") {
            if (!parseLimitedM(v, out.cfg.repair.limitedM, error)) {
                error = "spec: " + error;
                return false;
            }
        } else {
            error = "spec: unknown config key '" + k + "'";
            return false;
        }
    }
    return true;
}

} // namespace

bool
parseRepairPorts(const std::string &text, RepairPorts &out,
                 std::string &error)
{
    // The OBQ needs two entries to tell a branch's first instance from
    // its last (Obq asserts it); a 0-port structure repairs nothing.
    const std::size_t d1 = text.find('-');
    const std::size_t d2 =
        d1 == std::string::npos ? d1 : text.find('-', d1 + 1);
    unsigned m = 0, n = 0, p = 0;
    if (d2 == std::string::npos ||
        !parseBounded(text.substr(0, d1), 2u, maxRepairEntries, m) ||
        !parseBounded(text.substr(d1 + 1, d2 - d1 - 1), 1u, UINT_MAX,
                      n) ||
        !parseBounded(text.substr(d2 + 1), 1u, UINT_MAX, p)) {
        error = "ports wants M-N-P with M 2.." +
                std::to_string(maxRepairEntries) +
                " and N, P at least 1";
        return false;
    }
    out = {m, n, p};
    return true;
}

bool
parseLimitedM(const std::string &text, unsigned &out,
              std::string &error)
{
    if (!parseBounded(text, 1u, LimitedPcScheme::maxM, out)) {
        error = "limited-m must be 1.." +
                std::to_string(LimitedPcScheme::maxM);
        return false;
    }
    return true;
}

bool
parseSweepSpecText(const std::string &text, SweepSpec &spec,
                   std::string &error)
{
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        std::istringstream ls(line);
        std::string word;
        if (!(ls >> word))
            continue;
        if (word == "suite") {
            std::string v;
            ls >> v;
            if (v == "all") {
                spec.fullSuite = true;
                spec.suite = 0;
            } else if (parseBounded(v, 0u, UINT_MAX, spec.suite)) {
                spec.fullSuite = false;
            } else {
                error = "spec: suite wants N or all";
                return false;
            }
        } else if (word == "warmup" || word == "instr") {
            std::string v;
            ls >> v;
            std::uint64_t &budget = word == "warmup"
                                        ? spec.warmupInstrs
                                        : spec.measureInstrs;
            if (!parseBounded(v, std::uint64_t{0}, UINT64_MAX, budget)) {
                error = "spec: " + word +
                        " wants a non-negative integer";
                return false;
            }
        } else if (word == "config") {
            SweepConfig sc;
            if (!parseConfigLine(ls, spec, sc, error))
                return false;
            spec.configs.push_back(std::move(sc));
        } else {
            error = "spec: unknown directive '" + word + "'";
            return false;
        }
    }
    return true;
}

std::vector<SweepConfig>
defaultFigureConfigs(const SweepSpec &spec)
{
    const char *schemes[] = {
        "baseline",      "perfect",      "no-repair",
        "retire-update", "backward-walk", "snapshot",
        "forward-walk",  "forward-walk+merge", "limited-pc",
        "multi-stage",   "future-file",
    };
    std::vector<SweepConfig> configs;
    for (const char *s : schemes) {
        std::string scheme = s;
        const bool merge = scheme == "forward-walk+merge";
        std::istringstream mods(merge ? "forward-walk coalesce "
                                        "name=forward-walk+merge"
                                      : scheme);
        SweepConfig sc;
        std::string error;
        // The default set is a fixed, well-formed spec; a parse
        // failure here is a programming error, not user input.
        if (parseConfigLine(mods, spec, sc, error))
            configs.push_back(std::move(sc));
    }
    return configs;
}

void
finalizeSweepSpec(SweepSpec &spec)
{
    if (spec.configs.empty())
        spec.configs = defaultFigureConfigs(spec);
}

bool
specIsFullSuite(const SweepSpec &spec)
{
    return spec.fullSuite || suiteCapIsFull(spec.suite);
}

std::vector<Program>
buildSpecSuite(const SweepSpec &spec)
{
    SuiteOptions sopts;
    sopts.maxWorkloads = spec.fullSuite ? 0 : spec.suite;
    return buildSuite(sopts);
}

std::string
sweepRequestKey(const std::vector<Program> &suite,
                const std::vector<SweepConfig> &configs)
{
    std::string key = suiteKey(suite);
    for (const SweepConfig &sc : configs) {
        key += '\n';
        key += sc.name;
        key += '\x1f';
        key += configKey(sc.cfg);
    }
    return key;
}

} // namespace lbp
