// Clean fixture: correct guard, ordered containers, stable integer
// keys, no speculative state, no banned calls — zero findings
// expected. Mentions of "prediction time (stored below)" and "operand
// assert(ions)" in comments — and banned tokens inside string
// literals — must NOT be flagged; the lexer strips comments and
// strings first.
#ifndef LBP_CLEAN_HH
#define LBP_CLEAN_HH

#include <cstdint>
#include <map>

/// A well-behaved lookup table keyed by stable ids.
struct CleanTable {
    void update(std::uint32_t key, std::uint64_t value)
    {
        rows_[key] = value;
    }

    std::uint64_t lookup(std::uint32_t key) const
    {
        auto it = rows_.find(key);
        return it == rows_.end() ? 0 : it->second;
    }

    std::map<std::uint32_t, std::uint64_t> rows_;
};

inline const char *
bannedWordsInStrings()
{
    return "assert( rand( time( <random> <ctime> system_clock";
}

#endif
