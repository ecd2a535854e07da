// Seeded violations: a guard that does not follow LBP_<DIR>_<FILE>_HH
// and an include that escapes the source root with "../".
// Must be flagged with include-guard and no-parent-include.

#ifndef WRONG_GUARD_H
#define WRONG_GUARD_H

#include "../outside/helper.hh"

#endif // WRONG_GUARD_H
