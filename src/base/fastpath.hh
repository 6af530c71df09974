/**
 * @file
 * The simulator's one fast-path switch.
 *
 * The core can run on four ordered rungs. Each rung adds host-side
 * memoization on top of the one below it, and every rung is
 * bit-identical to every other by contract
 * (tests/runner/test_fastpath_equiv.cc):
 *
 *  - Reference:   the plain interpreter over the sparse PhysMem map,
 *                 with the PAC memo off. This is the oracle the
 *                 other rungs are checked against.
 *  - Decode:      adds the decoded-instruction cache, the PhysMem
 *                 frame table and the PAC memo.
 *  - Superblocks: adds the superblock threaded-dispatch engine.
 *  - Traces:      adds timing-trace replay of superblocks'
 *                 data-side hierarchy walks (DESIGN.md §4k). This is
 *                 the default.
 *
 * A machine holds one level (kernel::MachineConfig::fastPath). Its
 * default comes from the PACMAN_FASTPATH environment variable, read
 * once per process.
 */

#ifndef PACMAN_BASE_FASTPATH_HH
#define PACMAN_BASE_FASTPATH_HH

#include <cstdint>
#include <stdexcept>
#include <string>

namespace pacman
{

/** Fast-path rungs, ordered: each one implies all below it. */
enum class FastPath : uint8_t
{
    Reference,
    Decode,
    Superblocks,
    Traces,
};

/** Lower-case name of @p level ("reference", ..., "traces"). */
const char *fastPathName(FastPath level);

/** A PACMAN_FASTPATH value that names no level. */
class FastPathError : public std::invalid_argument
{
  public:
    explicit FastPathError(const std::string &what)
        : std::invalid_argument(what)
    {
    }
};

/**
 * Parse a PACMAN_FASTPATH value. nullptr (the variable is unset)
 * gives Traces; otherwise @p value must be exactly one of the four
 * level names.
 * @throws FastPathError for anything else (empty, unknown, trailing
 *         characters); the message names the accepted values.
 */
FastPath parseFastPath(const char *value);

/**
 * The process-wide default level: PACMAN_FASTPATH parsed once, on
 * first use. A bad value is a configuration error and exits via
 * fatal().
 */
FastPath defaultFastPath();

} // namespace pacman

#endif // PACMAN_BASE_FASTPATH_HH
