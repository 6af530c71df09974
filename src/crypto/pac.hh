/**
 * @file
 * Pointer Authentication Code computation on top of QARMA-64.
 *
 * A PAC is the truncation of QARMA-64(key, pointer, modifier) to the
 * pointer's unused upper bits. On the modelled platform (48-bit VA,
 * macOS-style configuration) the PAC is 16 bits wide, matching the
 * paper's measurements on macOS 12.2.1 / M1.
 */

#ifndef PACMAN_CRYPTO_PAC_HH
#define PACMAN_CRYPTO_PAC_HH

#include <cstddef>
#include <cstdint>

#include "base/fastpath.hh"
#include "crypto/qarma64.hh"

namespace pacman::crypto
{

/** A 128-bit pointer-authentication key (w0 || k0). */
struct PacKey
{
    uint64_t w0 = 0;
    uint64_t k0 = 0;

    bool operator==(const PacKey &) const = default;
};

/**
 * The five ARMv8.3 PA keys: two instruction keys, two data keys, and
 * the generic key. Which key an instruction uses is encoded in its
 * opcode (e.g. pacIA uses IA).
 */
enum class PacKeySelect : uint8_t
{
    IA = 0,
    IB = 1,
    DA = 2,
    DB = 3,
    GA = 4,

    NumKeys = 5,
};

/** Human-readable key name ("IA", ...). */
const char *pacKeyName(PacKeySelect sel);

/**
 * Stateless PAC function: computes the @p pac_bits -bit PAC of
 * @p canonical_ptr (extension bits already canonicalized by the caller)
 * under @p modifier and @p key.
 *
 * @param canonical_ptr Pointer with its PAC field holding the canonical
 *                      extension (the value hashed by hardware).
 * @param modifier      64-bit context/salt (e.g. SP for return.
 *                      addresses, object address for vtable pointers).
 * @param key           128-bit PA key.
 * @param pac_bits      PAC width; 16 on the modelled platform.
 * @param rounds        QARMA forward-round count (7, as deployed).
 */
uint16_t computePac(uint64_t canonical_ptr, uint64_t modifier,
                    const PacKey &key, unsigned pac_bits = 16,
                    int rounds = 7);

/**
 * Set the calling thread's computePac memo from the fast-path level:
 * on at Decode and above, off at Reference. Core::run calls this on
 * entry, so guest code running at Reference measures the uncached
 * cipher; the memo is on for a thread that has run no machine yet.
 *
 * computePac is a pure function, so memoization cannot change any
 * result — a memo hit requires the full (pointer, modifier, key,
 * width, rounds) tuple to match — but the attack's training loops
 * authenticate the same pointer thousands of times, and skipping the
 * repeated QARMA key schedule + rounds is the single largest hot-path
 * win.
 *
 * The table and the flag are thread_local: parallel campaign workers
 * neither share nor contend on memo state.
 *
 * Because entries are keyed by the full tuple *including the key
 * material*, the memo is also snapshot/rekey-safe: Machine::restore()
 * and Kernel::rekey() change which keys are live in the sysregs, but
 * a memo entry for an old key can only be hit by a query using that
 * old key — so no flush is needed (or performed) on either path.
 */
void selectPacMemo(FastPath level);

/** The memo set a tuple maps to (tests use it to force collisions). */
size_t pacMemoSet(uint64_t canonical_ptr, uint64_t modifier, uint64_t k0);

} // namespace pacman::crypto

#endif // PACMAN_CRYPTO_PAC_HH
