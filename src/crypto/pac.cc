#include "pac.hh"

#include <array>
#include <utility>

#include "base/bitfield.hh"
#include "base/logging.hh"

namespace pacman::crypto
{

namespace
{

/** One memoized PAC: the full input tuple plus the result. */
struct PacMemoEntry
{
    uint64_t ptr = 0;
    uint64_t mod = 0;
    uint64_t w0 = 0;
    uint64_t k0 = 0;
    uint32_t meta = ~0u; //!< pac_bits << 8 | rounds; ~0u = empty
    uint16_t pac = 0;
};

/**
 * Two ways per set: the attack's hot loops juggle a handful of live
 * tuples (train auth, probe auth, legit re-sign) whose hashes can
 * collide; direct mapping made such pairs ping-pong and re-run the
 * QARMA key schedule on every alternation. Way 0 is the MRU entry
 * (hits in way 1 swap to the front; fills shift way 0 back).
 */
struct PacMemoSet
{
    PacMemoEntry way[2];
};

constexpr size_t PacMemoSets = 1024; //!< power of two

thread_local std::array<PacMemoSet, PacMemoSets> pacMemoTable;

thread_local bool pacMemoOn = true;

} // namespace

size_t
pacMemoSet(uint64_t ptr, uint64_t mod, uint64_t k0)
{
    // Full multiplicative mix before truncation: the live tuples are
    // page-aligned kernel pointers sharing their high half, so any
    // index built from xor-folded raw bits alone puts them all in one
    // set (bits [13:0] zero, bits [63:47] equal) and the memo thrashes.
    uint64_t h = ptr ^ (mod * 0x9e3779b97f4a7c15ull) ^ k0;
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 29;
    return size_t(h) & (PacMemoSets - 1);
}

const char *
pacKeyName(PacKeySelect sel)
{
    switch (sel) {
      case PacKeySelect::IA: return "IA";
      case PacKeySelect::IB: return "IB";
      case PacKeySelect::DA: return "DA";
      case PacKeySelect::DB: return "DB";
      case PacKeySelect::GA: return "GA";
      default: panic("pacKeyName: bad key selector %d", int(sel));
    }
}

uint16_t
computePac(uint64_t canonical_ptr, uint64_t modifier, const PacKey &key,
           unsigned pac_bits, int rounds)
{
    PACMAN_ASSERT(pac_bits >= 1 && pac_bits <= 16,
                  "unsupported PAC width %u", pac_bits);
    const uint32_t meta = (pac_bits << 8) | uint32_t(rounds & 0xff);
    PacMemoSet *set = nullptr;
    const auto matches = [&](const PacMemoEntry &e) {
        return e.ptr == canonical_ptr && e.mod == modifier &&
               e.w0 == key.w0 && e.k0 == key.k0 && e.meta == meta;
    };
    if (pacMemoOn) {
        set = &pacMemoTable[pacMemoSet(canonical_ptr, modifier, key.k0)];
        if (matches(set->way[0]))
            return set->way[0].pac;
        if (matches(set->way[1])) {
            std::swap(set->way[0], set->way[1]);
            return set->way[0].pac;
        }
    }
    const Qarma64 cipher(key.w0, key.k0, rounds);
    const uint64_t ct = cipher.encrypt(canonical_ptr, modifier);
    // Truncate to the upper unused pointer bits' width. Taking the top
    // bits of the ciphertext mirrors hardware, which slices the QARMA
    // output into the PAC field.
    const auto pac = uint16_t(bits(ct, 63, 64 - pac_bits));
    if (set) {
        set->way[1] = set->way[0];
        set->way[0] =
            PacMemoEntry{canonical_ptr, modifier, key.w0, key.k0, meta, pac};
    }
    return pac;
}

void
selectPacMemo(FastPath level)
{
    pacMemoOn = level >= FastPath::Decode;
}

} // namespace pacman::crypto
