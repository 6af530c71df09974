#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "base/bitfield.hh"
#include "base/random.hh"
#include "crypto/pac.hh"

namespace pacman::crypto
{
namespace
{

const PacKey key{0x0011223344556677ull, 0x8899aabbccddeeffull};

TEST(Pac, Deterministic)
{
    EXPECT_EQ(computePac(0x1000, 0, key), computePac(0x1000, 0, key));
}

TEST(Pac, DependsOnPointer)
{
    EXPECT_NE(computePac(0x1000, 0, key), computePac(0x2000, 0, key));
}

TEST(Pac, DependsOnModifier)
{
    EXPECT_NE(computePac(0x1000, 1, key), computePac(0x1000, 2, key));
}

TEST(Pac, DependsOnKey)
{
    const PacKey other{key.w0, key.k0 ^ 1};
    EXPECT_NE(computePac(0x1000, 0, key), computePac(0x1000, 0, other));
}

TEST(Pac, WidthTruncation)
{
    // An 11-bit PAC never exceeds 11 bits (the ARM range is 11..31
    // bits depending on configuration; our platform uses 16).
    for (uint64_t p = 0; p < 64; ++p)
        EXPECT_LT(computePac(p << 14, 0, key, 11), 1u << 11);
}

TEST(Pac, SixteenBitDistributionRoughlyUniform)
{
    // Bucket PACs of many pointers: each of 16 coarse buckets should
    // receive a reasonable share.
    std::map<uint16_t, unsigned> buckets;
    const unsigned n = 4096;
    for (unsigned i = 0; i < n; ++i)
        ++buckets[computePac(uint64_t(i) << 14, 0, key) >> 12];
    for (const auto &[bucket, count] : buckets)
        EXPECT_GT(count, n / 16 / 2) << "bucket " << bucket;
    EXPECT_EQ(buckets.size(), 16u);
}

TEST(Pac, KeyNames)
{
    EXPECT_STREQ(pacKeyName(PacKeySelect::IA), "IA");
    EXPECT_STREQ(pacKeyName(PacKeySelect::DB), "DB");
    EXPECT_STREQ(pacKeyName(PacKeySelect::GA), "GA");
}

TEST(Pac, CollisionRateNearExpected)
{
    // Probability two random pointers share a 16-bit PAC should be
    // about 2^-16; over ~20k pairs expect only a few collisions.
    unsigned collisions = 0;
    const unsigned n = 20000;
    const uint16_t reference = computePac(0xABC000, 7, key);
    for (unsigned i = 1; i <= n; ++i) {
        if (computePac(0xABC000 + (uint64_t(i) << 14), 7, key) ==
            reference) {
            ++collisions;
        }
    }
    EXPECT_LT(collisions, 8u); // expectation ~0.3
}

// --- PAC memo vs the cipher ----------------------------------------

/** One computePac input tuple. */
struct PacInput
{
    uint64_t ptr;
    uint64_t mod;
    PacKey key;
    unsigned bits = 16;
    int rounds = 7;
};

/** The PAC straight from the cipher: the top @p in.bits bits. */
uint16_t
cipherPac(const PacInput &in)
{
    const Qarma64 cipher(in.key.w0, in.key.k0, in.rounds);
    return uint16_t(
        bits(cipher.encrypt(in.ptr, in.mod), 63, 64 - in.bits));
}

/**
 * Run @p inputs through computePac with the memo on, @p passes times
 * in order, and require every answer to equal the cipher's. Repeated
 * passes make later answers memo hits (or, where tuples conflict,
 * refills after eviction).
 */
void
expectMemoMatchesCipher(const std::vector<PacInput> &inputs,
                        unsigned passes)
{
    selectPacMemo(FastPath::Traces);
    for (unsigned pass = 0; pass < passes; ++pass) {
        for (size_t i = 0; i < inputs.size(); ++i) {
            const PacInput &in = inputs[i];
            EXPECT_EQ(computePac(in.ptr, in.mod, in.key, in.bits,
                                 in.rounds),
                      cipherPac(in))
                << "pass " << pass << " input " << i;
        }
    }
}

TEST(PacMemo, TuplesForcedIntoOneSetMatchCipher)
{
    // Six tuples sharing one two-way set: every pass evicts, refills
    // and swaps ways, so any mixed-up way would return a wrong PAC.
    Random rng(11);
    const PacInput first{rng.next(), rng.next(), key};
    const size_t set = pacMemoSet(first.ptr, first.mod, first.key.k0);
    std::vector<PacInput> inputs{first};
    while (inputs.size() < 6) {
        const PacInput in{rng.next(), rng.next(), {rng.next(), rng.next()}};
        if (pacMemoSet(in.ptr, in.mod, in.key.k0) == set)
            inputs.push_back(in);
    }
    expectMemoMatchesCipher(inputs, 4);

    // Two tuples alternating in one set: the hit-in-way-1 swap path.
    expectMemoMatchesCipher({inputs[0], inputs[1], inputs[1], inputs[0]},
                            8);
}

TEST(PacMemo, AlternatingKeysMatchCipher)
{
    // As on rekey: the same (pointer, modifier) under keys that
    // alternate, including keys that differ only in w0 — which the
    // set index ignores, so the two land in one set.
    const PacKey keys[] = {key,
                           {key.w0 ^ 1, key.k0},
                           {key.w0, key.k0 ^ 0x8000},
                           {0x0123456789abcdefull, 0xfedcba9876543210ull}};
    std::vector<PacInput> inputs;
    for (unsigned round = 0; round < 3; ++round) {
        for (const PacKey &k : keys)
            inputs.push_back({0xffff8000'00123000ull, 0x6D0D, k});
    }
    expectMemoMatchesCipher(inputs, 3);
}

TEST(PacMemo, WidthAndRoundsAreKeyedApart)
{
    // One (pointer, modifier, key) at several PAC widths and round
    // counts: each maps to the same set, and a memo keyed without
    // width or rounds would hand back another variant's answer.
    std::vector<PacInput> inputs;
    for (const unsigned width : {16u, 11u, 1u, 16u}) {
        for (const int rounds : {7, 5, 7})
            inputs.push_back({0x0000'4000'2000ull, 42, key, width, rounds});
    }
    expectMemoMatchesCipher(inputs, 3);
}

} // namespace
} // namespace pacman::crypto
