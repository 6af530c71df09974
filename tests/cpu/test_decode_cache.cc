/**
 * @file
 * Coverage for the front-end decoded-instruction cache: unit-level
 * behavior of the DecodeCache structure (generation staleness,
 * negative-decode memoization, two-way conflict retention, epoch
 * flushes) and core-level invalidation correctness (self-modifying
 * writes from both the host and the guest, page remap/unmap, and the
 * SIGILL-style UndefinedInst exit).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "asm/assembler.hh"
#include "cpu/core.hh"
#include "cpu/decode_cache.hh"
#include "mem/hierarchy.hh"

namespace pacman::cpu
{
namespace
{

using namespace pacman::isa;
using asmjit::Assembler;

/** Encoded word of a single-instruction snippet. */
template <typename Emit>
InstWord
wordOf(Emit emit)
{
    Assembler a(0);
    emit(a);
    return a.finalize().words[0];
}

Inst
instOf(InstWord word)
{
    const auto inst = isa::decode(word);
    EXPECT_TRUE(inst.has_value());
    return *inst;
}

// --- DecodeCache unit level -----------------------------------------

TEST(DecodeCacheUnit, InsertLookupRoundTrip)
{
    DecodeCache c;
    const Addr pa = 0x1000;
    const Inst inst =
        instOf(wordOf([](Assembler &a) { a.movz(X0, 7); }));

    EXPECT_EQ(c.lookup(pa, 1), nullptr);
    c.insert(pa, 1, inst);
    const auto *e = c.lookup(pa, 1);
    ASSERT_NE(e, nullptr);
    EXPECT_FALSE(e->undefined);
    EXPECT_EQ(e->inst, inst);
    EXPECT_EQ(c.lookup(pa + 4, 1), nullptr);
}

TEST(DecodeCacheUnit, StaleGenerationDropsEntry)
{
    DecodeCache c;
    const Addr pa = 0x2000;
    c.insert(pa, 5, instOf(wordOf([](Assembler &a) { a.movz(X0, 1); })));

    // A write to the page bumped its generation: the lookup must miss
    // and must also drop the entry, so the original generation can
    // never match again later.
    EXPECT_EQ(c.lookup(pa, 6), nullptr);
    EXPECT_EQ(c.lookup(pa, 5), nullptr);
}

TEST(DecodeCacheUnit, NegativeDecodeMemoized)
{
    DecodeCache c;
    const Addr pa = 0x3000;
    c.insertUndefined(pa, 2, 0xFFFF'FFFFu);
    const auto *e = c.lookup(pa, 2);
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->undefined);
    EXPECT_EQ(e->word, 0xFFFF'FFFFu);
}

TEST(DecodeCacheUnit, EpochChangeFlushes)
{
    DecodeCache c;
    const Addr pa = 0x4000;
    const Inst inst =
        instOf(wordOf([](Assembler &a) { a.movz(X0, 1); }));

    c.insert(pa, 1, inst);
    c.syncEpoch(0); // construction epoch: no change, no flush
    EXPECT_NE(c.lookup(pa, 1), nullptr);
    c.syncEpoch(1); // page remap / flushAll moved the epoch
    EXPECT_EQ(c.lookup(pa, 1), nullptr);
}

TEST(DecodeCacheUnit, TwoWaysRetainConflictingPair)
{
    // These three PAs land in the same set under the current index
    // hash (the first two are the user-trampoline/kernel-gadget pair
    // the training loop actually alternates between — the thrash
    // pattern that motivated two ways).
    const Addr a = 0x4000'0000;
    const Addr b = 0x8000'0010'0110;
    const Addr d = 0x10;

    DecodeCache c;
    const Inst inst =
        instOf(wordOf([](Assembler &a2) { a2.movz(X0, 1); }));
    c.insert(a, 1, inst);
    c.insert(b, 1, inst);
    EXPECT_NE(c.lookup(a, 1), nullptr);
    EXPECT_NE(c.lookup(b, 1), nullptr);

    // Touch a (making b the LRU victim), then insert a third
    // conflicting PA: b is evicted, a survives.
    EXPECT_NE(c.lookup(a, 1), nullptr);
    c.insert(d, 1, inst);
    EXPECT_NE(c.lookup(a, 1), nullptr);
    EXPECT_NE(c.lookup(d, 1), nullptr);
    EXPECT_EQ(c.lookup(b, 1), nullptr);
}

// --- Core-level invalidation ----------------------------------------

constexpr Addr CodeBase = 0x0000'4000'0000ull;
constexpr Addr SlotBase = CodeBase + PageSize;
constexpr Addr DataBase = 0x0000'6000'0000ull;

class DecodeCacheCoreTest : public ::testing::Test
{
  protected:
    DecodeCacheCoreTest()
        : rng(1), hier(mem::m1PCoreConfig(), &rng, cacheOnLevel()),
          core(CoreConfig{}, &hier, &rng)
    {
        mapPages(hier);
    }

    static void
    mapPages(mem::MemoryHierarchy &h)
    {
        h.mapRange(CodeBase, 16 * PageSize,
                   mem::PageFlags{.user = true, .writable = true,
                                  .executable = true, .device = false});
        h.mapRange(DataBase, 16 * PageSize,
                   mem::PageFlags{.user = true, .writable = true,
                                  .executable = false, .device = false});
    }

    /** The default level, raised to Decode where it is lower. */
    static FastPath
    cacheOnLevel()
    {
        return std::max(defaultFastPath(), FastPath::Decode);
    }

    void
    writeWords(Addr base, std::initializer_list<InstWord> words)
    {
        Addr addr = base;
        for (InstWord w : words) {
            hier.writeVirt(addr, w, 4);
            addr += InstBytes;
        }
    }

    ExitStatus
    runFrom(Addr pc)
    {
        core.setPc(pc);
        core.setEl(0);
        return core.run(1'000'000);
    }

    Random rng;
    mem::MemoryHierarchy hier;
    Core core;
};

TEST_F(DecodeCacheCoreTest, HostWriteInvalidates)
{
    writeWords(SlotBase,
               {wordOf([](Assembler &a) { a.movz(X0, 1); }),
                wordOf([](Assembler &a) { a.hlt(0); })});

    EXPECT_EQ(runFrom(SlotBase).kind, ExitKind::Halted);
    EXPECT_EQ(core.reg(X0), 1u);
    const uint64_t misses1 = core.superblockStats().decodeMisses;
    EXPECT_GT(misses1, 0u);

    // Re-run: same code, all fetches served from the decode cache.
    EXPECT_EQ(runFrom(SlotBase).kind, ExitKind::Halted);
    EXPECT_EQ(core.superblockStats().decodeMisses, misses1);
    EXPECT_GT(core.superblockStats().decodeHits, 0u);

    // Host (functional) write to the code page: the page generation
    // moves, so the stale decode must not be served.
    hier.writeVirt(SlotBase,
                   wordOf([](Assembler &a) { a.movz(X0, 3); }), 4);
    EXPECT_EQ(runFrom(SlotBase).kind, ExitKind::Halted);
    EXPECT_EQ(core.reg(X0), 3u);
}

TEST_F(DecodeCacheCoreTest, GuestStoreInvalidatesSameRun)
{
    // Self-modifying guest: the program overwrites the slot it is
    // about to branch into, within a single run(). The stored 64-bit
    // value replaces [movz X0,1][hlt] with [movz X0,2][hlt].
    const InstWord new_movz =
        wordOf([](Assembler &a) { a.movz(X0, 2); });
    const InstWord hlt_word = wordOf([](Assembler &a) { a.hlt(0); });

    writeWords(SlotBase,
               {wordOf([](Assembler &a) { a.movz(X0, 1); }), hlt_word});
    // Warm the decode cache with the original slot contents.
    EXPECT_EQ(runFrom(SlotBase).kind, ExitKind::Halted);
    EXPECT_EQ(core.reg(X0), 1u);

    Assembler a(CodeBase);
    a.mov64(X2, SlotBase);
    a.mov64(X3, (uint64_t(hlt_word) << 32) | new_movz);
    a.str(X3, X2);
    a.b(SlotBase);
    {
        const asmjit::Program p = a.finalize();
        Addr addr = p.base;
        for (InstWord w : p.words) {
            hier.writeVirt(addr, w, 4);
            addr += InstBytes;
        }
    }

    EXPECT_EQ(runFrom(CodeBase).kind, ExitKind::Halted);
    EXPECT_EQ(core.reg(X0), 2u);
}

TEST_F(DecodeCacheCoreTest, RemapExecutesNewFrame)
{
    writeWords(SlotBase,
               {wordOf([](Assembler &a) { a.movz(X0, 1); }),
                wordOf([](Assembler &a) { a.hlt(0); })});
    EXPECT_EQ(runFrom(SlotBase).kind, ExitKind::Halted);
    EXPECT_EQ(core.reg(X0), 1u);

    // Stage different code in another physical frame (the one backing
    // the first DataBase page), remap the slot's VA onto it, and do
    // the TLB shootdown a kernel would. The old frame's bytes are
    // untouched, so a stale decode entry would still "match" — only
    // the epoch/PA keying makes the new code visible.
    const uint64_t ppn2 = DataBase >> PageShift;
    hier.phys().write(DataBase,
                      wordOf([](Assembler &a) { a.movz(X0, 2); }), 4);
    hier.phys().write(DataBase + 4,
                      wordOf([](Assembler &a) { a.hlt(0); }), 4);
    hier.pageTable().mapTo(SlotBase, ppn2,
                           mem::PageFlags{.user = true,
                                          .writable = true,
                                          .executable = true,
                                          .device = false});
    hier.flushAll();

    EXPECT_EQ(runFrom(SlotBase).kind, ExitKind::Halted);
    EXPECT_EQ(core.reg(X0), 2u);
}

TEST_F(DecodeCacheCoreTest, UnmapFaultsInsteadOfServingStaleDecode)
{
    writeWords(SlotBase,
               {wordOf([](Assembler &a) { a.movz(X0, 1); }),
                wordOf([](Assembler &a) { a.hlt(0); })});
    EXPECT_EQ(runFrom(SlotBase).kind, ExitKind::Halted);

    hier.pageTable().unmap(SlotBase);
    hier.flushAll();

    const ExitStatus status = runFrom(SlotBase);
    EXPECT_EQ(status.kind, ExitKind::CrashEl0);
    EXPECT_EQ(status.fault, mem::Fault::Translation);
}

TEST_F(DecodeCacheCoreTest, UndefinedInstructionExit)
{
    const InstWord garbage = 0xFFFF'FFFFu;
    ASSERT_FALSE(isa::decode(garbage).has_value());
    writeWords(SlotBase, {garbage});

    const ExitStatus status = runFrom(SlotBase);
    EXPECT_EQ(status.kind, ExitKind::UndefinedInst);
    EXPECT_EQ(status.code, garbage);
    EXPECT_EQ(status.pc, SlotBase);

    // Second run is served by the negative-decode memo and must take
    // the identical exit.
    const uint64_t hits1 = core.superblockStats().decodeHits;
    const ExitStatus again = runFrom(SlotBase);
    EXPECT_EQ(again.kind, ExitKind::UndefinedInst);
    EXPECT_EQ(again.code, garbage);
    EXPECT_GT(core.superblockStats().decodeHits, hits1);
}

TEST_F(DecodeCacheCoreTest, DisabledCacheCountsNothing)
{
    mem::MemoryHierarchy ref_hier(mem::m1PCoreConfig(), &rng,
                                  FastPath::Reference);
    mapPages(ref_hier);
    Core slow(CoreConfig{}, &ref_hier, &rng);

    Addr addr = SlotBase;
    for (const InstWord w :
         {wordOf([](Assembler &a) { a.movz(X0, 9); }),
          wordOf([](Assembler &a) { a.hlt(0); })}) {
        ref_hier.writeVirt(addr, w, 4);
        addr += InstBytes;
    }
    slow.setPc(SlotBase);
    slow.setEl(0);
    EXPECT_EQ(slow.run(1'000'000).kind, ExitKind::Halted);
    EXPECT_EQ(slow.reg(X0), 9u);
    EXPECT_EQ(slow.superblockStats().decodeHits, 0u);
    EXPECT_EQ(slow.superblockStats().decodeMisses, 0u);
}

} // namespace
} // namespace pacman::cpu
