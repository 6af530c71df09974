/**
 * @file
 * Coverage for the committed-fast-path superblock engine: unit-level
 * behavior of the SuperblockCache (generation staleness, epoch
 * flushes) and of buildSuperblock's trace discovery (branch
 * following, likely-direction heuristics, page and length limits),
 * plus core-level equivalence — a core running with superblocks must
 * be bit-identical to the plain interpreter across loops,
 * self-modifying stores into the running block, host writes, page
 * remap/unmap, budget exits mid-block, and snapshot restores across a
 * half-executed block.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "asm/assembler.hh"
#include "base/stats.hh"
#include "cpu/core.hh"
#include "cpu/superblock.hh"
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

// --- SuperblockCache unit level -------------------------------------

TEST(SuperblockCacheUnit, StaleGenerationDropsEntry)
{
    SuperblockCache c;
    SuperblockStats stats;
    const Addr pa = 0x2000;

    Superblock &slot = c.insertSlot(pa, 5);
    slot.ops.push_back({});
    ASSERT_NE(c.lookup(pa, 5, &stats), nullptr);
    EXPECT_EQ(stats.invalidations, 0u);

    // A write to the page bumped its generation: the lookup must miss,
    // count the invalidation, and drop the entry so the original
    // generation can never match again later.
    EXPECT_EQ(c.lookup(pa, 6, &stats), nullptr);
    EXPECT_EQ(stats.invalidations, 1u);
    EXPECT_EQ(c.lookup(pa, 5, &stats), nullptr);
    EXPECT_EQ(stats.invalidations, 1u);
}

TEST(SuperblockCacheUnit, EpochChangeFlushes)
{
    SuperblockCache c;
    SuperblockStats stats;
    const Addr pa = 0x4000;

    c.insertSlot(pa, 1).ops.push_back({});
    c.syncEpoch(0, &stats); // construction epoch: no change, no flush
    EXPECT_NE(c.lookup(pa, 1, &stats), nullptr);
    EXPECT_EQ(stats.invalidations, 0u);

    c.syncEpoch(1, &stats); // flushAll moved the epoch
    EXPECT_EQ(c.lookup(pa, 1, &stats), nullptr);
    EXPECT_EQ(stats.invalidations, 1u);
}

TEST(SuperblockCacheUnit, InsertSlotReclaimsSameKey)
{
    SuperblockCache c;
    SuperblockStats stats;
    const Addr pa = 0x8000;

    Superblock &first = c.insertSlot(pa, 1);
    first.ops.push_back({});
    // A rebuild of the same entry PA must reclaim the same slot (not
    // shadow it in the other way) with the op list cleared.
    Superblock &again = c.insertSlot(pa, 2);
    EXPECT_EQ(&first, &again);
    EXPECT_TRUE(again.ops.empty());
    EXPECT_EQ(again.gen, 2u);
}

// --- buildSuperblock trace discovery --------------------------------

/** Assemble at @p va and write the words into @p phys at pa == va. */
Addr
stage(mem::PhysMem &phys, Addr va, const std::function<void(Assembler &)> &emit)
{
    Assembler a(va);
    emit(a);
    const asmjit::Program p = a.finalize();
    Addr addr = p.base;
    for (InstWord w : p.words) {
        phys.write(addr, w, 4);
        addr += InstBytes;
    }
    return p.base;
}

Superblock
discover(mem::PhysMem &phys, Addr pa, unsigned max_ops = 64)
{
    Superblock sb;
    sb.pa = pa;
    sb.gen = phys.pageGen(pa);
    buildSuperblock(sb, phys, max_ops);
    return sb;
}

TEST(SuperblockBuild, StraightLineStopsAtHlt)
{
    mem::PhysMem phys;
    const Addr base = 0x4000'0000;
    stage(phys, base, [](Assembler &a) {
        a.movz(X0, 1);
        a.movz(X1, 2);
        a.hlt(0);
    });

    const Superblock sb = discover(phys, base);
    ASSERT_EQ(sb.ops.size(), 2u); // HLT is interpreter-only
    EXPECT_EQ(sb.ops[0].pageOff, 0u);
    EXPECT_EQ(sb.ops[1].pageOff, 4u);
    EXPECT_EQ(sb.ops[0].kind, SbOpKind::Alu);
}

TEST(SuperblockBuild, FollowsUnconditionalBranch)
{
    mem::PhysMem phys;
    const Addr base = 0x4000'0000;
    stage(phys, base, [&](Assembler &a) {
        a.movz(X0, 1);     // +0
        a.b(base + 16);    // +4: skip the dead words
        a.movz(X0, 9);     // +8: never reached
        a.movz(X0, 9);     // +12
        a.movz(X1, 2);     // +16: branch target
        a.hlt(0);          // +20
    });

    const Superblock sb = discover(phys, base);
    ASSERT_EQ(sb.ops.size(), 3u);
    EXPECT_EQ(sb.ops[0].pageOff, 0u);
    EXPECT_EQ(sb.ops[1].pageOff, 4u);
    EXPECT_EQ(sb.ops[1].kind, SbOpKind::Branch);
    EXPECT_EQ(sb.ops[2].pageOff, 16u);
}

TEST(SuperblockBuild, BackwardCondBranchUnrollsLoop)
{
    mem::PhysMem phys;
    const Addr base = 0x4000'0000;
    stage(phys, base, [&](Assembler &a) {
        a.subsi(X0, X0, 1); // +0: loop body
        a.cbnz(X0, base);   // +4: back-edge, assumed taken
    });

    const Superblock sb = discover(phys, base, 9);
    // The trace unrolls body/back-edge pairs up to the cap: offsets
    // alternate 0,4,0,4,...
    ASSERT_EQ(sb.ops.size(), 9u);
    for (size_t i = 0; i < sb.ops.size(); ++i)
        EXPECT_EQ(sb.ops[i].pageOff, (i % 2) * 4) << "op " << i;
}

TEST(SuperblockBuild, ForwardCondBranchFallsThrough)
{
    mem::PhysMem phys;
    const Addr base = 0x4000'0000;
    stage(phys, base, [&](Assembler &a) {
        a.cbnz(X0, base + 12); // +0: forward guard, assumed not-taken
        a.movz(X1, 1);         // +4
        a.hlt(0);              // +8
        a.movz(X2, 2);         // +12: guard target, not in the trace
    });

    const Superblock sb = discover(phys, base);
    ASSERT_EQ(sb.ops.size(), 2u);
    EXPECT_EQ(sb.ops[0].pageOff, 0u);
    EXPECT_EQ(sb.ops[0].kind, SbOpKind::BranchCond);
    EXPECT_EQ(sb.ops[1].pageOff, 4u);
}

TEST(SuperblockBuild, OffPageBranchEndsTrace)
{
    mem::PhysMem phys;
    const Addr base = 0x4000'0000;
    stage(phys, base, [&](Assembler &a) {
        a.movz(X0, 1);            // +0
        a.b(base + PageSize + 8); // +4: leaves the page
        // next page: would continue here if traces could span pages
    });
    stage(phys, base + PageSize + 8,
          [](Assembler &a) { a.movz(X1, 2); });

    const Superblock sb = discover(phys, base);
    // The off-page branch is the trace's last op; discovery must not
    // cross into the second page (one block = one write generation).
    ASSERT_EQ(sb.ops.size(), 2u);
    EXPECT_EQ(sb.ops[1].kind, SbOpKind::Branch);
}

TEST(SuperblockBuild, UndecodableWordEndsTrace)
{
    mem::PhysMem phys;
    const Addr base = 0x4000'0000;
    stage(phys, base, [](Assembler &a) {
        a.movz(X0, 1);
        a.movz(X1, 2);
    });
    phys.write(base + 8, 0xFFFF'FFFFu, 4);
    ASSERT_FALSE(isa::decode(0xFFFF'FFFFu).has_value());

    const Superblock sb = discover(phys, base);
    EXPECT_EQ(sb.ops.size(), 2u);
}

// --- Core-level equivalence -----------------------------------------

constexpr Addr CodeBase = 0x0000'4000'0000ull;
constexpr Addr SlotBase = CodeBase + PageSize;
constexpr Addr DataBase = 0x0000'6000'0000ull;

/** One independent core+hierarchy, superblocks on or off. */
struct Rig
{
    explicit Rig(bool superblocks)
        : rng(1), hier(mem::m1PCoreConfig(), &rng, level(superblocks)),
          core(CoreConfig{}, &hier, &rng)
    {
        hier.mapRange(CodeBase, 16 * PageSize,
                      mem::PageFlags{.user = true, .writable = true,
                                     .executable = true,
                                     .device = false});
        hier.mapRange(DataBase, 16 * PageSize,
                      mem::PageFlags{.user = true, .writable = true,
                                     .executable = false,
                                     .device = false});
    }

    /** Superblocks on: the default level, raised to Superblocks
     *  where it is lower. Off: Decode. */
    static FastPath
    level(bool superblocks)
    {
        return superblocks
                   ? std::max(defaultFastPath(), FastPath::Superblocks)
                   : FastPath::Decode;
    }

    void
    assemble(Addr va, const std::function<void(Assembler &)> &emit)
    {
        Assembler a(va);
        emit(a);
        const asmjit::Program p = a.finalize();
        Addr addr = p.base;
        for (InstWord w : p.words) {
            hier.writeVirt(addr, w, 4);
            addr += InstBytes;
        }
    }

    ExitStatus
    runFrom(Addr pc, uint64_t budget = 1'000'000)
    {
        core.setPc(pc);
        core.setEl(0);
        return core.run(budget);
    }

    /**
     * Everything observable: registers, pc, flags, cycle, retired and
     * branch counters, and every cache/TLB hit/miss pair. The
     * superblock engine must not perturb one bit of it.
     */
    std::string
    dump()
    {
        std::string s;
        for (unsigned r = 0; r < NumRegs; ++r)
            s += strprintf("x%u=%llx ", r,
                           (unsigned long long)core.reg(r));
        s += strprintf("pc=%llx nzcv=%u%u%u%u cycle=%llu ",
                       (unsigned long long)core.pc(),
                       core.flags().n, core.flags().z, core.flags().c,
                       core.flags().v,
                       (unsigned long long)core.cycle());
        const CoreStats &cs = core.stats();
        s += strprintf("ret=%llu br=%llu mp=%llu ",
                       (unsigned long long)cs.instsRetired,
                       (unsigned long long)cs.branches,
                       (unsigned long long)cs.branchMispredicts);
        const auto structure = [&](const char *name, uint64_t hits,
                                   uint64_t misses) {
            s += strprintf("%s=%llu/%llu ", name,
                           (unsigned long long)hits,
                           (unsigned long long)misses);
        };
        structure("l1i", hier.l1i().hits(), hier.l1i().misses());
        structure("l1d", hier.l1d().hits(), hier.l1d().misses());
        structure("l2", hier.l2().hits(), hier.l2().misses());
        structure("itlb0", hier.itlb(0).hits(), hier.itlb(0).misses());
        structure("dtlb", hier.dtlb().hits(), hier.dtlb().misses());
        return s;
    }

    Random rng;
    mem::MemoryHierarchy hier;
    Core core;
};

/** A counted loop with loads/stores: the block-friendly hot shape. */
void
emitLoop(Assembler &a, unsigned iters)
{
    a.movz(X0, uint16_t(iters));
    a.mov64(X2, DataBase);
    a.movz(X1, 0);
    // loop: X1 += X0; mem[X2] = X1; X3 = mem[X2]; X0 -= 1; cbnz loop
    const Addr loop = a.here();
    a.add(X1, X1, X0);
    a.str(X1, X2);
    a.ldr(X3, X2);
    a.subsi(X0, X0, 1);
    a.cbnz(X0, loop);
    a.hlt(0);
}

TEST(SuperblockCore, LoopBitIdenticalToInterpreter)
{
    Rig fast(true), slow(false);
    for (Rig *r : {&fast, &slow}) {
        r->assemble(SlotBase, [](Assembler &a) { emitLoop(a, 100); });
        EXPECT_EQ(r->runFrom(SlotBase).kind, ExitKind::Halted);
    }
    EXPECT_EQ(fast.dump(), slow.dump());
    // Vacuity guard: the loop must actually have run inside blocks.
    EXPECT_GT(fast.core.superblockStats().blockInsts, 100u);
    EXPECT_EQ(slow.core.superblockStats().blockInsts, 0u);
}

TEST(SuperblockCore, BudgetExitMidBlockBitIdentical)
{
    // Stop both cores mid-loop — for the fast rig that is a budget
    // exit from inside a half-executed superblock — then resume to
    // completion. State must match at the pause and at the end.
    Rig fast(true), slow(false);
    for (Rig *r : {&fast, &slow}) {
        r->assemble(SlotBase, [](Assembler &a) { emitLoop(a, 100); });
        EXPECT_EQ(r->runFrom(SlotBase, 137).kind, ExitKind::MaxInsts);
    }
    EXPECT_EQ(fast.dump(), slow.dump());
    for (Rig *r : {&fast, &slow})
        EXPECT_EQ(r->core.run(1'000'000).kind, ExitKind::Halted);
    EXPECT_EQ(fast.dump(), slow.dump());
}

TEST(SuperblockCore, GuestStoreIntoRunningBlockBitIdentical)
{
    // Self-modifying guest: the loop body stores over its own head —
    // the pair [add][subsi] the back-edge is about to jump to —
    // replacing it with [hlt 7][hlt 0]. The store lands on the
    // running block's own page while later trace ops still cover the
    // patched slots (the unrolled back-edge), the canonical
    // SMC-into-the-running-block case. Both cores must take the same
    // early exit with the same state.
    const InstWord hlt7 = wordOf([](Assembler &a) { a.hlt(7); });
    const InstWord hlt0 = wordOf([](Assembler &a) { a.hlt(0); });
    auto emit = [&](Assembler &a) {
        a.movz(X0, 50);
        a.mov64(X4, (uint64_t(hlt0) << 32) | hlt7);
        a.movz(X1, 0);
        const Addr loop = a.here();
        a.add(X1, X1, X0);
        a.subsi(X0, X0, 30);
        a.mov64(X2, loop);
        a.str(X4, X2);
        a.cbnz(X0, loop);
        a.hlt(0);
    };

    Rig fast(true), slow(false);
    ExitStatus fast_st, slow_st;
    fast.assemble(SlotBase, emit);
    slow.assemble(SlotBase, emit);
    fast_st = fast.runFrom(SlotBase);
    slow_st = slow.runFrom(SlotBase);
    EXPECT_EQ(fast_st.kind, ExitKind::Halted);
    EXPECT_EQ(slow_st.kind, ExitKind::Halted);
    EXPECT_EQ(fast_st.code, slow_st.code);
    EXPECT_EQ(fast_st.code, 7u); // the patched-in HLT, not the final one
    EXPECT_EQ(fast.dump(), slow.dump());
}

TEST(SuperblockCore, HostWriteInvalidates)
{
    Rig fast(true);
    fast.assemble(SlotBase, [](Assembler &a) {
        a.movz(X0, 1);
        a.hlt(0);
    });
    EXPECT_EQ(fast.runFrom(SlotBase).kind, ExitKind::Halted);
    EXPECT_EQ(fast.core.reg(X0), 1u);

    // Re-run: served by the cached block.
    const uint64_t built1 = fast.core.superblockStats().blocksBuilt;
    EXPECT_EQ(fast.runFrom(SlotBase).kind, ExitKind::Halted);
    EXPECT_EQ(fast.core.superblockStats().blocksBuilt, built1);
    EXPECT_GT(fast.core.superblockStats().blockHits, 0u);

    // Host (functional) write moves the page generation: the stale
    // block must be dropped and the new code executed.
    fast.hier.writeVirt(SlotBase,
                        wordOf([](Assembler &a) { a.movz(X0, 3); }), 4);
    const uint64_t inval1 = fast.core.superblockStats().invalidations;
    EXPECT_EQ(fast.runFrom(SlotBase).kind, ExitKind::Halted);
    EXPECT_EQ(fast.core.reg(X0), 3u);
    EXPECT_GT(fast.core.superblockStats().invalidations, inval1);
}

TEST(SuperblockCore, RemapExecutesNewFrame)
{
    Rig fast(true);
    fast.assemble(SlotBase, [](Assembler &a) {
        a.movz(X0, 1);
        a.hlt(0);
    });
    EXPECT_EQ(fast.runFrom(SlotBase).kind, ExitKind::Halted);
    EXPECT_EQ(fast.core.reg(X0), 1u);

    // Stage different code in the frame backing the first DataBase
    // page, remap the slot's VA onto it, and do the TLB shootdown a
    // kernel would. The old frame's bytes (and generation) are
    // untouched — only the PA keying makes the new code visible.
    const uint64_t ppn2 = DataBase >> PageShift;
    fast.hier.phys().write(
        DataBase, wordOf([](Assembler &a) { a.movz(X0, 2); }), 4);
    fast.hier.phys().write(
        DataBase + 4, wordOf([](Assembler &a) { a.hlt(0); }), 4);
    fast.hier.pageTable().mapTo(SlotBase, ppn2,
                                mem::PageFlags{.user = true,
                                               .writable = true,
                                               .executable = true,
                                               .device = false});
    fast.hier.flushAll();

    EXPECT_EQ(fast.runFrom(SlotBase).kind, ExitKind::Halted);
    EXPECT_EQ(fast.core.reg(X0), 2u);
}

TEST(SuperblockCore, UnmapFaultsInsteadOfServingStaleBlock)
{
    Rig fast(true);
    fast.assemble(SlotBase, [](Assembler &a) {
        a.movz(X0, 1);
        a.hlt(0);
    });
    EXPECT_EQ(fast.runFrom(SlotBase).kind, ExitKind::Halted);

    fast.hier.pageTable().unmap(SlotBase);
    fast.hier.flushAll();

    const ExitStatus status = fast.runFrom(SlotBase);
    EXPECT_EQ(status.kind, ExitKind::CrashEl0);
    EXPECT_EQ(status.fault, mem::Fault::Translation);
}

TEST(SuperblockCore, RestoreAcrossHalfExecutedBlockBitIdentical)
{
    // Pause mid-block (budget exit inside a superblock), snapshot,
    // finish the run, then restore and finish again: both completions
    // must be bit-identical — and identical to the interpreter doing
    // the same dance. This is the per-item campaign pattern with the
    // restore point landing inside a half-executed block.
    Rig fast(true), slow(false);
    std::string fast_end1, fast_end2, slow_end1, slow_end2;
    for (Rig *r : {&fast, &slow}) {
        r->assemble(SlotBase, [](Assembler &a) { emitLoop(a, 200); });
        EXPECT_EQ(r->runFrom(SlotBase, 231).kind, ExitKind::MaxInsts);
        const Core::Snapshot core_snap = r->core.takeSnapshot();
        const mem::MemoryHierarchy::Snapshot mem_snap =
            r->hier.takeSnapshot();

        EXPECT_EQ(r->core.run(1'000'000).kind, ExitKind::Halted);
        (r == &fast ? fast_end1 : slow_end1) = r->dump();

        r->core.restore(core_snap);
        r->hier.restore(mem_snap);
        EXPECT_EQ(r->core.run(1'000'000).kind, ExitKind::Halted);
        (r == &fast ? fast_end2 : slow_end2) = r->dump();
    }
    EXPECT_EQ(fast_end1, fast_end2);
    EXPECT_EQ(fast_end1, slow_end1);
    EXPECT_EQ(slow_end1, slow_end2);
}

TEST(SuperblockCore, TraceHookDisablesBlockPath)
{
    Rig fast(true);
    fast.assemble(SlotBase, [](Assembler &a) { emitLoop(a, 10); });

    unsigned records = 0;
    fast.core.setTraceHook([&](const TraceRecord &rec) {
        if (!rec.speculative)
            ++records;
    });
    EXPECT_EQ(fast.runFrom(SlotBase).kind, ExitKind::Halted);
    // Every committed instruction must have been traced by the
    // interpreter; none may have ducked into a block.
    EXPECT_EQ(records, unsigned(fast.core.stats().instsRetired));
    EXPECT_EQ(fast.core.superblockStats().blockInsts, 0u);
    EXPECT_EQ(fast.core.superblockStats().blocksBuilt, 0u);
}

TEST(SuperblockCore, MispredictedLoopExitFallsBack)
{
    // The loop's final trip resolves the back-edge not-taken while
    // the trace (and a warmed predictor) says taken: the block must
    // bail and hand the branch to the interpreter's speculation
    // machinery. Observable as fallback exits on the fast rig — with
    // state still bit-identical (covered by the dump comparison in
    // LoopBitIdenticalToInterpreter; here we pin the counter).
    Rig fast(true);
    fast.assemble(SlotBase, [](Assembler &a) { emitLoop(a, 100); });
    EXPECT_EQ(fast.runFrom(SlotBase).kind, ExitKind::Halted);
    EXPECT_GT(fast.core.superblockStats().fallbackExits, 0u);
}

} // namespace
} // namespace pacman::cpu
