/**
 * @file
 * Guard-break coverage for the block-local timing-trace memoization
 * (DESIGN.md §4k). The fast/slow equivalence suite proves replay is
 * bit-identical when nothing disturbs the recorded sets; these tests
 * pin down every path that *invalidates* a recording — cross-set
 * eviction, the ambient noise model, a fault-injector flush, guest
 * self-modifying code, and a snapshot restore past the recording —
 * asserting both the telemetry attribution and that execution after
 * the break remains bit-identical to a traces-off reference.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "asm/assembler.hh"
#include "attack/oracle.hh"
#include "base/faults.hh"
#include "base/stats.hh"
#include "cpu/core.hh"
#include "cpu/superblock.hh"
#include "kernel/layout.hh"
#include "mem/hierarchy.hh"
#include "sim/faults.hh"

namespace pacman::cpu
{
namespace
{

using namespace pacman::isa;
using asmjit::Assembler;

constexpr Addr CodeBase = 0x0000'4000'0000ull;
constexpr Addr SlotBase = CodeBase + PageSize;
constexpr Addr PatchSlot = CodeBase + 2 * PageSize;
constexpr Addr DataBase = 0x0000'6000'0000ull;

/** Encoded word of a single-instruction snippet. */
template <typename Emit>
InstWord
wordOf(Emit emit)
{
    Assembler a(0);
    emit(a);
    return a.finalize().words[0];
}

/** One core+hierarchy with superblocks on; traces per @p traces. */
struct TraceRig
{
    explicit TraceRig(bool traces)
        : rng(1),
          hier(mem::m1PCoreConfig(), &rng,
               traces ? FastPath::Traces : FastPath::Superblocks),
          core(CoreConfig{}, &hier, &rng)
    {
        hier.mapRange(CodeBase, 16 * PageSize,
                      mem::PageFlags{.user = true, .writable = true,
                                     .executable = true,
                                     .device = false});
        hier.mapRange(DataBase, 32 * PageSize,
                      mem::PageFlags{.user = true, .writable = true,
                                     .executable = false,
                                     .device = false});
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

    /** Registers, pc, flags, cycle, core stats, cache/TLB counters —
     *  everything the trace replay must not perturb by one bit. */
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

    const SuperblockStats &stats() { return core.superblockStats(); }

    Random rng;
    mem::MemoryHierarchy hier;
    Core core;
};

/** The block-friendly hot shape: a counted loop with a store+load
 *  pair at DataBase. @p loop receives the back-edge target (the
 *  address of the add), for tests that patch the loop body. */
void
emitLoop(Assembler &a, unsigned iters, Addr *loop = nullptr)
{
    a.movz(X0, uint16_t(iters));
    a.mov64(X2, DataBase);
    a.movz(X1, 0);
    const Addr l = a.here();
    if (loop)
        *loop = l;
    a.add(X1, X1, X0);
    a.str(X1, X2);
    a.ldr(X3, X2);
    a.subsi(X0, X0, 1);
    a.cbnz(X0, l);
    a.hlt(0);
}

TEST(TimingTrace, RecordThenReplayBitIdentical)
{
    TraceRig fast(true), ref(false);
    for (TraceRig *r : {&fast, &ref}) {
        r->assemble(SlotBase, [](Assembler &a) { emitLoop(a, 300); });
        EXPECT_EQ(r->runFrom(SlotBase).kind, ExitKind::Halted);
    }
    EXPECT_EQ(fast.dump(), ref.dump());
    // Vacuity guards: the first dispatch records against cold caches
    // (a miss aborts the recording), a later one succeeds, and the
    // rest of the loop replays.
    EXPECT_GT(fast.stats().traceRecordFailures, 0u);
    EXPECT_GT(fast.stats().tracesRecorded, 0u);
    EXPECT_GT(fast.stats().traceReplays, 0u);
    EXPECT_GT(fast.stats().traceOpsReplayed, 0u);
    EXPECT_EQ(ref.stats().traceReplays, 0u);

    // Re-entry from halted state: the warm trace replays immediately.
    const uint64_t replays = fast.stats().traceReplays;
    for (TraceRig *r : {&fast, &ref})
        EXPECT_EQ(r->runFrom(SlotBase).kind, ExitKind::Halted);
    EXPECT_EQ(fast.dump(), ref.dump());
    EXPECT_GT(fast.stats().traceReplays, replays);
}

TEST(TimingTrace, CrossSetEvictionBreaksGuardThenRerecords)
{
    TraceRig fast(true), ref(false);
    for (TraceRig *r : {&fast, &ref}) {
        r->assemble(SlotBase, [](Assembler &a) { emitLoop(a, 300); });
        EXPECT_EQ(r->runFrom(SlotBase).kind, ExitKind::Halted);
    }
    ASSERT_GT(fast.stats().tracesRecorded, 0u);

    // Walk addresses congruent to DataBase modulo the L1D way size:
    // more distinct lines than the set has ways, so the recorded
    // line is evicted and the guarded set's generation label moves —
    // exactly what a Prime+Probe traversal over the set does. No
    // disturbance note accompanies it, so the break must be
    // attributed to plain eviction.
    const mem::SetAssocConfig &l1d = fast.hier.l1d().config();
    const uint64_t waySpan = uint64_t(l1d.sets) * l1d.lineBytes;
    for (TraceRig *r : {&fast, &ref}) {
        for (uint64_t k = 1; k <= l1d.ways + 2; ++k)
            r->hier.access(mem::AccessKind::Load,
                           DataBase + k * waySpan, 0, false);
    }

    const uint64_t breaks = fast.stats().traceGuardBreaks;
    const uint64_t evict = fast.stats().traceBreakEviction;
    const uint64_t recorded = fast.stats().tracesRecorded;
    for (TraceRig *r : {&fast, &ref})
        EXPECT_EQ(r->runFrom(SlotBase).kind, ExitKind::Halted);
    EXPECT_EQ(fast.dump(), ref.dump());
    EXPECT_GT(fast.stats().traceGuardBreaks, breaks);
    EXPECT_GT(fast.stats().traceBreakEviction, evict);
    EXPECT_EQ(fast.stats().traceBreakNoise, 0u);
    EXPECT_EQ(fast.stats().traceBreakFlush, 0u);
    // The break dropped the recording; the re-record must land.
    EXPECT_GT(fast.stats().tracesRecorded, recorded);
}

TEST(TimingTrace, GuestSmcDropsTraceWithBlock)
{
    // A second snippet stores over the hot loop's [add][str] pair —
    // guest self-modifying code from *outside* the patched block.
    // The store moves the page's write generation, so the block (and
    // the trace riding on it) gen-fails at its next dispatch and is
    // rebuilt and re-recorded against the new bytes.
    const InstWord movz_x1 =
        wordOf([](Assembler &a) { a.movz(X1, 7); });
    const InstWord movz_x10 =
        wordOf([](Assembler &a) { a.movz(X10, 0); });
    const uint64_t patch =
        (uint64_t(movz_x10) << 32) | uint64_t(movz_x1);

    TraceRig fast(true), ref(false);
    Addr loop = 0;
    for (TraceRig *r : {&fast, &ref}) {
        Addr l = 0;
        r->assemble(SlotBase,
                    [&](Assembler &a) { emitLoop(a, 300, &l); });
        r->assemble(PatchSlot, [&](Assembler &a) {
            a.mov64(X6, l);
            a.mov64(X7, patch);
            a.str(X7, X6);
            a.hlt(0);
        });
        loop = l;
        EXPECT_EQ(r->runFrom(SlotBase).kind, ExitKind::Halted);
    }
    ASSERT_GT(fast.stats().tracesRecorded, 0u);
    ASSERT_NE(loop, 0u);

    const uint64_t inval = fast.stats().invalidations;
    const uint64_t recorded = fast.stats().tracesRecorded;
    for (TraceRig *r : {&fast, &ref}) {
        EXPECT_EQ(r->runFrom(PatchSlot).kind, ExitKind::Halted);
        EXPECT_EQ(r->runFrom(SlotBase).kind, ExitKind::Halted);
    }
    EXPECT_EQ(fast.dump(), ref.dump());
    // The patched loop never stores, so X1 holds the patched-in 7.
    EXPECT_EQ(fast.core.reg(X1), 7u);
    EXPECT_GT(fast.stats().invalidations, inval);
    EXPECT_GT(fast.stats().tracesRecorded, recorded);
}

TEST(TimingTrace, RestorePastRecordingBreaksGuard)
{
    // Snapshot cold, run (the trace records against warm labels),
    // restore: the set generations rewind to their cold snapshot
    // values while the surviving superblock still carries the
    // post-warm-up recording. The label mismatch must reject the
    // trace — replaying would apply hit bookkeeping to sets whose
    // membership was rewound — and the re-run from the restored
    // state must be bit-identical to the first run.
    TraceRig fast(true);
    fast.assemble(SlotBase, [](Assembler &a) { emitLoop(a, 300); });

    const Core::Snapshot core_snap = fast.core.takeSnapshot();
    const mem::MemoryHierarchy::Snapshot mem_snap =
        fast.hier.takeSnapshot();

    EXPECT_EQ(fast.runFrom(SlotBase).kind, ExitKind::Halted);
    const std::string run1 = fast.dump();
    ASSERT_GT(fast.stats().tracesRecorded, 0u);

    fast.core.restore(core_snap);
    fast.hier.restore(mem_snap);

    const uint64_t breaks = fast.stats().traceGuardBreaks;
    EXPECT_EQ(fast.runFrom(SlotBase).kind, ExitKind::Halted);
    EXPECT_EQ(fast.dump(), run1);
    EXPECT_GT(fast.stats().traceGuardBreaks, breaks);
}

TEST(TimingTrace, RestoreAfterQuiescedRecordingReplaysCleanly)
{
    // The complementary restore case: the snapshot is taken *after*
    // the recording, with the guarded sets quiesced (the loop's
    // steady state is all-hit, so nothing moves their labels between
    // the recording and the snapshot). Restoring rewinds to exactly
    // the labels the trace recorded against: the guard holds, replay
    // resumes with no break, and both completions are bit-identical.
    TraceRig fast(true);
    fast.assemble(SlotBase, [](Assembler &a) { emitLoop(a, 300); });
    EXPECT_EQ(fast.runFrom(SlotBase).kind, ExitKind::Halted);
    ASSERT_GT(fast.stats().tracesRecorded, 0u);

    const Core::Snapshot core_snap = fast.core.takeSnapshot();
    const mem::MemoryHierarchy::Snapshot mem_snap =
        fast.hier.takeSnapshot();

    EXPECT_EQ(fast.runFrom(SlotBase).kind, ExitKind::Halted);
    const std::string run2 = fast.dump();
    const uint64_t breaks = fast.stats().traceGuardBreaks;

    fast.core.restore(core_snap);
    fast.hier.restore(mem_snap);
    const uint64_t replays = fast.stats().traceReplays;
    EXPECT_EQ(fast.runFrom(SlotBase).kind, ExitKind::Halted);
    EXPECT_EQ(fast.dump(), run2);
    EXPECT_EQ(fast.stats().traceGuardBreaks, breaks);
    EXPECT_GT(fast.stats().traceReplays, replays);
}

// --- Machine-level disturbance attribution --------------------------

using namespace pacman::attack;
using namespace pacman::kernel;

/** Per-query oracle miss counts plus the final cycle: the observable
 *  outcome a trace break must not perturb. */
std::vector<uint64_t>
runOracleProbes(Machine &machine, unsigned queries)
{
    AttackerProcess proc(machine);
    OracleConfig ocfg;
    ocfg.trainIters = 8;
    PacOracle oracle(proc, ocfg);
    oracle.setTarget(BenignDataBase + 37 * isa::PageSize, 0x6D0D);
    std::vector<uint64_t> out;
    for (unsigned g = 0; g < queries; ++g)
        out.push_back(oracle.probeMisses(uint16_t(g * 2731)));
    out.push_back(machine.core().cycle());
    return out;
}

TEST(TimingTrace, InjectNoiseAttributedBreaks)
{
    // The ambient noise model sweeps the noise arena (which spans
    // every dTLB set) between attack steps; each perturbation notes
    // itself with the hierarchy first, so guard breaks it causes are
    // charged to noise — and the run stays bit-identical to a
    // traces-off machine under the identical noise stream.
    MachineConfig cfg = defaultMachineConfig();
    cfg.noiseProbability = 1.0;
    cfg.noisePages = 64;
    // Force traces on for the fast machine so the attribution
    // asserts hold whatever PACMAN_FASTPATH says.
    cfg.fastPath = FastPath::Traces;

    Machine fast(cfg);
    std::vector<uint64_t> fast_out = runOracleProbes(fast, 12);

    cfg.fastPath = FastPath::Superblocks;
    Machine ref(cfg);
    EXPECT_EQ(fast_out, runOracleProbes(ref, 12));

    const SuperblockStats &sbs = fast.core().superblockStats();
    EXPECT_GT(sbs.traceReplays, 0u);
    EXPECT_GT(sbs.traceBreakNoise, 0u);
    EXPECT_EQ(sbs.traceBreakFlush, 0u);
}

TEST(TimingTrace, FaultPlanFlushAttributedBreaks)
{
    // A fault-injector context switch flushes EL0 TLB state (whole
    // ASIDs or random dTLB sets) and notes a flush disturbance, so
    // the guard breaks it causes are charged to the chaos layer.
    MachineConfig cfg = defaultMachineConfig();
    FaultPlan plan;
    plan.contextSwitchRate = 1.0;
    cfg.fastPath = FastPath::Traces;

    Machine fast(cfg);
    sim::FaultInjector fast_inj(fast, plan,
                                Random::deriveSeed(99, 1));
    fast_inj.attach();
    std::vector<uint64_t> fast_out = runOracleProbes(fast, 12);

    cfg.fastPath = FastPath::Superblocks;
    Machine ref(cfg);
    sim::FaultInjector ref_inj(ref, plan, Random::deriveSeed(99, 1));
    ref_inj.attach();
    EXPECT_EQ(fast_out, runOracleProbes(ref, 12));
    EXPECT_GT(fast_inj.stats().contextSwitches, 0u);

    const SuperblockStats &sbs = fast.core().superblockStats();
    EXPECT_GT(sbs.traceBreakFlush, 0u);
}

} // namespace
} // namespace pacman::cpu
