/**
 * @file
 * fig8: the paper's Figure-8 oracle campaign in one process on one
 * thread — data and instruction gadgets, train 64, ambient noise 0.5,
 * a 50/50 mix of correct and incorrect PACs. One item is one
 * PacOracle::probeMisses query. This is the simulator's hot path
 * (superblocks, timing-trace replay broken by noise, hierarchy
 * walks, PAC memo hits, syscalls) with no runner, restore, journal
 * or IPC around it.
 */

#include <memory>
#include <optional>

#include "attack/oracle.hh"
#include "base/random.hh"
#include "bench.hh"
#include "kernel/layout.hh"
#include "probes.hh"

namespace pacbench
{

using namespace pacman;
using namespace pacman::attack;
using namespace pacman::kernel;

namespace
{

/**
 * Queries per gadget before the loop switches to the other one. The
 * paper runs each gadget's trials as one block; switching gadgets
 * every 64 queries cost the instruction gadget about 0.3 percentage
 * points of incorrect-PAC queries at <= 1 miss, while 1024 (about
 * 0.2 s) still puts both gadgets in every throughput window.
 */
constexpr uint64_t GadgetBlock = 1024;

/**
 * Share of incorrect-PAC queries that must show <= 1 miss. The paper
 * reports 99.2%; the model's per-seed figure spans 98.75% to 99.27%
 * over seeds 2-9 (both gadgets, noise 0.5), so a 99% line fails on
 * about half the seeds. 98.5% lies below every seed measured and still
 * fails if the noise-induced false hits grow by half.
 */
constexpr double IncorrectAtMostOne = 0.985;

/** Queries in the count pass (deterministic warm-up). */
constexpr uint64_t CountPassQueries = 2048;

constexpr uint64_t Modifier = 0x6D0D;

struct Gadget
{
    std::unique_ptr<PacOracle> oracle;
    uint16_t truth = 0;
    Histogram correct, incorrect;
};

struct Stack
{
    std::unique_ptr<Machine> machine;
    std::unique_ptr<AttackerProcess> proc;
    Gadget gadgets[2]; // data, instruction
};

Stack
setUp(const Options &opt, Tracer &tr, unsigned rep)
{
    Stack st;
    MachineConfig cfg = defaultMachineConfig();
    cfg.seed = Random::deriveSeed(opt.seed, 0xF18);
    cfg.noiseProbability = 0.5;
    cfg.noisePages = 4;
    const int64_t root = tr.begin("setup", rep);
    tr.timed("kernel.boot",
             [&] { st.machine = std::make_unique<Machine>(cfg); }, rep,
             root);
    tr.timed(
        "attack.provision",
        [&] {
            st.proc = std::make_unique<AttackerProcess>(*st.machine);
            const GadgetKind kinds[2] = {GadgetKind::Data,
                                         GadgetKind::Instruction};
            const isa::Addr targets[2] = {
                BenignDataBase + 37 * isa::PageSize,
                TrampolineBase + 37 * isa::PageSize};
            const crypto::PacKeySelect keys[2] = {
                crypto::PacKeySelect::DA, crypto::PacKeySelect::IA};
            for (int g = 0; g < 2; ++g) {
                OracleConfig ocfg;
                ocfg.kind = kinds[g];
                ocfg.trainIters = 64;
                Gadget &gd = st.gadgets[g];
                gd.oracle = std::make_unique<PacOracle>(*st.proc, ocfg);
                gd.oracle->setTarget(targets[g], Modifier);
                gd.truth = st.machine->kernel().truePac(targets[g],
                                                        Modifier, keys[g]);
            }
        },
        rep, root);
    tr.end(root);
    return st;
}

} // namespace

Report
runFig8(const Options &opt, Tracer &tr)
{
    Report rep;
    tr.setOn(opt.trace);

    // An optional tears its Stack down in reverse member order, so no
    // oracle outlives its process or machine.
    SampleStat setup_s;
    std::optional<Stack> kept;
    setup_s.add(tr.timed("setup.total",
                         [&] { kept.emplace(setUp(opt, tr, 0)); }));
    Stack &st = *kept;
    Machine &machine = *st.machine;
    Random coin(Random::deriveSeed(opt.seed, 0xC01C));
    uint64_t item = 0;
    uint64_t typed_failures = 0;

    // One query: pick the gadget by block, flip the coin, probe.
    auto query = [&](int64_t parent) -> bool {
        Gadget &gd = st.gadgets[(item / GadgetBlock) % 2];
        const bool use_correct = coin.chance(0.5);
        uint16_t pac = gd.truth;
        if (!use_correct) {
            do {
                pac = uint16_t(coin.next(0x10000));
            } while (pac == gd.truth);
        }
        unsigned misses = 0;
        try {
            const int64_t q = tr.begin("attack.query", item, parent);
            misses = gd.oracle->probeMisses(pac);
            tr.end(q);
        } catch (const std::exception &) {
            ++typed_failures;
            return false;
        }
        (use_correct ? gd.correct : gd.incorrect).add(misses);
        return true;
    };

    // Count pass: a fixed prefix of queries right after set-up, so
    // its counter deltas are a pure function of the seed. It is also
    // the warm-up that fills the decode and superblock caches.
    const Counters c0 = Counters::read(machine);
    const uint64_t q0 = st.gadgets[0].oracle->queries() +
                        st.gadgets[1].oracle->queries();
    for (uint64_t i = 0; i < CountPassQueries; ++i, ++item) {
        const int64_t sp = tr.begin("item", item);
        query(sp);
        tr.end(sp);
    }
    const Counters counted = Counters::read(machine) - c0;
    const uint64_t oracle_queries = st.gadgets[0].oracle->queries() +
                                    st.gadgets[1].oracle->queries() -
                                    q0;
    rep.counts["sim.oracle_queries"] = oracle_queries;
    rep.cpuMemLayers(counted, double(CountPassQueries));

    // Timed phase: closed loop, one query after another.
    TimedPhase phase(opt, tr);
    uint64_t insts = machine.core().stats().instsRetired;
    while (!phase.done(phase.log().records())) {
        phase.toggleTrace();
        const double start = phase.now();
        const int64_t sp = tr.begin("item", item);
        const bool ok = query(sp);
        tr.end(sp);
        const double end = phase.now();
        ++item;
        const uint64_t now_insts = machine.core().stats().instsRetired;
        phase.log().add(start, end, 1, double(now_insts - insts), !ok);
        insts = now_insts;
    }
    const double span = phase.finish();
    tr.setOn(opt.trace);
    const double rss_mb = peakRssMb();
    rep.timedPhase(phase.log(), span, "item", true, rss_mb);

    // The other set-up repetitions run after peak_rss_mb was read, so
    // it stays the memory of one set-up and its timed phase. Each runs
    // on the next CPU.
    for (unsigned r = 1; r < SetupRepetitions; ++r) {
        const PinnedCpu pin(r);
        std::optional<Stack> extra;
        setup_s.add(tr.timed("setup.total",
                             [&] { extra.emplace(setUp(opt, tr, r)); }));
    }
    rep.setup(setup_s);

    for (int g = 0; g < 2; ++g) {
        const Gadget &gd = st.gadgets[g];
        const char *name = g == 0 ? "data" : "instruction";
        rep.check(gd.incorrect.total() > 0 &&
                      gd.incorrect.fractionAtMost(1) >= IncorrectAtMostOne,
                  strprintf("fig8 %s gadget: incorrect PAC <=1 miss in "
                            "%.2f%% of %llu queries (need >= %.1f%%; paper "
                            "99.2%%)",
                            name, 100.0 * gd.incorrect.fractionAtMost(1),
                            (unsigned long long)gd.incorrect.total(),
                            100.0 * IncorrectAtMostOne));
        rep.check(gd.correct.total() > 0 &&
                      gd.correct.fractionAtLeast(5) >= 0.99,
                  strprintf("fig8 %s gadget: correct PAC >=5 misses in "
                            "%.2f%% of %llu queries (need >= 99%%)",
                            name, 100.0 * gd.correct.fractionAtLeast(5),
                            (unsigned long long)gd.correct.total()));
    }
    rep.check(typed_failures == 0,
              strprintf("fig8: %llu queries threw",
                        (unsigned long long)typed_failures));
    rep.finishFailures();

    if (!opt.trace)
        return rep;

    // --- Per-layer metrics -------------------------------------------
    rep.layer("attack.queries_per_item",
              double(oracle_queries) / double(CountPassQueries), "count");
    rep.timing("attack.query_us", tr.durations("attack.query"), 1e6, "us");
    rep.timing("kernel.boot_ms", tr.durations("kernel.boot"), 1e3, "ms");
    rep.timing("attack.provision_ms", tr.durations("attack.provision"), 1e3,
               "ms");

    const SampleStat items = tr.durations("item");
    double item_total = 0;
    for (double v : items.samples())
        item_total += v;
    rep.layer("trace.unattributed_share",
              1.0 - tr.childSeconds("item") / item_total, "ratio",
              items.count(), "item time outside attack.query spans");
    rep.layer("trace.overhead", phase.traceOverhead(span), "ratio");

    probeLayers(rep, tr, machine, *st.gadgets[0].oracle,
                st.gadgets[0].oracle->target(), Modifier,
                crypto::PacKeySelect::DA);
    absentRunnerLayers(rep, "fig8 runs no runner, journal or IPC");
    return rep;
}

} // namespace pacbench
