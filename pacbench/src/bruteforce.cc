/**
 * @file
 * bruteforce: the Section 8.2 PAC sweep on a quiet machine, run the
 * way bench/parallel_campaign runs it — runBruteForceCampaignWith over
 * executeBfChunk on --jobs runner::Workers (default 1), train 64,
 * samples 1, the fsync'd journal on. Each campaign sweeps Window
 * candidates that end at the true PAC, so the hit lands on the last
 * item and no chunk is wasted. One item is one candidate; one
 * latency sample is one chunk. The checkpoint restore at the start
 * of every chunk, the pool and the journal carry load here that fig8
 * never touches, and on a quiet machine timing-trace guards break
 * from evictions rather than noise.
 */

#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <unistd.h>

#include "base/journal.hh"
#include "base/random.hh"
#include "bench.hh"
#include "kernel/layout.hh"
#include "probes.hh"
#include "runner/campaign.hh"
#include "runner/chunk_codec.hh"

namespace pacbench
{

using namespace pacman;
using namespace pacman::runner;

namespace
{

/** Candidates per campaign; the last one is the true PAC. */
constexpr unsigned Window = 4096;

/** Candidates per chunk (one restore, one journal record each). */
constexpr uint64_t ChunkSize = 128;

const isa::Addr Target = kernel::BenignDataBase + 37 * isa::PageSize;

/** One pool slot's replica and its counter baselines. */
struct Replica
{
    std::unique_ptr<Worker> worker;
    Counters checkpoint; //!< counters at the captured state
    Counters previous;   //!< after the slot's last chunk
};

struct Setup
{
    BruteForceCampaignConfig cfg;
    uint16_t truth = 0;
    std::vector<Replica> replicas;
    std::string dir;
};

Setup
setUp(const Options &opt, Tracer &tr, unsigned rep)
{
    Setup s;
    kernel::MachineConfig mcfg = kernel::defaultMachineConfig();
    mcfg.seed = Random::deriveSeed(opt.seed, 0xB5);
    const int64_t root = tr.begin("setup", rep);

    // Pick a modifier whose true PAC leaves Window candidates below
    // it (as bench/parallel_campaign does).
    uint64_t modifier = 0x1000;
    tr.timed(
        "kernel.boot",
        [&] {
            kernel::Machine probe(mcfg);
            for (;; ++modifier) {
                s.truth = probe.kernel().truePac(Target, modifier,
                                                 crypto::PacKeySelect::DA);
                if (s.truth >= Window - 1)
                    break;
            }
        },
        rep, root);

    s.cfg.replica.machine = mcfg;
    s.cfg.replica.oracle.trainIters = 64;
    s.cfg.replica.target = Target;
    s.cfg.replica.modifier = modifier;
    s.cfg.replica.samples = 1;
    s.cfg.first = uint16_t(s.truth - (Window - 1));
    s.cfg.last = s.truth;
    s.cfg.pool.jobs = opt.jobs;
    s.cfg.pool.chunkSize = ChunkSize;

    s.replicas.resize(opt.jobs);
    for (unsigned w = 0; w < opt.jobs; ++w) {
        Replica &rp = s.replicas[w];
        tr.timed(
            "attack.provision",
            [&] {
                rp.worker = std::make_unique<Worker>(s.cfg.replica,
                                                     SupervisionConfig{});
                rp.checkpoint = Counters::read(rp.worker->machine());
                rp.previous = rp.checkpoint;
            },
            w, root);
    }

    tr.timed(
        "base.journal_dir",
        [&] {
            s.dir = strprintf("%s/bf-%d-%u", opt.outDir.c_str(),
                              int(getpid()), rep);
            std::filesystem::remove_all(s.dir);
            std::filesystem::create_directories(s.dir);
        },
        rep, root);
    tr.end(root);
    return s;
}

} // namespace

Report
runBruteforce(const Options &opt, Tracer &tr)
{
    Report rep;
    tr.setOn(opt.trace);

    SampleStat setup_s;
    std::optional<Setup> kept;
    setup_s.add(tr.timed("setup.total",
                         [&] { kept.emplace(setUp(opt, tr, 0)); }));
    Setup &s = *kept;
    BruteForceCampaignConfig &cfg = s.cfg;

    // The dispatcher runs on the pool's threads; mu guards everything
    // it writes besides its own replica slot.
    std::mutex mu;
    Counters counted;                  // count pass: summed chunk deltas
    std::vector<std::string> payloads; // codec/journal probe inputs
    std::optional<TimedPhase> phase;
    int64_t campaign_span = -1;

    const ChunkDispatcher dispatch = [&](unsigned worker,
                                         const Chunk &chunk) {
        Replica &rp = s.replicas[worker];
        if (phase)
            phase->toggleTrace();
        const int64_t sp = tr.begin("runner.chunk", chunk.index,
                                    campaign_span);
        const double start = phase ? phase->now() : 0;
        std::string payload = executeBfChunk(*rp.worker, cfg, chunk);
        const double end = phase ? phase->now() : 0;
        tr.end(sp);

        const Counters now = Counters::read(rp.worker->machine());
        const Counters delta =
            Counters::itemDelta(now, rp.checkpoint, rp.previous);
        rp.previous = now;
        BfChunkResult decoded;
        const bool ok = decodeBfChunk(payload, decoded);

        std::lock_guard<std::mutex> lock(mu);
        if (phase)
            phase->log().add(start, end,
                             double(chunk.lastItem - chunk.firstItem + 1),
                             double(delta.insts), !ok);
        else
            counted += delta;
        if (payloads.size() < 64)
            payloads.push_back(payload);
        return payload;
    };

    uint64_t campaigns_bad = 0; // aborted or wrong result
    auto runCampaign = [&](uint64_t k)
        -> std::optional<BruteForceCampaignResult> {
        cfg.seed = Random::deriveSeed(opt.seed, k);
        cfg.supervision.journalPath =
            strprintf("%s/bf-%llu.journal", s.dir.c_str(),
                      (unsigned long long)k);
        campaign_span = tr.begin("campaign", k);
        std::optional<BruteForceCampaignResult> r;
        try {
            r = runBruteForceCampaignWith(cfg, dispatch);
        } catch (const CampaignAborted &) {
            // r stays empty: counted as a bad campaign below.
        }
        tr.end(campaign_span);
        std::filesystem::remove(cfg.supervision.journalPath);
        std::filesystem::remove(cfg.supervision.effectiveQuarantinePath());
        const bool ok = r && r->stats.found && *r->stats.found == s.truth &&
                        r->quarantined.empty() &&
                        r->stats.guessesTested == Window;
        if (!ok) {
            ++campaigns_bad;
            rep.check(false,
                      strprintf("bruteforce campaign %llu: %s",
                                (unsigned long long)k,
                                r ? r->fingerprint().c_str() : "aborted"));
        }
        return r;
    };

    // Count pass: campaign 0, right after set-up.
    const std::optional<BruteForceCampaignResult> first = runCampaign(0);
    rep.cpuMemLayers(counted, double(Window));
    if (opt.jobs > 1) {
        // Which replica ran which chunk is a race at jobs > 1, so the
        // replica-local host counters are not exact.
        for (auto it = rep.counts.begin(); it != rep.counts.end();)
            it = it->first.rfind("host.", 0) == 0 ? rep.counts.erase(it)
                                                 : std::next(it);
    }
    if (first) {
        rep.counts["sim.oracle_queries"] = first->stats.oracleQueries;
        rep.counts["sim.campaign_fingerprint_crc32"] =
            Journal::crc32(first->fingerprint());
    }

    // Timed phase: back-to-back campaigns, each with a fresh journal.
    // A CampaignAborted or a wrong PAC fails the check below, which
    // counts every item as failed.
    phase.emplace(opt, tr);
    uint64_t k = 1;
    while (!phase->done(phase->log().records()))
        runCampaign(k++);
    const double span = phase->finish();
    tr.setOn(opt.trace);
    const double rss_mb = peakRssMb();
    rep.timedPhase(phase->log(), span, "chunk", false, rss_mb);

    // The other set-up repetitions run after peak_rss_mb was read, so
    // it stays the memory of one set-up and its timed phase. Each runs
    // on the next CPU.
    for (unsigned r = 1; r < SetupRepetitions; ++r) {
        const PinnedCpu pin(r);
        std::optional<Setup> extra;
        setup_s.add(tr.timed("setup.total",
                             [&] { extra.emplace(setUp(opt, tr, r)); }));
        std::filesystem::remove_all(extra->dir);
    }
    rep.setup(setup_s);
    rep.check(campaigns_bad == 0,
              strprintf("bruteforce: %llu of %llu campaigns of %u candidates "
                        "found the true PAC 0x%04x with no false positive",
                        (unsigned long long)(k - campaigns_bad),
                        (unsigned long long)k, Window, s.truth));
    rep.finishFailures();

    if (opt.trace) {
        rep.layer("attack.queries_per_item",
                  first ? double(first->stats.oracleQueries) / Window : 0.0,
                  "count");
        rep.timing("kernel.boot_ms", tr.durations("kernel.boot"), 1e3, "ms");
        rep.timing("attack.provision_ms", tr.durations("attack.provision"),
                   1e3, "ms");
        rep.timing("runner.chunk_ms", tr.durations("runner.chunk"), 1e3,
                   "ms");
        rep.layer("runner.worker_busy_share",
                  phase->log().busySeconds() / (opt.jobs * span), "ratio");

        size_t next = 0;
        BfChunkResult scratch;
        rep.timing("runner.codec_us",
                   perCallSeconds(tr, "probe.codec", 15,
                                  unsigned(payloads.size()),
                                  [&] {
                                      const std::string &p =
                                          payloads[next++ % payloads.size()];
                                      decodeBfChunk(p, scratch);
                                      (void)encodeBfChunk(scratch);
                                  }),
                   1e6, "us", "decode + encode of captured chunk payloads");

        Journal journal;
        journal.open(s.dir + "/probe.journal");
        SampleStat append_s;
        for (size_t i = 0; i < 31; ++i) {
            const std::string key = strprintf("probe/%zu", i);
            append_s.add(tr.timed(
                "probe.journal_append",
                [&] { journal.append(key, payloads[i % payloads.size()]); },
                i));
        }
        journal.close();
        rep.timing("base.journal_append_us", append_s, 1e6, "us");

        Replica &rp = s.replicas[0];
        probeLayers(rep, tr, rp.worker->machine(), rp.worker->oracle(), Target,
                    cfg.replica.modifier, crypto::PacKeySelect::DA);

        // What the layer numbers account for inside one chunk: its
        // restore, its oracle queries and the encode of its result.
        const double accounted =
            rep.layerValue("sim.restore_us") +
            double(ChunkSize) * rep.layerValue("attack.queries_per_item") *
                rep.layerValue("attack.query_us") +
            rep.layerValue("runner.codec_us");
        rep.layer("trace.unattributed_share",
                  1.0 - accounted / (rep.layerValue("runner.chunk_ms") * 1e3),
                  "ratio", tr.durations("runner.chunk").count(),
                  "chunk time not covered by restore + queries x "
                  "attack.query_us + codec");
        rep.layer("trace.overhead", phase->traceOverhead(span), "ratio");
        absentLayer(rep, "runner.ipc_rtt_us", "us",
                    "bruteforce runs in-process, no server");
        absentLayer(rep, "runner.remote_overhead_share", "ratio",
                    "bruteforce runs in-process, no server");
        absentLayer(rep, "runner.busy_rejections", "count",
                    "bruteforce runs in-process, no server");
    }
    std::filesystem::remove_all(s.dir);
    return rep;
}

} // namespace pacbench
