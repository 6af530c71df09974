/**
 * @file
 * accuracy_remote: the Section 8.2 accuracy campaign (fresh PAC keys
 * per trial via rekey, window 96, median-of-5, ambient noise 0.5)
 * served by an in-process OracleServer with 2 service threads and
 * driven by 2 closed-loop clients over its Unix socket. One item is
 * one trial, sent as a one-trial CHUNK request. The load falls on the
 * wire protocol and codec, server admission, Machine::rekey and
 * PacOracle::refreshLegitPointer, and one checkpoint restore per
 * trial; there is no journal.
 *
 * Check: no false positive, and every remote trial payload — hence
 * TP/FP/FN — equals what runAccuracyCampaignWith computes in-process
 * on the same configuration.
 */

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>
#include <unistd.h>

#include "base/journal.hh"
#include "base/random.hh"
#include "bench.hh"
#include "kernel/layout.hh"
#include "probes.hh"
#include "runner/campaign.hh"
#include "runner/chunk_codec.hh"
#include "runner/client.hh"
#include "runner/protocol.hh"
#include "runner/server.hh"

namespace pacbench
{

using namespace pacman;
using namespace pacman::runner;

namespace
{

/** Service threads of the server, and closed-loop clients. */
constexpr unsigned Clients = 2;

/** Trials of the count pass (run in-process on one fresh replica). */
constexpr uint64_t CountTrials = 8;

/** The wire config's trial count: large enough that the server
 *  accepts any trial index the closed loop reaches. */
constexpr uint64_t WireTrials = uint64_t(1) << 32;

const isa::Addr Target = kernel::BenignDataBase + 37 * isa::PageSize;

/** A value from the server's pacman-bench-v1 METRICS document. */
double
serverMetric(const std::string &json, const std::string &name)
{
    const std::string key = "\"" + name + "\":{\"value\":";
    const size_t at = json.find(key);
    return at == std::string::npos
               ? -1.0
               : std::strtod(json.c_str() + at + key.size(), nullptr);
}

struct Setup
{
    AccuracyCampaignConfig cfg;
    std::string socketPath;
    std::unique_ptr<OracleServer> server;
    std::vector<std::unique_ptr<OracleClient>> clients;

    Setup() = default;
    Setup(const Setup &) = delete;
    Setup &operator=(const Setup &) = delete;

    ~Setup()
    {
        clients.clear();
        if (server) {
            server->requestDrain();
            server->waitDrained();
        }
    }
};

void
setUp(Setup &s, const Options &opt, Tracer &tr, unsigned rep)
{
    kernel::MachineConfig mcfg = kernel::defaultMachineConfig();
    mcfg.seed = Random::deriveSeed(opt.seed, 0xACC);
    mcfg.noiseProbability = 0.5;
    mcfg.noisePages = 4;
    s.cfg.replica.machine = mcfg;
    s.cfg.replica.oracle.trainIters = 64;
    s.cfg.replica.target = Target;
    s.cfg.replica.modifier = 0x9999;
    s.cfg.replica.samples = 5;
    s.cfg.window = 96;
    s.cfg.trials = WireTrials;
    s.cfg.seed = Random::deriveSeed(opt.seed, 0x7A1);
    s.cfg.pool.jobs = Clients;
    s.cfg.pool.chunkSize = 1;

    const int64_t root = tr.begin("setup", rep);
    tr.timed(
        "runner.server_start",
        [&] {
            std::filesystem::create_directories(opt.outDir);
            s.socketPath = strprintf("%s/acc-%d-%u.sock", opt.outDir.c_str(),
                                     int(getpid()), rep);
            ServerConfig sc;
            sc.socketPath = s.socketPath;
            sc.threads = Clients;
            s.server = std::make_unique<OracleServer>(sc);
            s.server->start();
            for (unsigned c = 0; c < Clients; ++c)
                s.clients.push_back(std::make_unique<OracleClient>(
                    "unix:" + s.socketPath));
        },
        rep, root);

    // Provision every service thread's replica: concurrent one-trial
    // warm-up chunks (narrow window, own seed) until METRICS reports
    // one provision per service thread.
    tr.timed(
        "attack.provision",
        [&] {
            AccuracyCampaignConfig warm = s.cfg;
            warm.window = 4;
            warm.seed = Random::deriveSeed(opt.seed, 0x3A);
            for (unsigned round = 0; round < 8; ++round) {
                std::vector<std::thread> threads;
                for (unsigned c = 0; c < Clients; ++c) {
                    threads.emplace_back([&, c] {
                        const Chunk ch{c, c, c};
                        s.clients[c]->chunkPayload(
                            encodeAccuracyChunkRequest(warm, ch));
                    });
                }
                for (std::thread &t : threads)
                    t.join();
                if (serverMetric(s.clients[0]->metricsJson(),
                                 "replica_provisions") >= Clients)
                    break;
            }
        },
        rep, root);
    tr.end(root);
}

/** One remote trial as its client saw it. Payloads are kept as their
 *  CRC so the record's size does not depend on the trial. */
struct TrialRec
{
    uint64_t trial = 0;
    double start = 0, end = 0;
    bool failed = false; //!< a typed failure, or an undecodable payload
    TrialVerdict verdict = TrialVerdict::Quarantined;
    uint32_t payloadCrc = 0;
};

} // namespace

Report
runAccuracyRemote(const Options &opt, Tracer &tr)
{
    Report rep;
    tr.setOn(opt.trace);

    SampleStat setup_s;
    Setup s;
    setup_s.add(tr.timed("setup.total", [&] { setUp(s, opt, tr, 0); }));

    // --- Timed phase: closed-loop clients ----------------------------
    TimedPhase phase(opt, tr);
    std::atomic<uint64_t> next{0}, completed{0};
    std::vector<std::vector<TrialRec>> per_client(Clients);
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < Clients; ++c) {
        threads.emplace_back([&, c] {
            OracleClient &client = *s.clients[c];
            while (!phase.done(completed.load())) {
                phase.toggleTrace();
                TrialRec rec;
                rec.trial = next.fetch_add(1);
                const Chunk ch{rec.trial, rec.trial, rec.trial};
                const std::string body =
                    encodeAccuracyChunkRequest(s.cfg, ch);
                const int64_t sp = tr.begin("runner.trial", rec.trial);
                rec.start = phase.now();
                std::string payload;
                try {
                    payload = client.chunkPayload(body);
                } catch (const WireError &) {
                    // WireTimeout and BusyExhausted are WireErrors too.
                    rec.failed = true;
                    try {
                        client.reconnect();
                    } catch (const WireError &) {
                    }
                }
                rec.end = phase.now();
                tr.end(sp);
                std::vector<TrialResult> res;
                if (!rec.failed && decodeTrialChunk(payload, res, ch)) {
                    rec.verdict = res[0].verdict;
                    rec.payloadCrc = Journal::crc32(payload);
                } else {
                    rec.failed = true;
                }
                per_client[c].push_back(std::move(rec));
                completed.fetch_add(1);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    const double span = phase.finish();
    tr.setOn(opt.trace);
    const double rss_mb = peakRssMb();

    // The other set-up repetitions run after peak_rss_mb was read, so
    // it stays the memory of one set-up and its timed phase. They are
    // not pinned to a CPU as fig8's are: the service threads start
    // inside set-up and would inherit the one CPU.
    for (unsigned r = 1; r < SetupRepetitions; ++r) {
        Setup extra;
        setup_s.add(
            tr.timed("setup.total", [&] { setUp(extra, opt, tr, r); }));
    }
    rep.setup(setup_s);
    const uint64_t trials = next.load();

    std::vector<TrialRec> remote(trials);
    for (std::vector<TrialRec> &v : per_client)
        for (TrialRec &r : v)
            remote[r.trial] = std::move(r);

    // --- Local replicas: count pass, then the full in-process check ---
    AccuracyCampaignConfig local = s.cfg;
    local.trials = trials;
    struct Local
    {
        std::unique_ptr<Worker> worker;
        Counters checkpoint, previous;
    };
    std::vector<Local> locals(Clients);
    for (Local &l : locals) {
        l.worker = std::make_unique<Worker>(local.replica,
                                            SupervisionConfig{});
        l.checkpoint = Counters::read(l.worker->machine());
        l.previous = l.checkpoint;
    }
    std::vector<double> insts(trials, 0.0);
    uint64_t mismatched = 0;
    std::mutex mu;
    auto runLocal = [&](Local &l, uint64_t trial) {
        const Chunk ch{trial, trial, trial};
        std::string payload = executeAccuracyChunk(*l.worker, local, ch);
        const Counters now = Counters::read(l.worker->machine());
        const Counters d = Counters::itemDelta(now, l.checkpoint, l.previous);
        l.previous = now;
        std::lock_guard<std::mutex> lock(mu);
        insts[trial] = double(d.insts);
        if (!remote[trial].failed &&
            remote[trial].payloadCrc != Journal::crc32(payload))
            ++mismatched;
        return std::make_pair(payload, d);
    };

    // Count pass: the first CountTrials trials, in order, on one fresh
    // replica — so even its host-side counters are exact.
    Counters counted;
    uint64_t count_queries = 0;
    std::vector<std::string> payloads;
    for (uint64_t t = 0; t < std::min(CountTrials, trials); ++t) {
        auto [payload, d] = runLocal(locals[0], t);
        counted += d;
        std::vector<TrialResult> tr_res;
        if (decodeTrialChunk(payload, tr_res, Chunk{t, t, t}))
            count_queries += tr_res[0].stats.oracleQueries;
        payloads.push_back(payload);
    }
    rep.cpuMemLayers(counted, double(CountTrials));
    rep.counts["sim.oracle_queries"] = count_queries;

    // A traced run times the same trials once more, one at a time, on
    // the now-warm local replica and through one idle client, so remote
    // and in-process times compare without the other client's load.
    SampleStat local_trial_s, remote_trial_s;
    for (uint64_t t = 0; opt.trace && t < payloads.size(); ++t) {
        const Chunk ch{t, t, t};
        remote_trial_s.add(tr.timed("probe.remote_trial", [&] {
            s.clients[0]->chunkPayload(encodeAccuracyChunkRequest(s.cfg, ch));
        }, t));
        local_trial_s.add(tr.timed("probe.local_trial",
                                   [&] { runLocal(locals[0], t); }, t));
    }

    const AccuracyCampaignResult inproc = runAccuracyCampaignWith(
        local, [&](unsigned worker, const Chunk &ch) {
            return runLocal(locals[worker], ch.firstItem).first;
        });

    // The log's buffers were allocated before the timed phase; the
    // trials' instruction counts are known only now.
    uint64_t tp = 0, fp = 0, fn = 0, wire_failed = 0;
    for (const TrialRec &r : remote) {
        const bool ok =
            !r.failed && r.verdict != TrialVerdict::Quarantined;
        wire_failed += !ok;
        tp += ok && r.verdict == TrialVerdict::TruePositive;
        fp += ok && r.verdict == TrialVerdict::FalsePositive;
        fn += ok && r.verdict == TrialVerdict::FalseNegative;
        phase.log().add(r.start, r.end, 1, insts[r.trial], !ok);
    }
    rep.timedPhase(phase.log(), span, "trial", false, rss_mb);

    // The paper saw 0 false positives in 50 trials. At median-of-5 and
    // a ~1% single-query false-hit rate the model gives about one in a
    // thousand trials (seed 2: 1 in 934), so zero cannot hold for runs
    // of hundreds of trials; 1% is well below what 0/50 allows.
    rep.check(fp * 100 <= trials,
              strprintf("accuracy_remote: %llu false positives in %llu "
                        "trials (TP %llu, FN %llu; need <= 1%%, paper 0/50)",
                        (unsigned long long)fp, (unsigned long long)trials,
                        (unsigned long long)tp, (unsigned long long)fn));
    rep.check(tp == inproc.truePositives && fp == inproc.falsePositives &&
                  fn == inproc.falseNegatives && mismatched == 0,
              strprintf("accuracy_remote: remote TP/FP/FN %llu/%llu/%llu "
                        "vs in-process %llu/%llu/%llu, %llu trial payloads "
                        "differ",
                        (unsigned long long)tp, (unsigned long long)fp,
                        (unsigned long long)fn,
                        (unsigned long long)inproc.truePositives,
                        (unsigned long long)inproc.falsePositives,
                        (unsigned long long)inproc.falseNegatives,
                        (unsigned long long)mismatched));
    rep.check(wire_failed == 0,
              strprintf("accuracy_remote: %llu trials ended in a typed "
                        "failure", (unsigned long long)wire_failed));
    rep.finishFailures();

    if (opt.trace) {
        rep.layer("attack.queries_per_item",
                  double(count_queries) / double(CountTrials), "count");
        rep.timing("kernel.boot_ms",
                   perCallSeconds(tr, "kernel.boot", 5, 1,
                                  [&] {
                                      kernel::Machine m(local.replica.machine);
                                  }),
                   1e3, "ms", "probe: the server boots inside provisioning");
        rep.timing("attack.provision_ms", tr.durations("attack.provision"),
                   1e3, "ms",
                   "warm-up that provisions every service thread's replica");
        rep.timing("runner.chunk_ms", tr.durations("runner.trial"), 1e3,
                   "ms", "one-trial CHUNK round trip");
        rep.layer("runner.worker_busy_share",
                  phase.log().busySeconds() / (Clients * span), "ratio");

        size_t k = 0;
        rep.timing("runner.codec_us",
                   perCallSeconds(tr, "probe.codec", 15,
                                  unsigned(payloads.size()),
                                  [&] {
                                      const uint64_t t = k++ % payloads.size();
                                      std::vector<TrialResult> res;
                                      decodeTrialChunk(payloads[t], res,
                                                       Chunk{t, t, t});
                                      (void)encodeTrialChunk(res,
                                                             Chunk{t, t, t});
                                  }),
                   1e6, "us", "decode + encode of captured trial payloads");
        rep.timing("runner.ipc_rtt_us",
                   perCallSeconds(tr, "probe.ipc_rtt", 15, 20,
                                  [&] { s.clients[0]->ping(); }),
                   1e6, "us");
        rep.layer("runner.remote_overhead_share",
                  1.0 - local_trial_s.median() / remote_trial_s.median(),
                  "ratio", local_trial_s.count(),
                  "first trials one at a time, remote vs in-process");
        rep.layer("runner.busy_rejections",
                  serverMetric(s.clients[0]->metricsJson(), "busy_rejections"),
                  "count");
        absentLayer(rep, "base.journal_append_us", "us",
                    "accuracy_remote skips the journal");

        Local &l = locals[0];
        probeLayers(rep, tr, l.worker->machine(), l.worker->oracle(), Target,
                    local.replica.modifier, crypto::PacKeySelect::DA);

        const double accounted =
            rep.layerValue("runner.ipc_rtt_us") +
            rep.layerValue("runner.codec_us") +
            rep.layerValue("sim.restore_us") +
            rep.layerValue("kernel.rekey_us") +
            rep.layerValue("attack.queries_per_item") *
                rep.layerValue("attack.query_us");
        rep.layer("trace.unattributed_share",
                  1.0 - accounted / (rep.layerValue("runner.chunk_ms") * 1e3),
                  "ratio", tr.durations("runner.trial").count(),
                  "trial time not covered by ipc + codec + restore + "
                  "rekey + queries x attack.query_us");
        rep.layer("trace.overhead", phase.traceOverhead(span), "ratio");
    }
    return rep;
}

} // namespace pacbench
