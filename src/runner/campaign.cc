#include "campaign.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "base/journal.hh"
#include "base/logging.hh"
#include "runner/chunk_codec.hh"

namespace pacman::runner
{

namespace
{

using Clock = std::chrono::steady_clock;

std::string
statFingerprint(const SampleStat &s)
{
    if (s.count() == 0)
        return "n=0";
    return strprintf("n=%llu mean=%.17g median=%.17g p90=%.17g "
                     "p99=%.17g min=%.17g max=%.17g",
                     (unsigned long long)s.count(), s.mean(), s.median(),
                     s.percentile(90), s.percentile(99), s.min(),
                     s.max());
}

std::string
robustnessFingerprint(const attack::BruteForceStats &b,
                      const attack::OracleStats &o, const FaultStats &f)
{
    return strprintf(
        "samples=%llu esc=%llu cand_retry=%llu busy_retry=%llu "
        "disturbed=%llu query_retry=%llu calib=%llu repair=%llu "
        "faults=%llu",
        (unsigned long long)b.samplesTaken,
        (unsigned long long)b.escalations,
        (unsigned long long)b.candidateRetries,
        (unsigned long long)o.busyRetries,
        (unsigned long long)o.disturbedQueries,
        (unsigned long long)o.retriedQueries,
        (unsigned long long)o.calibrations,
        (unsigned long long)o.repairs, (unsigned long long)f.total());
}

std::string
quarantineFingerprint(const std::vector<QuarantineRecord> &records)
{
    if (records.empty())
        return "none";
    std::string out;
    for (const QuarantineRecord &r : records) {
        out += strprintf("%sc%llu:%s", out.empty() ? "" : " ",
                         (unsigned long long)r.chunkIndex,
                         workerFaultName(r.kind));
    }
    return out;
}

// --- Campaign journal wiring ---------------------------------------

/** The journal plus the resume map its replay produced. */
struct CampaignJournal
{
    Journal journal;
    std::unordered_map<uint64_t, std::string> resumable;

    /**
     * Open (or start fresh) per the supervision config and bind the
     * file to this campaign via its meta record. Only records keyed
     * with @p campaign_seed become resumable; a meta record from a
     * *different* campaign configuration is a hard error — resuming
     * someone else's journal would silently merge foreign results.
     */
    void
    open(const SupervisionConfig &sup, uint64_t campaign_seed,
         const std::string &meta_payload)
    {
        if (sup.journalPath.empty())
            return;
        if (!sup.resume)
            std::remove(sup.journalPath.c_str());
        const Journal::Replay replay = journal.open(sup.journalPath);
        journal.crashAfterAppends(sup.crashAfterAppends);
        bool have_meta = false;
        for (const Journal::Record &rec : replay.records) {
            if (rec.key == "meta") {
                PACMAN_ASSERT(
                    rec.payload == meta_payload,
                    "journal %s belongs to a different campaign\n"
                    "  journal: %s\n  campaign: %s",
                    sup.journalPath.c_str(), rec.payload.c_str(),
                    meta_payload.c_str());
                have_meta = true;
                continue;
            }
            unsigned long long seed = 0, index = 0;
            if (sscanf(rec.key.c_str(), "chunk/%16llx/%llu", &seed,
                       &index) == 2 &&
                seed == campaign_seed) {
                resumable[index] = rec.payload; // last record wins
            }
        }
        if (!have_meta)
            journal.append("meta", meta_payload);
    }

    void
    record(uint64_t campaign_seed, uint64_t chunk_index,
           const std::string &payload)
    {
        if (journal.isOpen())
            journal.append(strprintf("chunk/%016llx/%llu",
                                     (unsigned long long)campaign_seed,
                                     (unsigned long long)chunk_index),
                           payload);
    }
};

/** Rewrite the quarantine file from the campaign's final record list
 *  (deterministic; idempotent across resumes). */
void
writeQuarantineFile(const SupervisionConfig &sup,
                    const std::vector<QuarantineRecord> &records)
{
    const std::string path = sup.effectiveQuarantinePath();
    if (path.empty())
        return;
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
        warn("cannot write quarantine file %s", path.c_str());
        return;
    }
    for (const QuarantineRecord &r : records)
        out << r.serialize() << "\n";
}

/**
 * First-failure capture for dispatchers. Pool workers run on plain
 * std::threads, so a dispatcher exception cannot propagate through
 * runChunked — it is recorded here, remaining chunks are skipped, and
 * the campaign runner throws CampaignAborted after the pool drains.
 * Already-journaled chunks survive for resume.
 */
struct AbortFlag
{
    std::atomic<bool> tripped{false};
    std::mutex mu;
    std::string why;

    void
    trip(const std::string &reason)
    {
        std::lock_guard<std::mutex> lock(mu);
        if (!tripped.exchange(true))
            why = reason;
    }
};

} // anonymous namespace

std::string
BruteForceCampaignResult::fingerprint() const
{
    return strprintf(
        "found=%s guesses=%llu queries=%llu cycles=%llu "
        "chunks_merged=%llu decisions[%s] robustness[%s] "
        "quarantined[%s]",
        stats.found ? strprintf("0x%04x", *stats.found).c_str() : "none",
        (unsigned long long)stats.guessesTested,
        (unsigned long long)stats.oracleQueries,
        (unsigned long long)stats.cyclesSimulated,
        (unsigned long long)chunksMerged,
        statFingerprint(decisionMisses).c_str(),
        robustnessFingerprint(stats, oracleStats, faultStats).c_str(),
        quarantineFingerprint(quarantined).c_str());
}

std::string
AccuracyCampaignResult::fingerprint() const
{
    return strprintf(
        "tp=%llu fp=%llu fn=%llu guesses=%llu queries=%llu "
        "cycles=%llu per_trial[%s] robustness[%s] quarantined[%s]",
        (unsigned long long)truePositives,
        (unsigned long long)falsePositives,
        (unsigned long long)falseNegatives,
        (unsigned long long)totals.guessesTested,
        (unsigned long long)totals.oracleQueries,
        (unsigned long long)totals.cyclesSimulated,
        statFingerprint(guessesPerTrial).c_str(),
        robustnessFingerprint(totals, oracleStats, faultStats).c_str(),
        quarantineFingerprint(quarantined).c_str());
}

// --- The shared driver and runners ---------------------------------

template <class Config>
typename CampaignKind<Config>::Result
runCampaignWith(const Config &cfg, const ChunkDispatcher &dispatch)
{
    using Kind = CampaignKind<Config>;
    const uint64_t num_items = Kind::items(cfg);
    std::vector<typename Kind::ChunkResult> chunks(
        chunkCount(num_items, cfg.pool.chunkSize));
    std::atomic<uint64_t> resumed{0};
    AbortFlag abort;

    CampaignJournal journal;
    journal.open(cfg.supervision, cfg.seed, Kind::meta(cfg));

    // A payload is outside bytes (a server reply or the journal): it
    // must decode, and a hit it names must be an item of its chunk.
    auto accept = [&](const std::string &payload,
                      typename Kind::ChunkResult &r, const Chunk &chunk) {
        if (!Kind::decode(payload, r, chunk))
            return false;
        const std::optional<uint64_t> hit = Kind::hit(cfg, r);
        return !hit || (*hit >= chunk.firstItem && *hit <= chunk.lastItem);
    };

    const auto t0 = Clock::now();
    const PoolOutcome outcome = runChunked(
        cfg.pool, num_items,
        [&](unsigned worker, const Chunk &chunk)
            -> std::optional<uint64_t> {
            if (abort.tripped)
                return std::nullopt;
            typename Kind::ChunkResult &r = chunks[chunk.index];

            // Resume: a journaled chunk short-circuits — the stored
            // result is bit-exact, so the merge cannot tell.
            auto it = journal.resumable.find(chunk.index);
            if (it != journal.resumable.end() &&
                accept(it->second, r, chunk)) {
                resumed.fetch_add(1, std::memory_order_relaxed);
                return Kind::hit(cfg, r);
            }

            std::string payload;
            try {
                payload = dispatch(worker, chunk);
            } catch (const std::exception &e) {
                abort.trip(strprintf("chunk %llu dispatch failed: %s",
                                     (unsigned long long)chunk.index,
                                     e.what()));
                return std::nullopt;
            }
            if (!accept(payload, r, chunk)) {
                abort.trip(strprintf(
                    "chunk %llu: undecodable result payload",
                    (unsigned long long)chunk.index));
                return std::nullopt;
            }
            journal.record(cfg.seed, chunk.index, payload);
            return Kind::hit(cfg, r);
        });
    const auto t1 = Clock::now();
    if (abort.tripped)
        throw CampaignAborted(abort.why);

    typename Kind::Result result;
    result.jobs = effectiveJobs(cfg.pool.jobs);
    result.chunksResumed = resumed.load();
    result.wallSeconds =
        std::chrono::duration<double>(t1 - t0).count();
    // Merge in chunk order, up to and including the chunk holding the
    // lowest hit: exactly the items a serial sweep would have run.
    const size_t merged =
        outcome.firstHit
            ? std::min<size_t>(*outcome.firstHit / cfg.pool.chunkSize + 1,
                               chunks.size())
            : chunks.size();
    Kind::merge(result, std::span(chunks.data(), merged), outcome);
    writeQuarantineFile(cfg.supervision, result.quarantined);
    return result;
}

template BruteForceCampaignResult
runCampaignWith(const BruteForceCampaignConfig &, const ChunkDispatcher &);
template AccuracyCampaignResult
runCampaignWith(const AccuracyCampaignConfig &, const ChunkDispatcher &);

namespace
{

/** In-process execution: one supervised Worker per pool slot. */
template <class Config>
typename CampaignKind<Config>::Result
runCampaignLocal(const Config &cfg)
{
    std::vector<std::unique_ptr<Worker>> workers(
        effectiveJobs(cfg.pool.jobs));
    auto result = runCampaignWith(
        cfg, [&](unsigned worker, const Chunk &chunk) {
            std::unique_ptr<Worker> &w = workers[worker];
            if (!w)
                w = std::make_unique<Worker>(cfg.replica,
                                             cfg.supervision);
            return CampaignKind<Config>::execute(*w, cfg, chunk);
        });
    for (const std::unique_ptr<Worker> &w : workers) {
        if (w)
            result.recovery.merge(w->recovery());
    }
    return result;
}

} // anonymous namespace

BruteForceCampaignResult
runBruteForceCampaign(const BruteForceCampaignConfig &cfg)
{
    return runCampaignLocal(cfg);
}

BruteForceCampaignResult
runBruteForceCampaignWith(const BruteForceCampaignConfig &cfg,
                          const ChunkDispatcher &dispatch)
{
    return runCampaignWith(cfg, dispatch);
}

AccuracyCampaignResult
runAccuracyCampaign(const AccuracyCampaignConfig &cfg)
{
    return runCampaignLocal(cfg);
}

AccuracyCampaignResult
runAccuracyCampaignWith(const AccuracyCampaignConfig &cfg,
                        const ChunkDispatcher &dispatch)
{
    return runCampaignWith(cfg, dispatch);
}

template <class Config>
WorkOutcome
replayQuarantine(const Config &cfg, const QuarantineRecord &record)
{
    using Kind = CampaignKind<Config>;
    PACMAN_ASSERT(record.campaign == Kind::Name,
                  "record is for campaign '%s', not %s",
                  record.campaign.c_str(), Kind::Name);
    // Same budgets and recovery ladder, no journal: journaling
    // belongs to the campaign owner.
    SupervisionConfig sup = cfg.supervision;
    sup.journalPath.clear();
    sup.quarantinePath.clear();
    sup.resume = false;
    sup.crashAfterAppends = 0;
    Worker w(cfg.replica, sup);
    const WorkRequest req{record.streamSeed,
                          record.hasRekey
                              ? std::optional<uint64_t>(record.rekeySeed)
                              : std::nullopt};
    return w.run(req, [&](attack::PacOracle &oracle,
                          kernel::Machine &machine) {
        Kind::replay(cfg, record, oracle, machine);
    });
}

template WorkOutcome replayQuarantine(const BruteForceCampaignConfig &,
                                      const QuarantineRecord &);
template WorkOutcome replayQuarantine(const AccuracyCampaignConfig &,
                                      const QuarantineRecord &);

} // namespace pacman::runner
