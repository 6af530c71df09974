/**
 * @file
 * The campaign chunk codec: one chunk of campaign work as a unit of
 * execution and as a bit-exact serialized payload (DESIGN.md §4h),
 * plus the CampaignKind traits that tell the shared campaign driver
 * what differs between the two campaign kinds (DESIGN.md §4c).
 *
 * A chunk result travels three ways and must be identical on all of
 * them: merged in-process right after execution, replayed from the
 * crash-recovery journal on resume, and shipped over the oracle
 * server's wire protocol from a remote replica. Payloads are
 * line-oriented text with doubles as their 64-bit patterns in hex, so
 * a decode is bit-exact; every runner merges decoded payload bytes,
 * which is what makes a remote campaign's fingerprint bit-identical
 * to the in-process run.
 */

#ifndef PACMAN_RUNNER_CHUNK_CODEC_HH
#define PACMAN_RUNNER_CHUNK_CODEC_HH

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "runner/campaign.hh"
#include "runner/protocol.hh"

namespace pacman::runner
{

/** The replica's per-candidate sampling policy. */
attack::ResamplePolicy resamplePolicy(const ReplicaConfig &cfg);

/** One brute-force chunk's completed result (journal/wire unit). */
struct BfChunkResult
{
    attack::BruteForceStats stats;
    SampleStat decisions;
    attack::OracleStats oracle;
    FaultStats faults;
    std::optional<QuarantineRecord> quarantine;
};

/** One accuracy trial's graded outcome. */
enum class TrialVerdict : unsigned
{
    TruePositive = 0,
    FalsePositive = 1,
    FalseNegative = 2,
    Quarantined = 3,
};

struct TrialResult
{
    TrialVerdict verdict = TrialVerdict::FalseNegative;
    attack::BruteForceStats stats;
    attack::OracleStats oracle;
    FaultStats faults;
    std::optional<QuarantineRecord> quarantine;
};

/** Serialize one brute-force chunk result. */
std::string encodeBfChunk(const BfChunkResult &r);

/** Parse encodeBfChunk()'s output; false on a malformed or repeated line. */
bool decodeBfChunk(const std::string &payload, BfChunkResult &r);

/**
 * Serialize one accuracy chunk: @p trials holds the chunk's trials
 * in chunk-local order (trials[0] is chunk.firstItem). Lines carry
 * the absolute trial index so a payload is self-describing.
 */
std::string encodeTrialChunk(const std::vector<TrialResult> &trials,
                             const Chunk &chunk);

/** Parse encodeTrialChunk()'s output into chunk-local order; false
 *  unless each trial appears once, in order, with S, O and F lines. */
bool decodeTrialChunk(const std::string &payload,
                      std::vector<TrialResult> &trials,
                      const Chunk &chunk);

/**
 * Execute one brute-force chunk against @p w and return the encoded
 * result payload. Quarantine handling (a chunk no ladder rung could
 * complete contributes only its quarantine record) happens here, so
 * every dispatcher — in-process, resumed, remote — agrees on the
 * payload bytes.
 */
std::string executeBfChunk(Worker &w,
                           const BruteForceCampaignConfig &cfg,
                           const Chunk &chunk);

/** Execute one accuracy chunk (per-trial rekey) against @p w. */
std::string executeAccuracyChunk(Worker &w,
                                 const AccuracyCampaignConfig &cfg,
                                 const Chunk &chunk);

/**
 * The accuracy campaign's per-trial work: rekey already happened in
 * the worker's beginItem; read ground truth, place the window,
 * search, grade. Shared with replayQuarantine so a quarantined trial
 * reproduces the exact campaign execution. Resets @p r first — the
 * recovery ladder may run the function several times for one trial.
 */
void runAccuracyTrial(const AccuracyCampaignConfig &cfg,
                      attack::PacOracle &oracle,
                      kernel::Machine &machine, TrialResult &r);

/**
 * What differs between the two campaign kinds, one traits type per
 * config: the result types, the item count and journal meta line,
 * decode, early-exit hit and merge, the executor, the CHUNK request
 * encoder and the quarantine replay. The driver (runCampaignWith), the
 * local and remote runners, replayQuarantine and the server's CHUNK
 * handler are each written once on top of these.
 */
template <class Config>
struct CampaignKind;

template <>
struct CampaignKind<BruteForceCampaignConfig>
{
    using Config = BruteForceCampaignConfig;
    using Result = BruteForceCampaignResult;
    using ChunkResult = BfChunkResult;

    static constexpr const char *Name = "bruteforce";
    static constexpr auto execute = executeBfChunk;
    static constexpr auto request = encodeBfChunkRequest;

    static uint64_t
    items(const Config &cfg)
    {
        PACMAN_ASSERT(cfg.first <= cfg.last,
                      "brute-force campaign range is empty");
        return uint64_t(cfg.last) - cfg.first + 1;
    }

    static std::string
    meta(const Config &cfg)
    {
        return strprintf("campaign=bruteforce seed=%016llx first=%u "
                         "last=%u chunk_size=%llu",
                         (unsigned long long)cfg.seed, cfg.first,
                         cfg.last, (unsigned long long)cfg.pool.chunkSize);
    }

    static constexpr auto decode = [](const std::string &payload,
                                      ChunkResult &r, const Chunk &) {
        return decodeBfChunk(payload, r);
    };

    /** The item index of the chunk's found PAC: the early exit. */
    static std::optional<uint64_t>
    hit(const Config &cfg, const ChunkResult &r)
    {
        if (!r.stats.found)
            return std::nullopt;
        return uint64_t(*r.stats.found) - cfg.first;
    }

    static void
    merge(Result &out, std::span<const ChunkResult> chunks,
          const PoolOutcome &pool)
    {
        out.chunksRun = pool.chunksRun;
        out.chunksSkipped = pool.chunksSkipped;
        out.chunksMerged = chunks.size();
        for (const BfChunkResult &r : chunks) {
            out.stats.merge(r.stats);
            out.decisionMisses.merge(r.decisions);
            out.oracleStats.merge(r.oracle);
            out.faultStats.merge(r.faults);
            if (r.quarantine)
                out.quarantined.push_back(*r.quarantine);
        }
    }

    /** Supervised work items (Worker::run calls) per chunk. */
    static uint64_t workItems(const Chunk &) { return 1; }

    /** The work of the item a quarantine record names. */
    static void
    replay(const Config &cfg, const QuarantineRecord &r,
           attack::PacOracle &oracle, kernel::Machine &)
    {
        attack::PacBruteForcer(oracle, resamplePolicy(cfg.replica))
            .search(uint16_t(r.firstItem), uint16_t(r.lastItem));
    }
};

template <>
struct CampaignKind<AccuracyCampaignConfig>
{
    using Config = AccuracyCampaignConfig;
    using Result = AccuracyCampaignResult;
    using ChunkResult = std::vector<TrialResult>;

    static constexpr const char *Name = "accuracy";
    static constexpr auto execute = executeAccuracyChunk;
    static constexpr auto request = encodeAccuracyChunkRequest;
    static constexpr auto decode = decodeTrialChunk;

    static uint64_t items(const Config &cfg) { return cfg.trials; }

    static std::string
    meta(const Config &cfg)
    {
        return strprintf("campaign=accuracy seed=%016llx trials=%llu "
                         "window=%u chunk_size=%llu",
                         (unsigned long long)cfg.seed,
                         (unsigned long long)cfg.trials, cfg.window,
                         (unsigned long long)cfg.pool.chunkSize);
    }

    static constexpr auto hit = [](const Config &, const ChunkResult &) {
        return std::optional<uint64_t>(); // accuracy never exits early
    };

    /** Tally verdicts and sum counters in trial order. Quarantined
     *  trials contribute their record, never their statistics. */
    static void
    merge(Result &out, std::span<const ChunkResult> chunks,
          const PoolOutcome &)
    {
        for (const std::vector<TrialResult> &chunk : chunks) {
            for (const TrialResult &r : chunk) {
                if (r.verdict == TrialVerdict::Quarantined) {
                    if (r.quarantine)
                        out.quarantined.push_back(*r.quarantine);
                    continue;
                }
                ++(r.verdict == TrialVerdict::TruePositive
                       ? out.truePositives
                   : r.verdict == TrialVerdict::FalsePositive
                       ? out.falsePositives
                       : out.falseNegatives);
                out.totals.merge(r.stats);
                out.oracleStats.merge(r.oracle);
                out.faultStats.merge(r.faults);
                out.guessesPerTrial.add(double(r.stats.guessesTested));
            }
        }
        // Each trial searched under fresh keys, so a merged `found`
        // would be meaningless.
        out.totals.found.reset();
    }

    static uint64_t workItems(const Chunk &c) { return c.size(); }

    static void
    replay(const Config &cfg, const QuarantineRecord &,
           attack::PacOracle &oracle, kernel::Machine &machine)
    {
        TrialResult scratch;
        runAccuracyTrial(cfg, oracle, machine, scratch);
    }
};

/**
 * The campaign driver every runner shares (campaign.cc, defined for
 * both configs): journal open and resume, dispatch with abort on the
 * first failure, decode, journal record and the kind's merge.
 */
template <class Config>
typename CampaignKind<Config>::Result
runCampaignWith(const Config &cfg, const ChunkDispatcher &dispatch);

} // namespace pacman::runner

#endif // PACMAN_RUNNER_CHUNK_CODEC_HH
