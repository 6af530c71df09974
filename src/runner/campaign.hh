/**
 * @file
 * Deterministic parallel attack campaigns on top of the work pool
 * (pool.hh) and the supervised worker (worker.hh): the Section 8.2
 * PAC brute-force sweep and the Monte-Carlo oracle-accuracy run.
 *
 * Each pool slot drives a runner::Worker, a replica provisioned once
 * from the campaign's machine seed (identical per-boot PAC keys) and
 * checkpointed. Per work item it restores the checkpoint and switches
 * the machine RNG to the stream derived from (campaign_seed,
 * item_index); accuracy trials also rekey from a per-trial stream.
 * Every per-item result is thus a pure function of the item index, so
 * the merged output is bit-identical at any thread count and with
 * ReplicaConfig::snapshot off (the fresh-provision reference path).
 * See DESIGN.md §4c/§4f.
 *
 * Durability (DESIGN.md §4g): with SupervisionConfig::journalPath set,
 * every completed chunk is appended fsync'd to a journal keyed by
 * (campaign_seed, chunk_index), and a run with `resume` replays those
 * chunks bit-exactly instead of recomputing them, so a killed and
 * resumed campaign reports the uninterrupted fingerprint at any
 * --jobs. Items the recovery ladder gives up on are quarantined:
 * excluded from the merged statistics, listed in the result and the
 * quarantine file, and reproducible via replayQuarantine().
 */

#ifndef PACMAN_RUNNER_CAMPAIGN_HH
#define PACMAN_RUNNER_CAMPAIGN_HH

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "runner/pool.hh"
#include "runner/worker.hh"

namespace pacman::runner
{

/**
 * Remote-dispatch counters: how many chunks travelled, how often the
 * dispatcher had to fail over to another endpoint, and why. Purely
 * operational — which endpoint served a chunk is a wall-clock
 * accident, so none of these are ever part of a campaign fingerprint
 * (the chunk payloads themselves are endpoint-independent).
 */
struct DispatchStats
{
    uint64_t dispatched = 0;    //!< chunks served successfully
    uint64_t retries = 0;       //!< redispatch attempts after failure
    uint64_t failovers = 0;     //!< chunks completed on a non-first endpoint
    uint64_t timeouts = 0;      //!< attempts abandoned by the host deadline
    uint64_t wireErrors = 0;    //!< torn/corrupt connections
    uint64_t busyExhaustions = 0; //!< BUSY backoff budgets spent
    uint64_t breakerOpens = 0;  //!< circuit breakers tripped open
    uint64_t probes = 0;        //!< half-open PING probes sent
    uint64_t probeFailures = 0; //!< probes that kept a breaker open

    uint64_t
    faults() const
    {
        return timeouts + wireErrors + busyExhaustions;
    }
};

/** The fields both campaign kinds' results share. */
struct CampaignResultBase
{
    /** Merged oracle robustness counters (chunk/trial order). */
    attack::OracleStats oracleStats;

    /** Merged injected-fault counters (chunk/trial order). */
    FaultStats faultStats;

    /**
     * Quarantined chunks or trials, in order. Their statistics are
     * excluded from the merged counters — the ladder never completed
     * them — but the list itself is deterministic and part of the
     * fingerprint: a deterministic failure (an injected wedge caught
     * by the guest-cycle budget) quarantines the same items at every
     * --jobs count.
     */
    std::vector<QuarantineRecord> quarantined;

    /** Summed recovery-ladder counters across workers. NOT part of
     *  the fingerprint: host-deadline firings are wall-clock events,
     *  and a resumed run skips recovered chunks entirely. */
    RecoveryStats recovery;

    /** Endpoint failover counters for remote campaigns (dispatch.hh);
     *  all-zero for local runs, never in the fingerprint. */
    DispatchStats dispatch;

    unsigned jobs = 0;

    /** Chunks replayed from the journal instead of recomputed (0 in
     *  a fresh run; not part of the fingerprint). */
    uint64_t chunksResumed = 0;

    /** Host wall-clock seconds; NOT part of the deterministic output. */
    double wallSeconds = 0;
};

/** PAC brute-force sweep over candidates [first, last]. */
struct BruteForceCampaignConfig
{
    ReplicaConfig replica;
    uint16_t first = 0x0000;
    uint16_t last = 0xFFFF;

    /** Campaign seed for the per-item RNG streams (never derived
     *  from thread identity). */
    uint64_t seed = 1;

    PoolConfig pool;

    /** Watchdogs, recovery ladder, journal/resume (worker.hh). */
    SupervisionConfig supervision;
};

/** Deterministically merged brute-force campaign output. */
struct BruteForceCampaignResult : CampaignResultBase
{
    /** Merged stats over exactly the candidates a serial low-to-high
     *  sweep would have tested (early exit at the first hit). */
    attack::BruteForceStats stats;

    /** Per-candidate median-of-k decision miss counts. */
    SampleStat decisionMisses;

    uint64_t chunksRun = 0;
    uint64_t chunksSkipped = 0;
    uint64_t chunksMerged = 0;

    /**
     * Canonical rendering of every deterministic field. Equal strings
     * across thread counts — and across kill/resume boundaries — is
     * the campaign's determinism contract (asserted by tests/runner,
     * bench/parallel_campaign and bench/chaos_recovery).
     */
    std::string fingerprint() const;
};

/**
 * Monte-Carlo oracle-accuracy campaign (Section 8.2's 50-run
 * TP/FP/FN table): each trial gets fresh PAC keys — via
 * Machine::rekey() from a per-trial key stream, the checkpointed
 * equivalent of a fresh boot — sweeps a window guaranteed to contain
 * the true PAC (0 = the full 16-bit space), and grades the outcome
 * against ground truth.
 */
struct AccuracyCampaignConfig
{
    /** Replica template; machine.seed is the shared provision seed
     *  (per-trial key freshness comes from rekey, not reboot). */
    ReplicaConfig replica;

    uint64_t trials = 50;

    /** Candidates swept around the truth; 0 sweeps all 65536. */
    unsigned window = 96;

    uint64_t seed = 1000;

    PoolConfig pool;

    /** Watchdogs, recovery ladder, journal/resume (worker.hh). */
    SupervisionConfig supervision;
};

struct AccuracyCampaignResult : CampaignResultBase
{
    uint64_t truePositives = 0;
    uint64_t falsePositives = 0;
    uint64_t falseNegatives = 0;

    /** Summed search stats across trials. */
    attack::BruteForceStats totals;

    /** Guesses needed per trial (distribution across trials). */
    SampleStat guessesPerTrial;

    /** Canonical rendering of the deterministic fields. */
    std::string fingerprint() const;
};

/**
 * Produce one chunk's encoded result payload (chunk_codec.hh format)
 * on pool worker slot @p worker. The campaign runners are
 * parameterized on this so in-process execution (executeBfChunk
 * against a local runner::Worker) and remote execution (a CHUNK
 * request to pacman-oracled, dispatch.hh) merge byte-identical
 * payloads — the dispatcher is the only thing that varies.
 */
using ChunkDispatcher =
    std::function<std::string(unsigned worker, const Chunk &chunk)>;

/**
 * A campaign stopped before completion because a dispatcher failed
 * (e.g. the oracle server connection dropped) or returned an
 * undecodable payload. Chunks finished before the abort are already
 * journaled, so a resume recomputes only what is missing.
 */
struct CampaignAborted : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/**
 * The campaign runners. Every one of them is the same driver
 * (campaign.cc) over the kind's CampaignKind traits (chunk_codec.hh):
 * it opens the journal, resumes journaled chunks, dispatches the rest,
 * decodes and records each payload, and merges in chunk order.
 *
 * run*Campaign executes chunks in-process on one supervised Worker
 * per pool slot. run*CampaignWith delegates chunk execution to
 * @p dispatch; it throws CampaignAborted if any dispatch fails.
 */
BruteForceCampaignResult
runBruteForceCampaign(const BruteForceCampaignConfig &cfg);

BruteForceCampaignResult
runBruteForceCampaignWith(const BruteForceCampaignConfig &cfg,
                          const ChunkDispatcher &dispatch);

AccuracyCampaignResult
runAccuracyCampaign(const AccuracyCampaignConfig &cfg);

AccuracyCampaignResult
runAccuracyCampaignWith(const AccuracyCampaignConfig &cfg,
                        const ChunkDispatcher &dispatch);

/**
 * Re-run one quarantined work item standalone, away from its
 * campaign: rebuilds a worker from the campaign's replica and
 * supervision configuration (journal fields ignored) and replays the
 * item from the record's seeds. Every stream re-derives from the
 * recorded values, so a deterministic failure reproduces identically
 * — the returned outcome reports the same classification the
 * campaign quarantined the item under. Defined for both configs.
 */
template <class Config>
WorkOutcome replayQuarantine(const Config &cfg,
                             const QuarantineRecord &record);

} // namespace pacman::runner

#endif // PACMAN_RUNNER_CAMPAIGN_HH
