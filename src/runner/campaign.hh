/**
 * @file
 * Deterministic parallel attack campaigns on top of the work pool
 * (pool.hh) and the supervised worker (worker.hh): the Section 8.2
 * PAC brute-force sweep and the Monte-Carlo oracle-accuracy run, both
 * embarrassingly parallel at the work-item level.
 *
 * Each pool worker drives a runner::Worker — a supervised replica
 * provisioned once from the campaign's machine seed (so every replica
 * draws identical per-boot PAC keys) and checkpointed
 * (sim::ReplicaCheckpoint). Per work item the worker restores the
 * checkpoint and switches the machine RNG to the stream derived from
 * (campaign_seed, item_index); accuracy trials additionally rotate
 * the PAC keys via Machine::rekey() with a per-trial key stream.
 * Provisioning is deterministic in the boot seed, so the restored
 * state is exactly the state a fresh construction would reach —
 * every per-item result is a pure function of the item index either
 * way, which is what lets the merged campaign output be bit-identical
 * at any thread count AND across the two provisioning modes.
 * ReplicaConfig::snapshot = false selects the fresh-provision
 * reference path, mirroring the fast-path equivalence rungs. See
 * DESIGN.md §4c/§4f.
 *
 * Durability (DESIGN.md §4g): with SupervisionConfig::journalPath
 * set, every completed chunk is appended fsync'd to an append-only
 * journal keyed by (campaign_seed, chunk_index), and a campaign
 * restarted with `resume` replays those chunks instead of recomputing
 * them. Because chunk results are serialized bit-exactly (doubles as
 * bit patterns) and merged identically, a killed-and-resumed campaign
 * reports the same fingerprint as an uninterrupted run at any --jobs
 * count — bench/chaos_recovery proves this by killing the process at
 * arbitrary record boundaries. Items the recovery ladder gives up on
 * are quarantined: excluded from the merged statistics, listed (with
 * their seed and fault context) in the result and the quarantine
 * file, and reproducible standalone via replayQuarantine().
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
struct BruteForceCampaignResult
{
    /** Merged stats over exactly the candidates a serial low-to-high
     *  sweep would have tested (early exit at the first hit). */
    attack::BruteForceStats stats;

    /** Per-candidate median-of-k decision miss counts. */
    SampleStat decisionMisses;

    /** Merged oracle robustness counters (same chunk-order merge). */
    attack::OracleStats oracleStats;

    /** Merged injected-fault counters (same chunk-order merge). */
    FaultStats faultStats;

    /**
     * Quarantined chunks (chunk order, same merge cutoff). Their
     * statistics are excluded from the merged counters above — the
     * ladder never completed them — but the quarantine list itself is
     * deterministic and part of the fingerprint: a deterministic
     * failure (an injected wedge caught by the guest-cycle budget)
     * quarantines the same chunks at every --jobs count.
     */
    std::vector<QuarantineRecord> quarantined;

    /** Summed recovery-ladder counters across workers. NOT part of
     *  the fingerprint: host-deadline firings are wall-clock events,
     *  and a resumed run skips recovered chunks entirely. */
    RecoveryStats recovery;

    /** Endpoint failover counters for remote campaigns (dispatch.hh);
     *  all-zero for local runs. NOT part of the fingerprint: which
     *  endpoint served a chunk is a wall-clock accident that never
     *  changes the payload. */
    DispatchStats dispatch;

    unsigned jobs = 0;
    uint64_t chunksRun = 0;
    uint64_t chunksSkipped = 0;
    uint64_t chunksMerged = 0;

    /** Chunks replayed from the journal instead of recomputed (0 in
     *  a fresh run; not part of the fingerprint). */
    uint64_t chunksResumed = 0;

    /** Host wall-clock seconds; NOT part of the deterministic output. */
    double wallSeconds = 0;

    /**
     * Canonical rendering of every deterministic field. Equal strings
     * across thread counts — and across kill/resume boundaries — is
     * the campaign's determinism contract (asserted by tests/runner,
     * bench/parallel_campaign and bench/chaos_recovery).
     */
    std::string fingerprint() const;
};

/**
 * Produce one chunk's encoded result payload (chunk_codec.hh format)
 * on pool worker slot @p worker. The campaign runners are
 * parameterized on this so in-process execution (executeBfChunk
 * against a local runner::Worker) and remote execution (a CHUNK
 * request to pacman-oracled, client.hh) merge byte-identical
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

BruteForceCampaignResult
runBruteForceCampaign(const BruteForceCampaignConfig &cfg);

/** Run the campaign with chunk execution delegated to @p dispatch
 *  (journal resume/record and the merge stay here). Throws
 *  CampaignAborted if any dispatch fails. */
BruteForceCampaignResult
runBruteForceCampaignWith(const BruteForceCampaignConfig &cfg,
                          const ChunkDispatcher &dispatch);

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

struct AccuracyCampaignResult
{
    uint64_t truePositives = 0;
    uint64_t falsePositives = 0;
    uint64_t falseNegatives = 0;

    /** Summed search stats across trials. */
    attack::BruteForceStats totals;

    /** Guesses needed per trial (distribution across trials). */
    SampleStat guessesPerTrial;

    /** Summed oracle robustness counters across trials. */
    attack::OracleStats oracleStats;

    /** Summed injected-fault counters across trials. */
    FaultStats faultStats;

    /** Quarantined trials (trial order); excluded from the verdict
     *  counts and totals, included in the fingerprint. */
    std::vector<QuarantineRecord> quarantined;

    /** Summed recovery-ladder counters; not in the fingerprint. */
    RecoveryStats recovery;

    /** Endpoint failover counters for remote campaigns (dispatch.hh);
     *  all-zero for local runs, never in the fingerprint. */
    DispatchStats dispatch;

    unsigned jobs = 0;

    /** Chunks replayed from the journal (not in the fingerprint). */
    uint64_t chunksResumed = 0;

    double wallSeconds = 0; //!< not part of the deterministic output

    /** Canonical rendering of the deterministic fields. */
    std::string fingerprint() const;
};

AccuracyCampaignResult
runAccuracyCampaign(const AccuracyCampaignConfig &cfg);

/** Dispatcher-parameterized variant (see runBruteForceCampaignWith). */
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
 * campaign quarantined the item under.
 */
WorkOutcome replayQuarantine(const BruteForceCampaignConfig &cfg,
                             const QuarantineRecord &record);
WorkOutcome replayQuarantine(const AccuracyCampaignConfig &cfg,
                             const QuarantineRecord &record);

} // namespace pacman::runner

#endif // PACMAN_RUNNER_CAMPAIGN_HH
