/**
 * @file
 * Fault-tolerant multi-endpoint campaign dispatch (DESIGN.md §4i):
 * the network-facing sibling of the recovery ladder in worker.hh.
 *
 * An EndpointPool spreads campaign chunks across N pacman-oracled
 * endpoints. Chunks are idempotent pure functions of (config, chunk
 * index) — the payload an endpoint returns is byte-identical no
 * matter which endpoint computes it — so the pool is free to retry a
 * failed chunk anywhere without touching the campaign's determinism
 * contract: merged fingerprints stay bit-identical to a local run at
 * any --jobs count while endpoints flap (proven by the chaos-proxy
 * scenarios of bench/chaos_recovery).
 *
 * Failure handling per endpoint is a consecutive-failure circuit
 * breaker: after `breakerThreshold` back-to-back failures the
 * endpoint is marked open and skipped; once `probeAfterSeconds`
 * elapses the next dispatch that considers it sends a half-open PING
 * probe (short probe timeout) and either closes the breaker or keeps
 * it open for another cooldown. A draining server answers its PING
 * with "draining" and is treated as down for new dispatch, which is
 * how rolling restarts hand campaigns over to the surviving
 * endpoints.
 *
 * Per attempt, a chunk is bounded by `chunkDeadlineSeconds`
 * (poll-based read timeout — a wedged endpoint that accepted the
 * connection but never answers is detected within one deadline, never
 * blocked on forever), the fixed ConnectTimeoutSeconds and the BUSY
 * budget. On timeout, torn connection, CRC mismatch, or BUSY
 * exhaustion the connection is closed, the endpoint's failure count
 * bumped, and the chunk redispatched to the next healthy endpoint
 * under exponential backoff (BackoffMinSeconds doubling up to
 * BackoffMaxSeconds), up to `maxAttempts` total tries. Only when
 * every endpoint has been exhausted does dispatch give up, throwing a
 * DispatchError classified DispatchExhausted — the campaign then
 * aborts (CampaignAborted), with every completed chunk already
 * journaled for a bit-identical resume.
 */

#ifndef PACMAN_RUNNER_DISPATCH_HH
#define PACMAN_RUNNER_DISPATCH_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/supervision.hh"
#include "runner/client.hh"

namespace pacman::runner
{

/** TCP connect bound per chunk attempt. */
constexpr double ConnectTimeoutSeconds = 1.0;

/** Exponential inter-attempt backoff bounds. */
constexpr double BackoffMinSeconds = 0.005;
constexpr double BackoffMaxSeconds = 0.25;

/** Failover/health knobs for a multi-endpoint campaign. */
struct DispatchConfig
{
    /** pacman-oracled endpoints (parseEndpoint() forms). At least
     *  one; order seeds the per-worker affinity rotation. */
    std::vector<std::string> endpoints;

    /** Per-attempt host deadline for one chunk's response; 0 = wait
     *  forever. */
    double chunkDeadlineSeconds = 0;

    /** BUSY backoff budget per attempt; 0 = retry forever. */
    double busyDeadlineSeconds = 0;

    /** Consecutive failures that trip an endpoint's breaker open. */
    unsigned breakerThreshold = 3;

    /** Cooldown before an open breaker accepts a half-open probe. */
    double probeAfterSeconds = 0.25;

    /** Read/connect bound for half-open PING probes (kept short so
     *  probing a wedged endpoint stays cheap). */
    double probeTimeoutSeconds = 0.25;

    /** Total dispatch attempts per chunk across all endpoints;
     *  0 = max(4, 2 * endpoints). */
    unsigned maxAttempts = 0;

    /** Resolved attempt budget. */
    unsigned
    effectiveMaxAttempts() const
    {
        if (maxAttempts != 0)
            return maxAttempts;
        const unsigned n = unsigned(endpoints.size());
        return 2 * n > 4 ? 2 * n : 4;
    }
};

/**
 * A dispatch failure, classified with the supervision taxonomy:
 * EndpointDown for one endpoint's failure (internal, also used by
 * probe bookkeeping), DispatchExhausted when the retry budget spent
 * every endpoint. What campaigns convert to CampaignAborted.
 */
struct DispatchError : WireError
{
    DispatchError(WorkerFaultKind k, const std::string &what)
        : WireError(what), kind(k)
    {
    }

    WorkerFaultKind kind;
};

/**
 * Shared failover state over N endpoints for one campaign: the
 * breaker array plus one lazily connected OracleClient per
 * (pool worker, endpoint). Health state is thread-safe; the
 * per-worker connections are not shared across workers (the pool
 * hands each worker slot its own row, same as the local campaign's
 * Worker slots).
 */
class EndpointPool
{
  public:
    /** @p workers is the campaign's effectiveJobs() count. */
    EndpointPool(const DispatchConfig &cfg, unsigned workers);
    ~EndpointPool();

    EndpointPool(const EndpointPool &) = delete;
    EndpointPool &operator=(const EndpointPool &) = delete;

    /**
     * Dispatch one encoded chunk request on behalf of pool worker
     * @p worker, failing over between endpoints as described in the
     * file comment. Returns the chunk_codec payload. Throws
     * DispatchError(DispatchExhausted) when the attempt budget spends
     * every endpoint.
     */
    std::string chunkPayload(unsigned worker,
                             const std::string &request_body);

    /** Merged operational counters (thread-safe snapshot). */
    DispatchStats stats() const;

    /** Endpoints whose breaker is currently closed. */
    unsigned healthyEndpoints() const;

    /** Whether endpoint @p index's breaker is open (tests). */
    bool breakerOpen(size_t index) const;

  private:
    struct Impl;

    const DispatchConfig cfg_;
    std::unique_ptr<Impl> impl_;
};

/**
 * Remote campaign runners: the shared campaign driver (chunk_codec.hh)
 * with an EndpointPool as its dispatcher. The result's `dispatch`
 * counters report the failovers the run survived. A single endpoint
 * is DispatchConfig{{endpoint}}.
 */
BruteForceCampaignResult
runBruteForceCampaignRemote(const BruteForceCampaignConfig &cfg,
                            const DispatchConfig &dispatch);

AccuracyCampaignResult
runAccuracyCampaignRemote(const AccuracyCampaignConfig &cfg,
                          const DispatchConfig &dispatch);

} // namespace pacman::runner

#endif // PACMAN_RUNNER_DISPATCH_HH
