#include "dispatch.hh"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "base/logging.hh"
#include "runner/chunk_codec.hh"

namespace pacman::runner
{

namespace
{

using Clock = std::chrono::steady_clock;

std::chrono::duration<double>
seconds(double s)
{
    return std::chrono::duration<double>(s);
}

} // anonymous namespace

struct EndpointPool::Impl
{
    /** Per-endpoint circuit-breaker state (guarded by mu). */
    struct Health
    {
        unsigned consecutiveFailures = 0;
        bool open = false;
        Clock::time_point reopenAt{};
    };

    explicit Impl(const DispatchConfig &cfg, unsigned workers)
        : cfg(cfg), health(cfg.endpoints.size()), conns(workers)
    {
        for (auto &row : conns)
            row.resize(cfg.endpoints.size());
    }

    /**
     * Pick a dispatchable endpoint, starting from @p worker's
     * affinity slot rotated by @p attempt. Closed breakers win
     * immediately; an open breaker past its cooldown is claimed for a
     * half-open probe (the claim moves reopenAt forward so concurrent
     * workers don't pile probes onto one endpoint) and probed outside
     * the lock. Returns the endpoint index, or nullopt when every
     * breaker is open and unprobeable this round.
     */
    std::optional<size_t>
    pickEndpoint(unsigned worker, unsigned attempt)
    {
        const size_t n = cfg.endpoints.size();
        for (size_t i = 0; i < n; ++i) {
            const size_t ep = (worker + attempt + i) % n;
            bool probe = false;
            {
                std::lock_guard<std::mutex> lock(mu);
                Health &h = health[ep];
                if (!h.open)
                    return ep;
                if (Clock::now() >= h.reopenAt) {
                    h.reopenAt =
                        Clock::now() +
                        std::chrono::duration_cast<Clock::duration>(
                            seconds(cfg.probeAfterSeconds));
                    probe = true;
                    ++stats.probes;
                }
            }
            if (probe && probeEndpoint(ep))
                return ep;
        }
        return std::nullopt;
    }

    /** Half-open probe: fresh short-deadline connection + PING. A
     *  draining server answers but is not dispatchable, so it keeps
     *  the breaker open like a dead one. */
    bool
    probeEndpoint(size_t ep)
    {
        bool ok = false;
        try {
            const double t = cfg.probeTimeoutSeconds;
            OracleClient probe(cfg.endpoints[ep], ClientOptions{t, t, t});
            ok = probe.ping();
        } catch (const WireError &) {
            ok = false;
        }
        std::lock_guard<std::mutex> lock(mu);
        Health &h = health[ep];
        if (ok) {
            h.open = false;
            h.consecutiveFailures = 0;
        } else {
            ++stats.probeFailures;
        }
        return ok;
    }

    void
    markSuccess(size_t ep)
    {
        std::lock_guard<std::mutex> lock(mu);
        Health &h = health[ep];
        h.open = false;
        h.consecutiveFailures = 0;
    }

    void
    markFailure(size_t ep)
    {
        std::lock_guard<std::mutex> lock(mu);
        Health &h = health[ep];
        ++h.consecutiveFailures;
        if (!h.open && h.consecutiveFailures >= cfg.breakerThreshold) {
            h.open = true;
            h.reopenAt =
                Clock::now() +
                std::chrono::duration_cast<Clock::duration>(
                    seconds(cfg.probeAfterSeconds));
            ++stats.breakerOpens;
        }
    }

    const DispatchConfig &cfg;
    mutable std::mutex mu;
    std::vector<Health> health;
    DispatchStats stats;

    /** conns[worker][endpoint]; each worker touches only its own
     *  row, so rows need no locking. */
    std::vector<std::vector<std::unique_ptr<OracleClient>>> conns;
};

EndpointPool::EndpointPool(const DispatchConfig &cfg, unsigned workers)
    : cfg_(cfg), impl_(std::make_unique<Impl>(cfg_, workers))
{
    PACMAN_ASSERT(!cfg_.endpoints.empty(),
                  "EndpointPool needs at least one endpoint");
    PACMAN_ASSERT(workers > 0, "EndpointPool needs at least one worker");
    for (const std::string &spec : cfg_.endpoints)
        if (!parseEndpoint(spec))
            throw WireError("malformed endpoint: " + spec);
}

EndpointPool::~EndpointPool() = default;

std::string
EndpointPool::chunkPayload(unsigned worker,
                           const std::string &request_body)
{
    PACMAN_ASSERT(worker < impl_->conns.size(),
                  "worker slot out of range");
    const size_t preferred = worker % cfg_.endpoints.size();
    const unsigned max_attempts = cfg_.effectiveMaxAttempts();
    double backoff = BackoffMinSeconds;
    std::string last_error = "no endpoint available";

    for (unsigned attempt = 0; attempt < max_attempts; ++attempt) {
        if (attempt > 0) {
            {
                std::lock_guard<std::mutex> lock(impl_->mu);
                ++impl_->stats.retries;
            }
            std::this_thread::sleep_for(seconds(backoff));
            backoff = std::min(backoff * 2, BackoffMaxSeconds);
        }

        const std::optional<size_t> picked =
            impl_->pickEndpoint(worker, attempt);
        if (!picked) {
            last_error = "all endpoint breakers open";
            continue;
        }
        const size_t ep = *picked;

        std::unique_ptr<OracleClient> &conn =
            impl_->conns[worker][ep];
        try {
            if (!conn)
                conn = std::make_unique<OracleClient>(ClientOptions{
                    .connectTimeoutSeconds = ConnectTimeoutSeconds,
                    .readTimeoutSeconds = cfg_.chunkDeadlineSeconds,
                    .busyDeadlineSeconds = cfg_.busyDeadlineSeconds});
            if (!conn->connected())
                conn->connect(cfg_.endpoints[ep]);
            std::string payload = conn->chunkPayload(request_body);
            impl_->markSuccess(ep);
            std::lock_guard<std::mutex> lock(impl_->mu);
            ++impl_->stats.dispatched;
            if (ep != preferred)
                ++impl_->stats.failovers;
            return payload;
        } catch (const WireTimeout &e) {
            last_error = e.what();
            std::lock_guard<std::mutex> lock(impl_->mu);
            ++impl_->stats.timeouts;
        } catch (const BusyExhausted &e) {
            last_error = e.what();
            std::lock_guard<std::mutex> lock(impl_->mu);
            ++impl_->stats.busyExhaustions;
        } catch (const WireError &e) {
            last_error = e.what();
            std::lock_guard<std::mutex> lock(impl_->mu);
            ++impl_->stats.wireErrors;
        }
        // The client already closed the failed connection; record the
        // endpoint strike and move to the next candidate.
        impl_->markFailure(ep);
    }

    throw DispatchError(
        WorkerFaultKind::DispatchExhausted,
        strprintf("[%s] chunk dispatch exhausted %u attempts across "
                  "%zu endpoint(s); last error: %s",
                  workerFaultName(WorkerFaultKind::DispatchExhausted),
                  max_attempts, cfg_.endpoints.size(),
                  last_error.c_str()));
}

DispatchStats
EndpointPool::stats() const
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    return impl_->stats;
}

unsigned
EndpointPool::healthyEndpoints() const
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    unsigned n = 0;
    for (const Impl::Health &h : impl_->health)
        if (!h.open)
            ++n;
    return n;
}

bool
EndpointPool::breakerOpen(size_t index) const
{
    PACMAN_ASSERT(index < impl_->health.size(),
                  "endpoint index out of range");
    std::lock_guard<std::mutex> lock(impl_->mu);
    return impl_->health[index].open;
}

// --- Remote campaign runners --------------------------------------

namespace
{

template <class Config>
typename CampaignKind<Config>::Result
runCampaignRemote(const Config &cfg, const DispatchConfig &dispatch)
{
    EndpointPool pool(dispatch, effectiveJobs(cfg.pool.jobs));
    auto result = runCampaignWith(
        cfg, [&](unsigned worker, const Chunk &chunk) {
            return pool.chunkPayload(
                worker, CampaignKind<Config>::request(cfg, chunk));
        });
    result.dispatch = pool.stats();
    return result;
}

} // anonymous namespace

BruteForceCampaignResult
runBruteForceCampaignRemote(const BruteForceCampaignConfig &cfg,
                            const DispatchConfig &dispatch)
{
    return runCampaignRemote(cfg, dispatch);
}

AccuracyCampaignResult
runAccuracyCampaignRemote(const AccuracyCampaignConfig &cfg,
                          const DispatchConfig &dispatch)
{
    return runCampaignRemote(cfg, dispatch);
}

} // namespace pacman::runner
