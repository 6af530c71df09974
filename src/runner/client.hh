/**
 * @file
 * Client for pacman-oracled (server.hh): endpoint parsing,
 * connection management, pipelined request/response matching, and
 * the high-level query, truth and CHUNK calls. The remote campaign
 * runners that drive it live in dispatch.hh.
 *
 * Failure model: a BUSY response (admission control) is retried with
 * exponential backoff, bounded by ClientOptions::busyDeadlineSeconds
 * (BusyExhausted on expiry); a read that outlives
 * ClientOptions::readTimeoutSeconds throws WireTimeout; ERR responses
 * and torn connections throw WireError. Every one of these closes the
 * connection first — a timed-out or desynchronised stream can never
 * be reused — so callers reconnect (or fail over, dispatch.hh) from a
 * clean slate.
 */

#ifndef PACMAN_RUNNER_CLIENT_HH
#define PACMAN_RUNNER_CLIENT_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "runner/protocol.hh"

namespace pacman::runner
{

/** The admission-control backoff budget expired: the server kept
 *  answering BUSY for the whole busyDeadlineSeconds window. */
struct BusyExhausted : WireError
{
    using WireError::WireError;
};

/** A parsed endpoint specification. */
struct Endpoint
{
    enum class Kind
    {
        Unix,
        Tcp,
    };

    Kind kind = Kind::Unix;
    std::string path; //!< Unix socket path
    std::string host; //!< TCP host (IPv6 literals without brackets)
    std::string port; //!< TCP port or service name
};

/**
 * Parse "unix:<path>", "tcp:<host>:<port>", "tcp:[<v6>]:<port>", or
 * a bare Unix socket path. IPv6 literals must be bracketed (the colon
 * would otherwise be read as the host:port separator). Returns
 * nullopt on a malformed spec (empty path/host/port, unbalanced
 * brackets).
 */
std::optional<Endpoint> parseEndpoint(const std::string &spec);

/**
 * Open a connected stream socket to @p ep (TCP resolution is
 * AF_UNSPEC; @p timeout_seconds > 0 bounds the TCP handshake, throwing
 * WireTimeout on expiry). The caller owns the returned fd. Shared by
 * OracleClient and relays (bench/chaos_proxy.hh) that dial upstream.
 */
int connectEndpoint(const Endpoint &ep, double timeout_seconds = 0);

/** Per-connection failure-detection knobs (all 0 = wait forever,
 *  the pre-deadline behaviour). */
struct ClientOptions
{
    /** Bound on establishing a TCP connection; 0 = OS default. */
    double connectTimeoutSeconds = 0;

    /** Bound on one response frame arriving (poll-based); expiry
     *  throws WireTimeout and closes the connection. */
    double readTimeoutSeconds = 0;

    /** Overall budget for the BUSY retry loop per call; expiry
     *  throws BusyExhausted. */
    double busyDeadlineSeconds = 0;
};

/** One connection to a pacman-oracled instance. Not thread-safe:
 *  campaigns use one client per pool slot. */
class OracleClient
{
  public:
    OracleClient() = default;

    explicit OracleClient(const ClientOptions &opts) : opts_(opts) {}

    /** Connect immediately (see connect()). */
    explicit OracleClient(const std::string &endpoint,
                          const ClientOptions &opts = {});

    ~OracleClient();

    OracleClient(const OracleClient &) = delete;
    OracleClient &operator=(const OracleClient &) = delete;

    /**
     * Connect to @p endpoint (see parseEndpoint() for the accepted
     * forms; TCP resolution is AF_UNSPEC, so IPv6 endpoints work).
     * Throws WireError on failure, WireTimeout when
     * connectTimeoutSeconds expires first.
     */
    void connect(const std::string &endpoint);

    /** Adopt an already-connected fd (tests drive the peer end of a
     *  socketpair directly). The client owns and closes it. */
    void adopt(int fd);

    /** close() + connect() to the endpoint of the last connect().
     *  Pending pipelined responses are discarded. */
    void reconnect();

    bool connected() const { return fd_ >= 0; }

    void close();

    /** Bind this connection to a tenant (HELLO). */
    void hello(const std::string &tenant, uint64_t secret);

    /** Fire one request without waiting; returns its id. Closes the
     *  connection and rethrows on a wire failure. */
    uint64_t sendRequest(const std::string &verb,
                         const std::string &args = {},
                         const std::string &body = {});

    /**
     * Wait for the response to @p id. Responses arriving for other
     * outstanding ids are buffered, so requests can be pipelined and
     * completed out of order. A wire failure (torn connection,
     * malformed frame, read timeout) closes the connection before the
     * error propagates — buffered responses are discarded with it.
     */
    WireMessage readResponse(uint64_t id);

    /** Buffered out-of-order responses awaiting their readResponse
     *  (diagnostics/tests). */
    size_t pendingResponses() const { return pending_.size(); }

    /** sendRequest + readResponse. */
    WireMessage call(const std::string &verb,
                     const std::string &args = {},
                     const std::string &body = {});

    /** One PAC-oracle query against the given replica config. */
    struct QueryResult
    {
        bool hot = false;   //!< oracle classified the PAC correct
        double misses = 0;  //!< sampled probe-miss count
    };
    QueryResult query(uint16_t candidate, uint64_t stream_seed,
                      const ReplicaConfig &replica,
                      const SupervisionConfig &sup = {});

    /** Ground-truth PAC (server must run with allowTruth). */
    uint16_t truth(const ReplicaConfig &replica,
                   const SupervisionConfig &sup = {});

    /**
     * Execute one campaign chunk remotely and return the encoded
     * chunk_codec payload. Retries BUSY under the busy deadline;
     * throws WireError/WireTimeout/BusyExhausted per the failure
     * model above.
     */
    std::string chunkPayload(const std::string &request_body);

    /** The server's pacman-bench-v1 metrics document. */
    std::string metricsJson();

    /** Liveness probe. Returns true when the server is accepting
     *  work, false when it answered but is draining (health probes
     *  treat a draining endpoint as down for new dispatch). */
    bool ping();

    /** Ask the server to drain (stop accepting, finish, exit). */
    void drain();

  private:
    WireMessage callChecked(const std::string &verb,
                            const std::string &args,
                            const std::string &body);

    int fd_ = -1;
    uint64_t nextId_ = 1;
    std::string endpoint_;
    ClientOptions opts_;
    std::map<uint64_t, WireMessage> pending_;
};

} // namespace pacman::runner

#endif // PACMAN_RUNNER_CLIENT_HH
