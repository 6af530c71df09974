/**
 * @file
 * Deterministic fixed-size worker pool over an indexed item space.
 *
 * Work items [0, num_items) are grouped into fixed-size chunks and
 * handed out from a shared atomic cursor to `jobs` workers. Nothing a
 * worker computes may depend on *which* worker ran it or *when* it
 * ran — campaigns derive all randomness from (campaign_seed,
 * chunk_index) via Random::deriveSeed — so the per-chunk results are
 * a pure function of the chunk index and the merged output is
 * bit-identical at 1, 4, or 16 threads.
 *
 * Early exit is supported without breaking determinism: a chunk
 * callback may report a "hit" at an item index (e.g. the brute-forcer
 * found a matching PAC). The pool then skips chunks that start after
 * the lowest hit seen so far. Because the cutoff only ever moves
 * down, every chunk whose first item precedes the final cutoff is
 * guaranteed to have run to completion, and chunks after it are
 * excluded from the merge whether or not they happened to run — so
 * the merged result equals what one serial low-to-high sweep reports.
 */

#ifndef PACMAN_RUNNER_POOL_HH
#define PACMAN_RUNNER_POOL_HH

#include <cstdint>
#include <functional>
#include <optional>

namespace pacman::runner
{

/** Worker-pool sizing and work-handout granularity. */
struct PoolConfig
{
    /** Worker threads; 0 picks the host's hardware concurrency. */
    unsigned jobs = 1;

    /** Items per queue pop. Large enough to amortise per-chunk
     *  replica construction, small enough to load-balance. */
    uint64_t chunkSize = 256;
};

/** Resolve a jobs request (0 = hardware concurrency, never 0). */
unsigned effectiveJobs(unsigned jobs);

/** Number of chunks covering @p num_items at @p chunk_size. */
uint64_t chunkCount(uint64_t num_items, uint64_t chunk_size);

/** One chunk of the item space handed to a worker. */
struct Chunk
{
    uint64_t index;     //!< chunk number, 0-based
    uint64_t firstItem; //!< first item covered
    uint64_t lastItem;  //!< last item covered (inclusive)

    uint64_t size() const { return lastItem - firstItem + 1; }
};

/**
 * Chunk callback: process items [chunk.firstItem, chunk.lastItem] on
 * worker @p worker. Return the item index of the first hit if the
 * chunk wants to trigger early exit, std::nullopt otherwise.
 */
using ChunkFn =
    std::function<std::optional<uint64_t>(unsigned worker,
                                          const Chunk &chunk)>;

/** What the pool did; campaigns use firstHit to bound their merge. */
struct PoolOutcome
{
    uint64_t numChunks = 0;
    uint64_t chunksRun = 0;
    uint64_t chunksSkipped = 0;

    /** Lowest hit item across all chunks that ran, if any. */
    std::optional<uint64_t> firstHit;
};

/**
 * Run @p fn over every chunk of [0, num_items) on a pool of
 * cfg.jobs workers (inline on the calling thread when jobs == 1).
 */
PoolOutcome runChunked(const PoolConfig &cfg, uint64_t num_items,
                       const ChunkFn &fn);

} // namespace pacman::runner

#endif // PACMAN_RUNNER_POOL_HH
