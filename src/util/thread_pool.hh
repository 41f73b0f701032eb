/**
 * @file
 * Fixed-size thread pool with data-parallel helpers.
 *
 * The attack pipelines are embarrassingly parallel over independent
 * units (database records, published pages, error strings), so a
 * simple fixed-size pool with static range partitioning — no work
 * stealing, no task dependencies — covers every hot path while
 * keeping the concurrency surface small enough to reason about.
 *
 * parallelFor / parallelChunks / parallelReduce all block the
 * calling thread until the whole range is done, and degrade to a
 * plain serial loop when the pool has one thread, the range is
 * tiny, or the caller is itself a pool worker (nested parallelism
 * never deadlocks, it just serializes).
 */

#ifndef PCAUSE_UTIL_THREAD_POOL_HH
#define PCAUSE_UTIL_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pcause
{

/** Fixed-size pool of worker threads with fork/join range helpers. */
class ThreadPool
{
  public:
    /**
     * Start @p num_threads workers; 0 means one per hardware
     * thread. A pool of size 1 runs everything inline on the
     * calling thread (no workers are spawned).
     */
    explicit ThreadPool(std::size_t num_threads = 0);

    /** Joins all workers; outstanding work finishes first. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of execution lanes (always >= 1). */
    std::size_t size() const { return lanes; }

    /** Process-wide pool, sized to the hardware, created on first
     *  use. Intended for callers that have no pool threaded
     *  through to them. */
    static ThreadPool &global();

    /**
     * Run body(i) for every i in [begin, end), partitioned into
     * contiguous chunks across the workers. Blocks until done.
     */
    void parallelFor(std::size_t begin, std::size_t end,
                     const std::function<void(std::size_t)> &body);

    /**
     * Chunk-level variant: body(chunk_begin, chunk_end, chunk_index)
     * with chunk_index < size(). Use when the body needs per-thread
     * scratch state (accumulators, counters) without atomics: index
     * per-chunk locals by chunk_index and merge after the call
     * returns.
     */
    void parallelChunks(
        std::size_t begin, std::size_t end,
        const std::function<void(std::size_t, std::size_t,
                                 std::size_t)> &body);

    /**
     * Run body(i) for every i in [0, @p count), each index a task of
     * its own that the next free lane takes, in index order: for
     * tasks of unequal cost (put the largest first). Blocks until
     * done; inline on one lane.
     */
    void parallelTasks(std::size_t count,
                       const std::function<void(std::size_t)> &body);

    /**
     * Map-reduce over [begin, end): fold map(i) into a per-chunk
     * accumulator with @p reduce, then combine the per-chunk
     * partials pairwise (tree-wise, so a non-strictly-associative
     * @p reduce sees a balanced combination order). @p identity is
     * the neutral element of @p reduce.
     */
    template <typename T, typename Map, typename Reduce>
    T parallelReduce(std::size_t begin, std::size_t end, T identity,
                     Map map, Reduce reduce)
    {
        const std::size_t n = end > begin ? end - begin : 0;
        if (n == 0)
            return identity;
        const std::size_t nchunks = chunkCountFor(n);
        std::vector<T> partials(nchunks, identity);
        parallelChunks(begin, end,
                       [&](std::size_t b, std::size_t e,
                           std::size_t c) {
                           T acc = identity;
                           for (std::size_t i = b; i < e; ++i)
                               acc = reduce(std::move(acc), map(i));
                           partials[c] = std::move(acc);
                       });
        // Pairwise tree over the (few) per-chunk partials.
        for (std::size_t stride = 1; stride < nchunks; stride *= 2) {
            for (std::size_t i = 0; i + stride < nchunks;
                 i += 2 * stride) {
                partials[i] = reduce(std::move(partials[i]),
                                     std::move(partials[i + stride]));
            }
        }
        return std::move(partials[0]);
    }

  private:
    /** Number of chunks a range of @p n items is split into. */
    std::size_t chunkCountFor(std::size_t n) const;

    /** Enqueue one task (workers only; callers use the helpers). */
    void enqueue(std::function<void()> task);

    void workerLoop();

    std::size_t lanes = 1;
    std::vector<std::thread> workers;

    std::mutex mtx;
    std::condition_variable wake;
    std::deque<std::function<void()>> queue;
    bool stopping = false;
};

/**
 * Split items [0, @p n) into at most @p parts contiguous ranges of
 * about equal weight, where @p prefix(i) is the ascending running
 * weight before item i (prefix(n) after the last). Returns the
 * boundaries 0 = b[0] < b[1] < ... < b[k] = n (just {0} for no
 * items): range r is [b[r], b[r + 1]).
 */
template <typename Prefix>
std::vector<std::size_t>
splitByWeight(std::size_t n, std::size_t parts, Prefix prefix)
{
    std::vector<std::size_t> bounds{0};
    const auto first = prefix(std::size_t{0});
    const auto total = prefix(n) - first;
    for (std::size_t r = 1; r < parts; ++r) {
        // The first item whose running weight reaches r parts' worth.
        const auto target = first + total / parts * r +
                            total % parts * r / parts;
        std::size_t lo = bounds.back(), hi = n;
        while (lo < hi) {
            const std::size_t mid = lo + (hi - lo) / 2;
            if (prefix(mid) < target)
                lo = mid + 1;
            else
                hi = mid;
        }
        if (lo > bounds.back() && lo < n)
            bounds.push_back(lo);
    }
    if (n > 0)
        bounds.push_back(n);
    return bounds;
}

} // namespace pcause

#endif // PCAUSE_UTIL_THREAD_POOL_HH
