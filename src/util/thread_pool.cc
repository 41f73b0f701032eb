#include "util/thread_pool.hh"

#include <atomic>
#include <exception>

namespace pcause
{

namespace
{

/** Set while the current thread is executing pool work; nested
 *  fork/join calls from inside a task run serially instead of
 *  enqueueing (a blocked worker waiting on other workers could
 *  otherwise deadlock the fixed-size pool). */
thread_local bool inside_pool_task = false;

} // anonymous namespace

ThreadPool::ThreadPool(std::size_t num_threads)
{
    if (num_threads == 0) {
        num_threads = std::thread::hardware_concurrency();
        if (num_threads == 0)
            num_threads = 1;
    }
    lanes = num_threads;
    if (lanes == 1)
        return; // inline execution, no workers
    workers.reserve(lanes);
    for (std::size_t i = 0; i < lanes; ++i)
        workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mtx);
        stopping = true;
    }
    wake.notify_all();
    for (auto &w : workers)
        w.join();
}

ThreadPool &
ThreadPool::global()
{
    static ThreadPool pool(0);
    return pool;
}

void
ThreadPool::enqueue(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mtx);
        queue.push_back(std::move(task));
    }
    wake.notify_one();
}

void
ThreadPool::workerLoop()
{
    inside_pool_task = true;
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mtx);
            wake.wait(lock,
                      [this] { return stopping || !queue.empty(); });
            if (queue.empty())
                return; // stopping and drained
            task = std::move(queue.front());
            queue.pop_front();
        }
        task();
    }
}

std::size_t
ThreadPool::chunkCountFor(std::size_t n) const
{
    if (lanes == 1 || n <= 1 || inside_pool_task)
        return 1;
    return n < lanes ? n : lanes;
}

void
ThreadPool::parallelChunks(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t, std::size_t)>
        &body)
{
    if (end <= begin)
        return;
    const std::size_t n = end - begin;
    const std::size_t nchunks = chunkCountFor(n);
    if (nchunks == 1) {
        body(begin, end, 0);
        return;
    }

    // Fork: one task per chunk, evenly sized (remainder spread over
    // the first chunks). Join: completion latch on the caller. The
    // counter is only touched under done_mtx so the last worker has
    // released the lock — and stopped touching the latch — before
    // the caller can observe zero and destroy it.
    std::size_t remaining = nchunks;
    std::mutex done_mtx;
    std::condition_variable done_cv;
    std::exception_ptr first_error;

    const std::size_t base = n / nchunks;
    const std::size_t extra = n % nchunks;
    std::size_t chunk_begin = begin;
    for (std::size_t c = 0; c < nchunks; ++c) {
        const std::size_t len = base + (c < extra ? 1 : 0);
        const std::size_t b = chunk_begin;
        const std::size_t e = chunk_begin + len;
        chunk_begin = e;
        enqueue([&, b, e, c] {
            std::exception_ptr err;
            try {
                body(b, e, c);
            } catch (...) {
                err = std::current_exception();
            }
            std::lock_guard<std::mutex> lock(done_mtx);
            if (err && !first_error)
                first_error = err;
            if (--remaining == 0)
                done_cv.notify_all();
        });
    }

    std::unique_lock<std::mutex> lock(done_mtx);
    done_cv.wait(lock, [&] { return remaining == 0; });
    const std::exception_ptr err = first_error;
    lock.unlock();
    if (err)
        std::rethrow_exception(err);
}

void
ThreadPool::parallelFor(std::size_t begin, std::size_t end,
                        const std::function<void(std::size_t)> &body)
{
    parallelChunks(begin, end,
                   [&body](std::size_t b, std::size_t e,
                           std::size_t) {
                       for (std::size_t i = b; i < e; ++i)
                           body(i);
                   });
}

void
ThreadPool::parallelTasks(std::size_t count,
                          const std::function<void(std::size_t)> &body)
{
    // One puller per lane; each takes the next unclaimed index until
    // none is left.
    std::atomic<std::size_t> next{0};
    parallelChunks(0, count < lanes ? count : lanes,
                   [&](std::size_t, std::size_t, std::size_t) {
                       for (std::size_t i = next++; i < count;
                            i = next++)
                           body(i);
                   });
}

} // namespace pcause
