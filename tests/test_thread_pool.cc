/**
 * @file
 * Unit tests for util/thread_pool: partitioning, blocking fork/join
 * semantics, concurrent outside callers, nested-call serialization,
 * exception propagation, and the reduce helper.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.hh"

namespace pcause
{
namespace
{

TEST(ThreadPool, SizeIsAlwaysAtLeastOne)
{
    ThreadPool one(1);
    EXPECT_EQ(one.size(), 1u);
    ThreadPool four(4);
    EXPECT_EQ(four.size(), 4u);
    ThreadPool hw(0);
    EXPECT_GE(hw.size(), 1u);
}

TEST(ThreadPool, ParallelForVisitsEveryIndexOnce)
{
    for (unsigned lanes : {1u, 2u, 4u, 7u}) {
        ThreadPool pool(lanes);
        for (std::size_t n : {0u, 1u, 2u, 5u, 64u, 1000u}) {
            std::vector<std::atomic<int>> hits(n);
            pool.parallelFor(0, n, [&](std::size_t i) {
                hits[i].fetch_add(1, std::memory_order_relaxed);
            });
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_EQ(hits[i].load(), 1) << "n " << n << " i "
                                             << i;
        }
    }
}

TEST(ThreadPool, ParallelForHonorsNonZeroBegin)
{
    ThreadPool pool(3);
    std::atomic<std::size_t> sum{0};
    pool.parallelFor(10, 20, [&](std::size_t i) {
        sum.fetch_add(i, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 145u); // 10 + 11 + ... + 19
}

/** Outside threads sharing one pool (served identifies on the mmap
 *  backend do this): each call returns only once its own range is
 *  done, having visited every index of it exactly once. */
TEST(ThreadPool, ConcurrentCallersEachJoinTheirOwnRange)
{
    constexpr std::size_t callers = 4;
    ThreadPool pool(4);
    for (int round = 0; round < 50; ++round) {
        std::vector<std::vector<std::atomic<int>>> hits;
        for (std::size_t c = 0; c < callers; ++c)
            hits.emplace_back(200 + 37 * c);
        std::atomic<std::size_t> ready{0};
        std::atomic<std::size_t> strays{0};
        std::vector<int> joined(callers, 0);
        std::vector<std::thread> threads;
        for (std::size_t c = 0; c < callers; ++c) {
            threads.emplace_back([&, c] {
                const std::size_t begin = 1000 * c;
                const std::size_t end = begin + hits[c].size();
                ready.fetch_add(1);
                while (ready.load() < callers)
                    std::this_thread::yield();
                pool.parallelFor(begin, end, [&](std::size_t i) {
                    if (i < begin || i >= end)
                        strays.fetch_add(1);
                    else
                        hits[c][i - begin].fetch_add(1);
                });
                joined[c] = 1;
                for (const std::atomic<int> &h : hits[c])
                    joined[c] &= h.load() == 1;
            });
        }
        for (std::thread &t : threads)
            t.join();
        EXPECT_EQ(strays.load(), 0u) << "round " << round;
        for (std::size_t c = 0; c < callers; ++c) {
            EXPECT_EQ(joined[c], 1) << "round " << round << " caller "
                                    << c;
            for (const std::atomic<int> &h : hits[c])
                ASSERT_EQ(h.load(), 1);
        }
    }
}

TEST(ThreadPool, ChunksPartitionTheRangeExactly)
{
    ThreadPool pool(4);
    const std::size_t n = 103;
    std::vector<std::pair<std::size_t, std::size_t>> chunks(
        pool.size(), {0, 0});
    std::set<std::size_t> indices;
    std::mutex m;
    pool.parallelChunks(0, n,
                        [&](std::size_t b, std::size_t e,
                            std::size_t c) {
                            std::lock_guard<std::mutex> lock(m);
                            ASSERT_LT(c, pool.size());
                            chunks[c] = {b, e};
                            for (std::size_t i = b; i < e; ++i)
                                EXPECT_TRUE(indices.insert(i).second);
                        });
    EXPECT_EQ(indices.size(), n);
    // Chunks are contiguous, ascending by chunk index, near-even.
    std::size_t expect_begin = 0;
    for (const auto &[b, e] : chunks) {
        EXPECT_EQ(b, expect_begin);
        EXPECT_GE(e, b);
        const std::size_t len = e - b;
        EXPECT_GE(len, n / pool.size());
        EXPECT_LE(len, n / pool.size() + 1);
        expect_begin = e;
    }
    EXPECT_EQ(expect_begin, n);
}

TEST(ThreadPool, TinyRangeRunsAsOneChunk)
{
    ThreadPool pool(8);
    std::atomic<unsigned> calls{0};
    pool.parallelChunks(0, 1,
                        [&](std::size_t b, std::size_t e,
                            std::size_t c) {
                            calls.fetch_add(1);
                            EXPECT_EQ(b, 0u);
                            EXPECT_EQ(e, 1u);
                            EXPECT_EQ(c, 0u);
                        });
    EXPECT_EQ(calls.load(), 1u);
}

TEST(ThreadPool, NestedCallsSerializeInsteadOfDeadlocking)
{
    ThreadPool pool(2);
    std::atomic<std::size_t> inner_total{0};
    pool.parallelFor(0, 4, [&](std::size_t) {
        // Fork/join from inside a pool task must run inline.
        pool.parallelFor(0, 8, [&](std::size_t) {
            inner_total.fetch_add(1, std::memory_order_relaxed);
        });
    });
    EXPECT_EQ(inner_total.load(), 32u);
}

TEST(ThreadPool, ExceptionsPropagateToTheCaller)
{
    ThreadPool pool(4);
    EXPECT_THROW(
        pool.parallelFor(0, 100,
                         [](std::size_t i) {
                             if (i == 37)
                                 throw std::runtime_error("boom");
                         }),
        std::runtime_error);
    // The pool survives and remains usable.
    std::atomic<std::size_t> count{0};
    pool.parallelFor(0, 10, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 10u);
}

TEST(ThreadPool, ReduceSumsLikeSerial)
{
    for (unsigned lanes : {1u, 4u}) {
        ThreadPool pool(lanes);
        for (std::size_t n : {0u, 1u, 3u, 100u, 1001u}) {
            const long got = pool.parallelReduce(
                0, n, 0L, [](std::size_t i) { return long(i); },
                [](long a, long b) { return a + b; });
            EXPECT_EQ(got, long(n) * long(n ? n - 1 : 0) / 2);
        }
    }
}

TEST(ThreadPool, ReduceSupportsMoveOnlyishAccumulators)
{
    // Vector concatenation: order across chunks must follow the
    // chunk order (tree combination preserves left-to-right order).
    ThreadPool pool(4);
    const std::vector<int> got = pool.parallelReduce(
        0, 100, std::vector<int>{},
        [](std::size_t i) { return std::vector<int>{int(i)}; },
        [](std::vector<int> a, std::vector<int> b) {
            a.insert(a.end(), b.begin(), b.end());
            return a;
        });
    std::vector<int> want(100);
    std::iota(want.begin(), want.end(), 0);
    EXPECT_EQ(got, want);
}

TEST(ThreadPool, GlobalPoolIsReusable)
{
    ThreadPool &g1 = ThreadPool::global();
    ThreadPool &g2 = ThreadPool::global();
    EXPECT_EQ(&g1, &g2);
    std::atomic<std::size_t> count{0};
    g1.parallelFor(0, 25, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 25u);
}

} // anonymous namespace
} // namespace pcause
