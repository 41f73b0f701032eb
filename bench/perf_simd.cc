/**
 * @file
 * SIMD kernel dispatch: speedup floors and cross-level equivalence.
 *
 * Times every dispatched kernel (util/simd.hh) at each level the CPU
 * supports with a tight rdtscp min-of-N loop — the minimum over many
 * repetitions is the classic noise-resistant estimator for short
 * deterministic kernels — and verifies on every measured input that
 * all levels return bit-identical results (counts, bounded sparse
 * partial counts, charged-word buffers). Then runs the
 * identification pipeline end to end (linear Algorithm 2 scan and
 * indexed FingerprintStore queries) under forced-scalar and auto
 * dispatch to show the compounded effect and to check that no
 * verdict moves.
 *
 * Enforced gates (exit nonzero):
 *   - zero result divergences between dispatch levels, micro and
 *     end-to-end alike;
 *   - on AVX2-capable hardware, >= 4x scalar->vector on the
 *     andNotCount kernel (the dense Algorithm 3 AND-NOT popcount)
 *     at the large operand size.
 *
 * Emits BENCH_simd.json (field reference in docs/TESTING.md). Part
 * of the CI perf-smoke job.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "core/identify.hh"
#include "core/store.hh"
#include "util/bitvec.hh"
#include "util/rng.hh"
#include "util/simd.hh"

namespace
{

using namespace pcause;

constexpr double speedupFloor = 4.0; //!< gated kernel, AVX2 hardware
constexpr std::size_t smallWords = 128;  //!< one 8192-bit universe
constexpr std::size_t largeWords = 8192; //!< 64 KiB per operand
constexpr std::size_t sparsePositions = 256;

/** Serialized cycle (or ns fallback) timestamp. */
std::uint64_t
ticksNow()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned aux;
    _mm_lfence();
    const std::uint64_t t = __rdtscp(&aux);
    _mm_lfence();
    return t;
#else
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
#endif
}

/**
 * Min-of-N cost of one @p f() call in ticks. @p f returns a checksum
 * folded into a volatile sink so the optimizer cannot delete the
 * kernel under test.
 */
template <typename F>
double
measure(F &&f)
{
    constexpr int reps = 31;
    constexpr int iters = 8;
    volatile std::uint64_t sink = 0;
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
        const std::uint64_t t0 = ticksNow();
        std::uint64_t acc = 0;
        for (int i = 0; i < iters; ++i)
            acc += f();
        const std::uint64_t t1 = ticksNow();
        sink = sink + acc;
        best = std::min(best,
                        static_cast<double>(t1 - t0) / iters);
    }
    (void)sink;
    return best;
}

/** Ticks per level for one kernel at one operand size. */
struct KernelRow
{
    std::string name;
    std::size_t words = 0;
    double ticks[3] = {0.0, 0.0, 0.0};
    bool measured[3] = {false, false, false};

    double speedup(simd::Level lvl) const
    {
        const int i = static_cast<int>(lvl);
        return measured[i] ? ticks[0] / ticks[i] : 0.0;
    }
};

std::vector<simd::Level>
availableLevels()
{
    std::vector<simd::Level> out;
    for (simd::Level lvl : {simd::Level::Scalar, simd::Level::Avx2,
                            simd::Level::Avx512}) {
        if (simd::levelAvailable(lvl))
            out.push_back(lvl);
    }
    return out;
}

std::size_t gDivergences = 0;

void
diverged(const std::string &where, simd::Level lvl)
{
    std::printf("FAIL: %s diverged at level %s\n", where.c_str(),
                simd::levelName(lvl));
    ++gDivergences;
}

/** Time @p f(level) at every available level after checking that
 *  every level reproduces the scalar checksum exactly. */
template <typename F>
KernelRow
runKernel(const std::string &name, std::size_t words, F &&f)
{
    KernelRow row;
    row.name = name;
    row.words = words;
    const std::uint64_t ref = f(simd::Level::Scalar);
    for (simd::Level lvl : availableLevels()) {
        if (f(lvl) != ref)
            diverged(name, lvl);
        const int i = static_cast<int>(lvl);
        row.ticks[i] = measure([&] { return f(lvl); });
        row.measured[i] = true;
    }
    return row;
}

/** All micro rows for one operand size. */
void
microBench(std::size_t nwords, Rng &rng, std::vector<KernelRow> &rows)
{
    std::vector<std::uint64_t> a(nwords), b(nwords);
    for (std::size_t i = 0; i < nwords; ++i) {
        a[i] = rng.next();
        b[i] = rng.next() & rng.next(); // sparser second operand
    }
    const std::uint64_t *pa = a.data();
    const std::uint64_t *pb = b.data();

    rows.push_back(runKernel("popcount", nwords, [&](simd::Level l) {
        return simd::popcountWords(pa, nwords, l);
    }));
    rows.push_back(runKernel("andCount", nwords, [&](simd::Level l) {
        return simd::andCountWords(pa, pb, nwords, l);
    }));
    rows.push_back(runKernel("andNotCount", nwords, [&](simd::Level l) {
        return simd::andNotCountWords(pa, pb, nwords, l);
    }));
    rows.push_back(runKernel("xorCount", nwords, [&](simd::Level l) {
        return simd::xorCountWords(pa, pb, nwords, l);
    }));
    // Decay mask builder: ~half the words pass the retention screen.
    std::vector<float> word_min(nwords);
    for (std::size_t i = 0; i < nwords; ++i)
        word_min[i] = static_cast<float>(rng.nextDouble());
    std::vector<std::uint64_t> charged(nwords);
    {
        std::vector<std::uint64_t> ref_buf(nwords);
        const std::size_t ref_nz = simd::buildChargedWords(
            pa, nwords, 0ull, word_min.data(), 0.5, ref_buf.data(),
            simd::Level::Scalar);
        KernelRow row;
        row.name = "buildChargedWords";
        row.words = nwords;
        for (simd::Level lvl : availableLevels()) {
            const std::size_t nz = simd::buildChargedWords(
                pa, nwords, 0ull, word_min.data(), 0.5,
                charged.data(), lvl);
            if (nz != ref_nz ||
                std::memcmp(charged.data(), ref_buf.data(),
                            nwords * sizeof(std::uint64_t)) != 0)
                diverged("buildChargedWords", lvl);
            const int i = static_cast<int>(lvl);
            row.ticks[i] = measure([&] {
                return simd::buildChargedWords(pa, nwords, 0ull,
                                               word_min.data(), 0.5,
                                               charged.data(), lvl);
            });
            row.measured[i] = true;
        }
        rows.push_back(row);
    }
}

/** Sparse-scan rows (fixed, universe-shaped operands). */
void
domainBench(Rng &rng, std::vector<KernelRow> &rows)
{
    BitVec dense(smallWords * 64);
    for (std::size_t i = 0; i < 2048; ++i)
        dense.set(rng.nextBelow(dense.size()));
    BitVec picked(dense.size());
    while (picked.popcount() < sparsePositions)
        picked.set(rng.nextBelow(dense.size()));
    std::vector<std::uint32_t> pos;
    pos.reserve(sparsePositions);
    for (std::size_t p : picked.setBits())
        pos.push_back(static_cast<std::uint32_t>(p));
    const std::uint64_t *words = dense.words().data();
    const std::size_t n = pos.size();
    const std::size_t es_weight = dense.popcount();

    rows.push_back(
        runKernel("sparseMissCountBounded", smallWords,
                  [&](simd::Level l) {
                      return simd::sparseMissCountBounded(
                          words, pos.data(), n, n, l);
                  }));
    rows.push_back(
        runKernel("sparseInterCountBounded", smallWords,
                  [&](simd::Level l) {
                      const simd::SparseInterScan s =
                          simd::sparseInterCountBounded(
                              words, pos.data(), n, es_weight,
                              es_weight, l);
                      return s.inter * 100000 + s.scanned;
                  }));
}

/** End-to-end scalar-vs-auto wall time through the store. */
struct EndToEnd
{
    std::size_t records = 0;
    std::size_t queries = 0;
    double linearScalarMs = 0.0;
    double linearAutoMs = 0.0;
    double indexedScalarMs = 0.0;
    double indexedAutoMs = 0.0;
    std::size_t divergences = 0;

    double linearSpeedup() const
    {
        return linearScalarMs / linearAutoMs;
    }
    double indexedSpeedup() const
    {
        return indexedScalarMs / indexedAutoMs;
    }
};

EndToEnd
endToEnd()
{
    constexpr std::size_t numRecords = 10000;
    constexpr std::size_t numQueries = 32;
    constexpr std::size_t universeBits = 8192;
    constexpr std::size_t weight = 256;

    Rng rng(0x73696d642d653265ull);
    EndToEnd res;
    res.records = numRecords;
    res.queries = numQueries;

    FingerprintStore store;
    {
        std::vector<ChipLabel> labels(numRecords);
        std::vector<Fingerprint> fps;
        fps.reserve(numRecords);
        for (std::size_t i = 0; i < numRecords; ++i) {
            labels[i] = "chip-" + std::to_string(i);
            BitVec bits(universeBits);
            for (std::size_t j = 0; j < weight; ++j)
                bits.set(rng.nextBelow(universeBits));
            fps.emplace_back(std::move(bits), 3u);
        }
        store.addBatch(std::move(labels), std::move(fps));
    }

    std::vector<BitVec> queries(numQueries);
    for (std::size_t q = 0; q < numQueries; ++q) {
        BitVec es =
            store.record(rng.nextBelow(numRecords)).fingerprint.bits();
        for (std::size_t i = 0; i < 64; ++i)
            es.set(rng.nextBelow(universeBits));
        queries[q] = std::move(es);
    }

    const IdentifyParams prm;
    const auto timeQueries = [&](bool linear) {
        std::vector<IdentifyResult> out(numQueries);
        const auto start = std::chrono::steady_clock::now();
        for (std::size_t q = 0; q < numQueries; ++q) {
            out[q] = linear ? store.queryLinear(queries[q], prm)
                            : store.query(queries[q], prm);
        }
        const double ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - start)
                .count() /
            numQueries;
        return std::pair(ms, std::move(out));
    };

    // Untimed warm-up: fault in the arena, signatures, and LSH
    // buckets so neither level pays the cold-cache cost.
    for (std::size_t q = 0; q < numQueries; ++q) {
        (void)store.queryLinear(queries[q], prm);
        (void)store.query(queries[q], prm);
    }

    simd::selectLevel("scalar");
    auto [lin_scalar_ms, lin_scalar] = timeQueries(true);
    auto [idx_scalar_ms, idx_scalar] = timeQueries(false);
    simd::selectLevel("auto");
    auto [lin_auto_ms, lin_auto] = timeQueries(true);
    auto [idx_auto_ms, idx_auto] = timeQueries(false);

    res.linearScalarMs = lin_scalar_ms;
    res.linearAutoMs = lin_auto_ms;
    res.indexedScalarMs = idx_scalar_ms;
    res.indexedAutoMs = idx_auto_ms;
    for (std::size_t q = 0; q < numQueries; ++q) {
        if (lin_scalar[q].match != lin_auto[q].match ||
            idx_scalar[q].match != idx_auto[q].match ||
            lin_scalar[q].match != idx_scalar[q].match)
            ++res.divergences;
    }
    gDivergences += res.divergences;
    return res;
}

} // anonymous namespace

int
main()
{
    const simd::Level initial = simd::activeLevel();
    const std::vector<simd::Level> levels = availableLevels();
    std::printf("simd dispatch: active=%s best=%s available=",
                simd::levelName(initial),
                simd::levelName(simd::bestAvailableLevel()));
    for (std::size_t i = 0; i < levels.size(); ++i)
        std::printf("%s%s", i ? "," : "",
                    simd::levelName(levels[i]));
    std::printf("\n\n");

    Rng rng(0x73696d642d626eull);
    std::vector<KernelRow> rows;
    microBench(smallWords, rng, rows);
    microBench(largeWords, rng, rows);
    domainBench(rng, rows);

    std::printf("%-28s %7s %10s %10s %8s %10s %8s\n", "kernel",
                "words", "scalar", "avx2", "spd", "avx512", "spd");
    for (const KernelRow &r : rows) {
        std::printf("%-28s %7zu %10.1f", r.name.c_str(), r.words,
                    r.ticks[0]);
        for (simd::Level lvl : {simd::Level::Avx2,
                                simd::Level::Avx512}) {
            const int i = static_cast<int>(lvl);
            if (r.measured[i])
                std::printf(" %10.1f %7.2fx", r.ticks[i],
                            r.speedup(lvl));
            else
                std::printf(" %10s %8s", "-", "-");
        }
        std::printf("\n");
    }

    const EndToEnd e2e = endToEnd();
    simd::selectLevel(simd::levelName(initial));
    std::printf(
        "\nend-to-end (%zu records, %zu queries): linear %.3f -> "
        "%.3f ms/q (%.2fx), indexed %.4f -> %.4f ms/q (%.2fx), "
        "divergences %zu\n",
        e2e.records, e2e.queries, e2e.linearScalarMs,
        e2e.linearAutoMs, e2e.linearSpeedup(), e2e.indexedScalarMs,
        e2e.indexedAutoMs, e2e.indexedSpeedup(), e2e.divergences);

    // --- Gates ----------------------------------------------------
    bool ok = gDivergences == 0;
    if (gDivergences > 0)
        std::printf("FAIL: %zu cross-level divergences\n",
                    gDivergences);

    const bool haveAvx2 = simd::levelAvailable(simd::Level::Avx2);
    double gated = 0.0;
    for (const KernelRow &r : rows) {
        if (r.name == "andNotCount" &&
            r.words == largeWords)
            gated = r.speedup(simd::Level::Avx2);
    }
    if (haveAvx2 && gated < speedupFloor) {
        std::printf("FAIL: andNotCount avx2 speedup "
                    "%.2fx below the %.0fx floor\n",
                    gated, speedupFloor);
        ok = false;
    } else if (!haveAvx2) {
        std::printf("note: no AVX2 on this CPU, speedup floor not "
                    "enforced\n");
    }

    // --- BENCH_simd.json ------------------------------------------
    std::ofstream json("BENCH_simd.json");
    json << "{\n  \"dispatch\": {\"initial\": \""
         << simd::levelName(initial) << "\", \"best\": \""
         << simd::levelName(simd::bestAvailableLevel())
         << "\", \"available\": [";
    for (std::size_t i = 0; i < levels.size(); ++i)
        json << (i ? ", " : "") << "\""
             << simd::levelName(levels[i]) << "\"";
    json << "]},\n"
         << "  \"speedup_floor\": " << speedupFloor << ",\n"
         << "  \"floor_enforced\": " << (haveAvx2 ? "true" : "false")
         << ",\n  \"kernels\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const KernelRow &r = rows[i];
        json << "    {\"name\": \"" << r.name
             << "\", \"words\": " << r.words
             << ", \"scalar_ticks\": " << r.ticks[0];
        for (simd::Level lvl : {simd::Level::Avx2,
                                simd::Level::Avx512}) {
            const int li = static_cast<int>(lvl);
            if (!r.measured[li])
                continue;
            json << ", \"" << simd::levelName(lvl)
                 << "_ticks\": " << r.ticks[li] << ", \""
                 << simd::levelName(lvl)
                 << "_speedup\": " << r.speedup(lvl);
        }
        json << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    json << "  ],\n"
         << "  \"end_to_end\": {\"records\": " << e2e.records
         << ", \"queries\": " << e2e.queries
         << ", \"linear_scalar_ms_per_query\": " << e2e.linearScalarMs
         << ", \"linear_auto_ms_per_query\": " << e2e.linearAutoMs
         << ", \"linear_speedup\": " << e2e.linearSpeedup()
         << ", \"indexed_scalar_ms_per_query\": "
         << e2e.indexedScalarMs
         << ", \"indexed_auto_ms_per_query\": " << e2e.indexedAutoMs
         << ", \"indexed_speedup\": " << e2e.indexedSpeedup()
         << ", \"divergences\": " << e2e.divergences << "},\n"
         << "  \"divergences\": " << gDivergences << ",\n"
         << "  \"pass\": " << (ok ? "true" : "false") << "\n}\n";

    std::printf("\n%s (BENCH_simd.json written)\n",
                ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}
