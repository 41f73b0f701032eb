#include "core/store.hh"

#include <algorithm>
#include <chrono>

#include "core/error_string.hh"
#include "core/scan.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace pcause
{

namespace
{

/**
 * Whether a signature computed under @p a is valid content under
 * @p b: signature values depend on the hash count and seed only
 * (banding and probing are how signatures are *used*, not what they
 * contain).
 */
bool
sameSignatureSpace(const MinHashParams &a, const MinHashParams &b)
{
    return a.numHashes == b.numHashes && a.seed == b.seed;
}

/** Positions a batch shard holds at least: below that a lane's
 *  wake-up and count array outweigh its work. */
constexpr std::uint64_t shardPositions = 1u << 16;

/** @p fps's patterns as one arena, sized once and filled in record
 *  shards across @p pool. */
SparseFingerprintArena
packPatterns(const std::vector<Fingerprint> &fps, ThreadPool &pool)
{
    const std::size_t n = fps.size();
    std::vector<std::uint64_t> offsets(n + 1, 0), universes(n);
    pool.parallelFor(0, n, [&](std::size_t i) {
        offsets[i + 1] = fps[i].weight();
        universes[i] = fps[i].bits().size();
    });
    for (std::size_t i = 0; i < n; ++i)
        offsets[i + 1] += offsets[i];
    PosVec positions(offsets[n]);
    pool.parallelFor(0, n, [&](std::size_t i) {
        writePositions(fps[i].bits(), positions.data() + offsets[i]);
    });
    return SparseFingerprintArena(std::move(positions), std::move(offsets),
                                  std::move(universes));
}

} // anonymous namespace

FingerprintStore::FingerprintStore(const MinHashParams &index_params)
    : lsh(index_params)
{
}

FingerprintStore
FingerprintStore::fromDb(FingerprintDb db, const MinHashParams &index_params)
{
    FingerprintStore store(index_params);
    for (std::size_t i = 0; i < db.size(); ++i) {
        FingerprintRecord &rec = db.record(i);
        store.add(std::move(rec.label), std::move(rec.fingerprint));
    }
    return store;
}

FingerprintStore
FingerprintStore::adopt(std::vector<ChipLabel> labels,
                        std::vector<unsigned> sources,
                        SparseFingerprintArena fps,
                        std::vector<MinHashSignature> sigs,
                        LshIndex index,
                        std::vector<std::vector<std::uint32_t>> postings)
{
    PC_ASSERT(labels.size() == fps.count() &&
                  sources.size() == fps.count() &&
                  sigs.size() == fps.count() &&
                  index.size() == fps.count(),
              "FingerprintStore::adopt: record count mismatch");
    FingerprintStore store(index.params());
    store.chipLabels = std::move(labels);
    store.sourceCounts = std::move(sources);
    store.signatures = std::move(sigs);
    store.sparse = std::move(fps);
    store.lsh = std::move(index);
    store.postings = std::move(postings);
    return store;
}

std::size_t
FingerprintStore::add(ChipLabel label, Fingerprint fp)
{
    MinHashSignature sig =
        minhashSignature(fp.bits(), lsh.params());
    return addWithSignature(std::move(label), std::move(fp),
                            std::move(sig), lsh.params());
}

std::size_t
FingerprintStore::addWithSignature(ChipLabel label, Fingerprint fp,
                                   MinHashSignature sig,
                                   const MinHashParams &sig_params)
{
    if (!sameSignatureSpace(sig_params, lsh.params())) {
        // A foreign-space signature indexed as-is would silently
        // miss every honest query; recompute instead of trusting.
        sig = minhashSignature(fp.bits(), lsh.params());
    }
    PC_ASSERT(sig.size() == lsh.params().numHashes,
              "FingerprintStore: signature length mismatch");
    const std::size_t i = size();
    sparse.add(fp.bits());
    chipLabels.push_back(std::move(label));
    sourceCounts.push_back(fp.sources());
    lsh.add(i, sig);
    signatures.push_back(std::move(sig));
    // O(weight): each of the record's lists takes its id at the end.
    const SparseView v = sparse.view(i);
    if (v.count > 0 && v.positions[v.count - 1] >= postings.size())
        postings.resize(std::size_t{v.positions[v.count - 1]} + 1);
    for (std::size_t k = 0; k < v.count; ++k)
        postings[v.positions[k]].push_back(static_cast<std::uint32_t>(i));
    return i;
}

void
FingerprintStore::addBatch(std::vector<ChipLabel> labels,
                           std::vector<Fingerprint> fps)
{
    // The batch's arena first, then the signatures from it: a
    // signature is a pure function of (positions, params), the sparse
    // walk's equal to the dense one's, so hashing across the pool
    // cannot change its value. The dense patterns go once packed.
    ThreadPool &pool = workers ? *workers : ThreadPool::global();
    SparseFingerprintArena arena = packPatterns(fps, pool);
    std::vector<unsigned> sources;
    for (const Fingerprint &fp : fps)
        sources.push_back(fp.sources());
    fps = {};
    std::vector<MinHashSignature> sigs =
        signArena(arena, lsh.params(), &pool);
    appendBatch(std::move(labels), std::move(sources), std::move(arena),
                std::move(sigs), pool);
}

void
FingerprintStore::addBatch(std::vector<ChipLabel> labels,
                           std::vector<unsigned> sources,
                           SparseFingerprintArena fps,
                           std::vector<MinHashSignature> sigs)
{
    ThreadPool inline_lane(1);
    appendBatch(std::move(labels), std::move(sources), std::move(fps),
                std::move(sigs), workers ? *workers : inline_lane);
}

void
FingerprintStore::appendBatch(std::vector<ChipLabel> new_labels,
                              std::vector<unsigned> sources,
                              SparseFingerprintArena fps,
                              std::vector<MinHashSignature> sigs,
                              ThreadPool &pool)
{
    PC_ASSERT(new_labels.size() == fps.count() &&
                  sources.size() == fps.count() &&
                  sigs.size() == fps.count(),
              "addBatch: label/source/fingerprint/signature count "
              "mismatch");
    for (const MinHashSignature &sig : sigs) {
        PC_ASSERT(sig.size() == lsh.params().numHashes,
                  "FingerprintStore: signature length mismatch");
    }
    if (fps.count() == 0)
        return;

    const std::size_t first = size();
    if (first == 0)
        sparse = std::move(fps);
    else
        sparse.append(fps);
    indexPositions(first, pool);
    // Band-sharded table fill, each band sized once for the batch.
    lsh.addAll(first, sigs, &pool);
    chipLabels.insert(chipLabels.end(),
                      std::make_move_iterator(new_labels.begin()),
                      std::make_move_iterator(new_labels.end()));
    sourceCounts.insert(sourceCounts.end(), sources.begin(),
                        sources.end());
    signatures.insert(signatures.end(),
                      std::make_move_iterator(sigs.begin()),
                      std::make_move_iterator(sigs.end()));
}

void
FingerprintStore::indexPositions(std::size_t first, ThreadPool &pool)
{
    // A counting sort over record shards, taken in id order: shard s
    // counts its records' positions, each touched list is sized once,
    // exactly, and shard s writes its ids after those of every
    // earlier shard, so each list stays ascending. The lists reach
    // the highest stored position, not the universe, which a file may
    // declare far larger than any list it holds; overlapScan() stops
    // past the last list.
    const std::size_t end = sparse.count();
    std::size_t reach = postings.size();
    for (std::size_t i = first; i < end; ++i) {
        const SparseView v = sparse.view(i);
        if (v.count > 0)
            reach = std::max<std::size_t>(
                reach, std::size_t{v.positions[v.count - 1]} + 1);
    }
    postings.resize(reach);

    const std::vector<std::size_t> bounds = splitByWeight(
        end - first,
        std::min<std::uint64_t>(
            pool.size(), 1 + (sparse.offset(end) - sparse.offset(first)) /
                                 shardPositions),
        [&](std::size_t i) { return sparse.offset(first + i); });
    const std::size_t shards = bounds.size() - 1;

    // at[s][p]: shard s's count at position p, then where it writes.
    std::vector<std::vector<std::uint32_t>> at(shards);
    pool.parallelFor(0, shards, [&](std::size_t s) {
        at[s].assign(reach, 0);
        for (std::size_t i = first + bounds[s]; i < first + bounds[s + 1];
             ++i) {
            const SparseView v = sparse.view(i);
            for (std::size_t k = 0; k < v.count; ++k)
                ++at[s][v.positions[k]];
        }
    });
    const auto sizeLists = [&](std::size_t p) {
        std::size_t next = postings[p].size();
        for (std::vector<std::uint32_t> &count : at) {
            const std::uint32_t c = count[p];
            count[p] = static_cast<std::uint32_t>(next);
            next += c;
        }
        if (next > postings[p].size()) {
            postings[p].reserve(next);
            postings[p].resize(next);
        }
    };
    pool.parallelFor(0, reach, sizeLists);
    pool.parallelFor(0, shards, [&](std::size_t s) {
        std::vector<std::uint32_t> &next = at[s];
        for (std::size_t i = first + bounds[s]; i < first + bounds[s + 1];
             ++i) {
            const SparseView v = sparse.view(i);
            for (std::size_t k = 0; k < v.count; ++k)
                postings[v.positions[k]][next[v.positions[k]]++] =
                    static_cast<std::uint32_t>(i);
        }
    });
}

std::size_t
FingerprintStore::postingsBytes() const
{
    std::size_t bytes =
        postings.capacity() * sizeof(std::vector<std::uint32_t>);
    for (const std::vector<std::uint32_t> &ids : postings)
        bytes += ids.capacity() * sizeof(std::uint32_t);
    return bytes;
}

FingerprintRecord
FingerprintStore::record(std::size_t i) const
{
    BitVec bits = denseBits(sparse.view(i));
    return {label(i), sourceCounts[i] > 0
                          ? Fingerprint(std::move(bits), sourceCounts[i])
                          : Fingerprint()};
}

const ChipLabel &
FingerprintStore::label(std::size_t i) const
{
    PC_ASSERT(i < chipLabels.size(),
              "FingerprintStore record index out of range");
    return chipLabels[i];
}

unsigned
FingerprintStore::sources(std::size_t i) const
{
    PC_ASSERT(i < sourceCounts.size(),
              "FingerprintStore record index out of range");
    return sourceCounts[i];
}

const MinHashSignature &
FingerprintStore::signature(std::size_t i) const
{
    PC_ASSERT(i < signatures.size(),
              "FingerprintStore signature index out of range");
    return signatures[i];
}

IdentifyResult
FingerprintStore::queryImpl(const BitVec &error_string,
                            const IdentifyParams &params,
                            AttackStats *stats) const
{
    return detail::indexedQuery(
        error_string, params, lsh.params(), sparse, stats,
        [&](const MinHashSketch &sketch) {
            return lsh.candidates(sketch);
        },
        [&](std::size_t es_weight) {
            return fullScan(error_string, es_weight, params, stats);
        });
}

IdentifyResult
FingerprintStore::fullScan(const BitVec &error_string,
                           std::size_t es_weight,
                           const IdentifyParams &params,
                           AttackStats *stats) const
{
    // An overlap never exceeds the query's weight, so 16-bit
    // counters serve every realistic query and halve the counting
    // traffic.
    return es_weight <= 0xffff
               ? overlapScan<std::uint16_t>(error_string, es_weight,
                                            params, stats)
               : overlapScan<std::uint32_t>(error_string, es_weight,
                                            params, stats);
}

template <typename Count>
IdentifyResult
FingerprintStore::overlapScan(const BitVec &error_string,
                              std::size_t es_weight,
                              const IdentifyParams &params,
                              AttackStats *stats) const
{
    // Each record's overlap with the query, counted from the
    // query's own posting lists: about weight x records-per-position
    // increments, instead of reading every record's positions. Four
    // lists at a time give four independent increment streams, and
    // the next four are prefetched a cache line per 16 ids as they
    // go: a short list (~20 lines at 10k records) otherwise spends
    // much of its time waiting for its first lines.
    std::vector<const std::vector<std::uint32_t> *> lists;
    for (const std::size_t p : error_string.setBits()) {
        if (p >= postings.size())
            break; // no record reaches this far into the universe
        lists.push_back(&postings[p]);
    }
    std::vector<Count> overlap(size(), 0);
    const auto countFrom = [&](const std::vector<std::uint32_t> &ids,
                               std::size_t from) {
        for (std::size_t j = from; j < ids.size(); ++j)
            ++overlap[ids[j]];
    };
    std::size_t k = 0;
    for (; k + 4 <= lists.size(); k += 4) {
        const std::vector<std::uint32_t> &a = *lists[k];
        const std::vector<std::uint32_t> &b = *lists[k + 1];
        const std::vector<std::uint32_t> &c = *lists[k + 2];
        const std::vector<std::uint32_t> &d = *lists[k + 3];
        const std::size_t common =
            std::min({a.size(), b.size(), c.size(), d.size()});
        const std::size_t ahead =
            k + 8 <= lists.size()
                ? std::min({lists[k + 4]->size(), lists[k + 5]->size(),
                            lists[k + 6]->size(), lists[k + 7]->size()})
                : 0;
        for (std::size_t j = 0; j < common; ++j) {
            if (j % 16 == 0 && j < ahead) {
                for (std::size_t t = k + 4; t < k + 8; ++t)
                    __builtin_prefetch(lists[t]->data() + j);
            }
            ++overlap[a[j]];
            ++overlap[b[j]];
            ++overlap[c[j]];
            ++overlap[d[j]];
        }
        for (const std::vector<std::uint32_t> *ids : {&a, &b, &c, &d})
            countFrom(*ids, common);
    }
    for (; k < lists.size(); ++k)
        countFrom(*lists[k], 0);

    return detail::overlapWalk(error_string, es_weight, sparse, overlap,
                               params, stats);
}

IdentifyResult
FingerprintStore::query(const BitVec &error_string,
                        const IdentifyParams &params,
                        AttackStats *stats) const
{
    return detail::timedQuery(stats, [&](AttackStats *local) {
        return queryImpl(error_string, params, local);
    });
}

IdentifyResult
FingerprintStore::query(const BitVec &approx, const BitVec &exact,
                        const IdentifyParams &params,
                        AttackStats *stats) const
{
    return query(errorString(approx, exact), params, stats);
}

std::vector<IdentifyResult>
FingerprintStore::queryBatch(const std::vector<BitVec> &error_strings,
                             const IdentifyParams &params,
                             AttackStats *stats,
                             std::vector<AttackStats> *per_query) const
{
    const std::size_t n = error_strings.size();
    std::vector<IdentifyResult> results(n);
    std::vector<AttackStats> each(n);

    ThreadPool &pool = workers ? *workers : ThreadPool::global();
    const auto start = std::chrono::steady_clock::now();
    pool.parallelFor(0, n, [&](std::size_t q) {
        const auto query_start = std::chrono::steady_clock::now();
        results[q] = queryImpl(error_strings[q], params, &each[q]);
        each[q].identifySeconds = detail::secondsSince(query_start);
    });

    // The total carries one wall-time stamp for the whole batch.
    AttackStats total;
    for (const AttackStats &one : each)
        total += one;
    total.identifySeconds = n > 0 ? detail::secondsSince(start) : 0.0;
    if (stats)
        *stats += total;
    if (per_query)
        *per_query = std::move(each);
    return results;
}

IdentifyResult
FingerprintStore::queryLinear(const BitVec &error_string,
                              const IdentifyParams &params,
                              AttackStats *stats) const
{
    return detail::linearQuery(error_string, params, sparse, stats);
}

IdentifyResult
FingerprintStore::queryFullScan(const BitVec &error_string,
                                const IdentifyParams &params,
                                AttackStats *stats) const
{
    return detail::timedQuery(stats, [&](AttackStats *local) {
        local->recordsAvailable += size();
        return fullScan(error_string, error_string.popcount(), params,
                        local);
    });
}

void
FingerprintStore::reindex(const MinHashParams &new_params)
{
    LshIndex next(new_params);
    std::vector<MinHashSignature> sigs =
        signArena(sparse, new_params, workers);
    next.addAll(0, sigs, workers);

    lsh = std::move(next);
    signatures = std::move(sigs);
}

std::vector<MinHashSignature>
signArena(const SparseFingerprintArena &fps, const MinHashParams &params,
          ThreadPool *pool)
{
    std::vector<MinHashSignature> sigs(fps.count());
    const auto hashRecord = [&](std::size_t i) {
        sigs[i] = minhashSignature(fps.view(i), params);
    };
    if (pool) {
        pool->parallelFor(0, sigs.size(), hashRecord);
    } else {
        for (std::size_t i = 0; i < sigs.size(); ++i)
            hashRecord(i);
    }
    return sigs;
}

} // namespace pcause
