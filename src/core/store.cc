#include "core/store.hh"

#include <algorithm>
#include <string>

#include "core/pcdb_format.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace pcause
{

namespace
{

/** Positions a batch shard holds at least: below that a lane's
 *  wake-up and count array outweigh its work. */
constexpr std::uint64_t shardPositions = 1u << 16;

/** @p fps's patterns, all of one bit count, as one arena, sized once
 *  and filled in record shards across @p pool. */
SparseFingerprintArena
packPatterns(const std::vector<Fingerprint> &fps, ThreadPool &pool)
{
    const std::size_t n = fps.size();
    const std::uint64_t bits = n == 0 ? 0 : fps[0].bits().size();
    std::vector<std::uint64_t> offsets(n + 1, 0);
    pool.parallelFor(0, n, [&](std::size_t i) {
        PC_ASSERT(fps[i].bits().size() == bits,
                  "SparseFingerprintArena: a second bit count");
        offsets[i + 1] = fps[i].weight();
    });
    for (std::size_t i = 0; i < n; ++i)
        offsets[i + 1] += offsets[i];
    PosVec positions(offsets[n]);
    pool.parallelFor(0, n, [&](std::size_t i) {
        writePositions(fps[i].bits(), positions.data() + offsets[i]);
    });
    return SparseFingerprintArena(std::move(positions), std::move(offsets),
                                  bits);
}

/** Sign every record of @p fps under @p params, across @p pool when
 *  non-null (serially otherwise): the signatures a batch's or a
 *  reindex's band tables are filled from. */
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
                        SparseFingerprintArena fps, LshIndex index,
                        std::vector<std::vector<std::uint32_t>> postings)
{
    PC_ASSERT(labels.size() == fps.count() &&
                  sources.size() == fps.count() &&
                  index.size() == fps.count(),
              "FingerprintStore::adopt: record count mismatch");
    FingerprintStore store(index.params());
    store.chipLabels = std::move(labels);
    store.sourceCounts = std::move(sources);
    store.sparse = std::move(fps);
    store.lsh = std::move(index);
    store.postings = std::move(postings);
    return store;
}

std::string
FingerprintStore::admitError(std::uint64_t label_bytes,
                             std::uint64_t sources,
                             std::uint64_t bits) const
{
    std::string why;
    if (pcdb::recordError(label_bytes, sources, bits, &why))
        return why;
    if (!empty() && bits != bitCount())
        return "the fingerprint has " + std::to_string(bits) +
               " bits; the database's records have " +
               std::to_string(bitCount());
    return {};
}

std::size_t
FingerprintStore::add(ChipLabel label, Fingerprint fp)
{
    const std::string why =
        admitError(label.size(), fp.sources(), fp.bits().size());
    if (!why.empty())
        panic("FingerprintStore::add: %s", why.c_str());
    const MinHashSignature sig = minhashSignature(fp.bits(), lsh.params());
    const std::size_t i = size();
    sparse.add(fp.bits());
    chipLabels.push_back(std::move(label));
    sourceCounts.push_back(fp.sources());
    lsh.add(i, sig);
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
    // The batch's arena first; appendBatch() signs from it. The dense
    // patterns go once packed.
    ThreadPool &pool = workers ? *workers : ThreadPool::global();
    SparseFingerprintArena arena = packPatterns(fps, pool);
    std::vector<unsigned> sources;
    for (const Fingerprint &fp : fps)
        sources.push_back(fp.sources());
    fps = {};
    appendBatch(std::move(labels), std::move(sources), std::move(arena),
                pool);
}

void
FingerprintStore::addBatch(std::vector<ChipLabel> labels,
                           std::vector<unsigned> sources,
                           SparseFingerprintArena fps)
{
    ThreadPool inline_lane(1);
    appendBatch(std::move(labels), std::move(sources), std::move(fps),
                workers ? *workers : inline_lane);
}

void
FingerprintStore::appendBatch(std::vector<ChipLabel> new_labels,
                              std::vector<unsigned> sources,
                              SparseFingerprintArena fps, ThreadPool &pool)
{
    PC_ASSERT(new_labels.size() == fps.count() &&
                  sources.size() == fps.count(),
              "addBatch: label/source/fingerprint count mismatch");
    for (std::size_t i = 0; i < fps.count(); ++i) {
        const std::string why = admitError(new_labels[i].size(),
                                           sources[i], fps.bitCount());
        if (!why.empty())
            panic("FingerprintStore::addBatch: %s", why.c_str());
    }
    if (fps.count() == 0)
        return;

    // A signature is a pure function of (positions, params), the
    // sparse walk's equal to the dense one's, so signing across the
    // pool cannot change its value; it lives until its keys are in
    // the band tables.
    const std::vector<MinHashSignature> sigs =
        signArena(fps, lsh.params(), &pool);
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
}

void
FingerprintStore::indexPositions(std::size_t first, ThreadPool &pool)
{
    // A counting sort over record shards, taken in id order: shard s
    // counts its records' positions, each touched list is sized once,
    // exactly, and shard s writes its ids after those of every
    // earlier shard, so each list stays ascending. The lists reach
    // the highest stored position, not the universe, which a file may
    // declare far larger than any list it holds; countOverlaps() stops
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
    return {label(i), Fingerprint(denseBits(sparse.view(i)), sources(i))};
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

template <typename Count>
void
FingerprintStore::countOverlaps(const BitVec &error_string,
                                std::vector<Count> &overlap) const
{
    // About weight x records-per-position increments, instead of
    // reading every record's positions. Four lists at a time give
    // four independent increment streams, and the next four are
    // prefetched a cache line per 16 ids as they go: a short list
    // (~20 lines at 10k records) otherwise spends much of its time
    // waiting for its first lines.
    std::vector<const std::vector<std::uint32_t> *> lists;
    for (const std::size_t p : error_string.setBits()) {
        if (p >= postings.size())
            break; // no record reaches this far into the universe
        lists.push_back(&postings[p]);
    }
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
}

void
FingerprintStore::reindex(const MinHashParams &new_params)
{
    LshIndex next(new_params);
    next.addAll(0, signArena(sparse, new_params, workers), workers);
    lsh = std::move(next);
}

template class QueryEngine<FingerprintStore>;

} // namespace pcause
