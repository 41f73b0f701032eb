#include "core/minhash.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "util/logging.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace pcause
{

namespace
{

void
checkParams(const MinHashParams &params, const char *who)
{
    PC_ASSERT(params.numHashes > 0 && params.bands > 0 &&
                  params.numHashes % params.bands == 0,
              who);
}

/** splitmix64's increment: the cell hash is the stream's p-th step. */
constexpr std::uint64_t streamStep = 0x9e3779b97f4a7c15ull;

/**
 * splitmix64's output avalanche, inlined: the signing walk runs it
 * once per set cell, and an out-of-line mix64 there doubles the
 * cost of a signature.
 */
inline std::uint64_t
avalanche(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Bin of 64-bit hash @p h among @p k: its high half, range-reduced. */
inline std::uint32_t
binOf(std::uint64_t h, std::uint32_t k)
{
    return static_cast<std::uint32_t>(((h >> 32) * k) >> 32);
}

/** Whether bin @p b is set in the bin mask @p filled. */
inline bool
isFilled(const std::vector<std::uint64_t> &filled, std::uint32_t b)
{
    return (filled[b >> 6] >> (b & 63)) & 1;
}

/**
 * The bin empty bin @p j copies its value from: the first bin set
 * in @p filled along j's probe sequence, a splitmix64 stream keyed
 * by (@p key, j) and so the same for every set. With m of the k
 * bins filled, a probe misses with probability 1 - m/k; after 32k
 * misses (below e^-32 even at m = 1) a sweep from j ends the walk.
 */
std::uint32_t
densifySource(const std::vector<std::uint64_t> &filled,
              std::uint32_t k, std::uint64_t key, std::uint32_t j)
{
    std::uint64_t state = mix64(key, j);
    for (std::uint64_t t = 0; t < std::uint64_t{32} * k; ++t) {
        const std::uint32_t b = binOf(splitmix64(state), k);
        if (isFilled(filled, b))
            return b;
    }
    for (std::uint32_t b = j;; b = b + 1 == k ? 0 : b + 1) {
        if (isFilled(filled, b))
            return b;
    }
}

/** Key of the cell hash stream: cell p hashes to
 *  avalanche(cellKey + (p + 1) * streamStep). */
inline std::uint64_t
cellKey(const MinHashParams &params)
{
    return mix64(params.seed, 0x63656c6cull); // "cell"
}

/**
 * Fold the hash @p h of one set cell into its bin among @p k: mark
 * the bin in @p filled and keep its minimum (and, with
 * @p WithSecond, its second-smallest distinct value), branch-free.
 * Both signing walks run it once per set cell.
 */
template <bool WithSecond>
inline void
foldCell(std::uint64_t h, std::uint32_t k, std::uint64_t *filled,
         std::uint32_t *primary, std::uint32_t *second)
{
    const std::uint32_t b = binOf(h, k);
    const auto v = static_cast<std::uint32_t>(h);
    filled[b >> 6] |= std::uint64_t{1} << (b & 63);
    const std::uint32_t lo = primary[b];
    const std::uint32_t min = lo < v ? lo : v;
    primary[b] = min;
    if constexpr (WithSecond) {
        // The larger of (old minimum, v) competes for second
        // place, unless v repeated the old minimum.
        const std::uint32_t up = lo < v ? v : lo;
        const std::uint32_t sec = second[b];
        second[b] = up == min ? sec : (sec < up ? sec : up);
    }
}

/**
 * Finish a signing walk: each bin no cell fell into (clear in
 * @p filled) copies its densification source's minimum. The empty
 * set keeps its all-ones sentinels.
 */
template <bool WithSecond>
void
densify(const std::vector<std::uint64_t> &filled,
        const MinHashParams &params, std::uint32_t *primary,
        std::uint32_t *second)
{
    if (std::all_of(filled.begin(), filled.end(),
                    [](std::uint64_t f) { return f == 0; }))
        return;

    const std::uint32_t k = params.numHashes;
    const std::uint64_t dens_key =
        mix64(params.seed, 0x64656e73ull); // "dens"
    for (std::uint32_t j = 0; j < k; ++j) {
        if (!isFilled(filled, j))
            primary[j] = primary[densifySource(filled, k, dens_key, j)];
        // Densified rows, and bins of fewer than two distinct values,
        // repeat the minimum.
        if constexpr (WithSecond) {
            if (second[j] == ~std::uint32_t{0})
                second[j] = primary[j];
        }
    }
}

/**
 * One-permutation sketch of @p bits into @p primary (and, with
 * @p WithSecond, @p second), both k entries preset to ~0: one walk
 * over the set cells folds each into its bin, then bins are
 * densified.
 */
template <bool WithSecond>
void
sign(const BitVec &bits, const MinHashParams &params,
     std::uint32_t *primary, std::uint32_t *second)
{
    const std::uint32_t k = params.numHashes;
    // Which bins a cell fell into: a cell's value may itself be the
    // all-ones sentinel, so emptiness cannot be read off the values.
    std::vector<std::uint64_t> filled((k + 63) / 64);
    // Cell p hashes to the p-th output of a splitmix64 stream keyed
    // by the seed; `base` is the stream state at the word's cell 0.
    std::uint64_t base = cellKey(params) + streamStep;
    const auto &words = bits.words();
    for (std::size_t wi = 0; wi < words.size();
         ++wi, base += 64 * streamStep) {
        for (std::uint64_t w = words[wi]; w != 0; w &= w - 1) {
            const std::uint64_t h = avalanche(
                base + static_cast<std::uint64_t>(std::countr_zero(w)) *
                           streamStep);
            foldCell<WithSecond>(h, k, filled.data(), primary, second);
        }
    }
    densify<WithSecond>(filled, params, primary, second);
}

} // anonymous namespace

MinHashSignature
minhashSignature(const BitVec &bits, const MinHashParams &params)
{
    checkParams(params, "minhashSignature: bands must divide numHashes");
    MinHashSignature sig(params.numHashes, ~std::uint32_t{0});
    sign<false>(bits, params, sig.data(), nullptr);
    return sig;
}

MinHashSignature
minhashSignature(const SparseView &positions, const MinHashParams &params)
{
    checkParams(params, "minhashSignature: bands must divide numHashes");
    const std::uint32_t k = params.numHashes;
    MinHashSignature sig(k, ~std::uint32_t{0});
    std::vector<std::uint64_t> filled((k + 63) / 64);
    const std::uint64_t key = cellKey(params);
    for (std::size_t i = 0; i < positions.count; ++i) {
        const std::uint64_t h = avalanche(
            key + (std::uint64_t{positions.positions[i]} + 1) * streamStep);
        foldCell<false>(h, k, filled.data(), sig.data(), nullptr);
    }
    densify<false>(filled, params, sig.data(), nullptr);
    return sig;
}

MinHashSketch
minhashSketch(const BitVec &bits, const MinHashParams &params)
{
    checkParams(params, "minhashSketch: bands must divide numHashes");
    MinHashSketch sk;
    sk.primary.assign(params.numHashes, ~std::uint32_t{0});
    sk.second.assign(params.numHashes, ~std::uint32_t{0});
    sign<true>(bits, params, sk.primary.data(), sk.second.data());
    return sk;
}

double
signatureSimilarity(const MinHashSignature &a, const MinHashSignature &b)
{
    PC_ASSERT(a.size() == b.size() && !a.empty(),
              "signatureSimilarity: signature length mismatch");
    std::size_t agree = 0;
    for (std::size_t j = 0; j < a.size(); ++j)
        agree += a[j] == b[j];
    return static_cast<double>(agree) / static_cast<double>(a.size());
}

std::uint64_t
lshBandSeed(const MinHashParams &params, std::uint32_t band)
{
    // The band index is mixed in so identical row values in
    // different bands do not alias (each band has its own bucket map
    // anyway, but distinct keys keep the occupancy diagnostics
    // honest).
    return mix64(params.seed, 0x62616e64ull + band);
}

std::uint64_t
lshBandKey(const MinHashParams &params, const MinHashSignature &sig,
           std::uint32_t band)
{
    // Fold the band's rows into one 64-bit key.
    const std::uint32_t r = params.rows();
    std::uint64_t key = lshBandSeed(params, band);
    for (std::uint32_t j = 0; j < r; ++j)
        key = mix64(key, sig[band * r + j]);
    return key;
}

namespace
{

constexpr std::uint32_t emptySlot = LshIndex::emptySlot;

/** Slots for @p entries at the ~0.7 load bulk builds size to. */
std::size_t
slotsFor(std::size_t entries)
{
    return std::max<std::size_t>(16, entries * 10 / 7 + 1);
}

} // anonymous namespace

void
LshIndex::BandSlots::find(std::uint64_t key, std::uint32_t records,
                          std::vector<std::size_t> &out) const
{
    std::size_t s = home(key);
    for (std::size_t step = 0; step < slots && ids[s] != emptySlot;
         ++step) {
        if (keys[s] == key && ids[s] < records)
            out.push_back(ids[s]);
        s = s + 1 == slots ? 0 : s + 1;
    }
}

void
LshIndex::BandTable::reserve(std::size_t entries)
{
    const std::size_t slots = slotsFor(entries);
    if (slots <= keys.size())
        return;
    const std::vector<std::uint64_t> old_keys =
        std::exchange(keys, std::vector<std::uint64_t>(slots));
    const std::vector<std::uint32_t> old_ids =
        std::exchange(ids, std::vector<std::uint32_t>(slots, emptySlot));
    used = 0;
    for (std::size_t s = 0; s < old_ids.size(); ++s) {
        if (old_ids[s] != emptySlot)
            insert(old_keys[s], old_ids[s]);
    }
}

void
LshIndex::BandTable::insert(std::uint64_t key, std::uint32_t id)
{
    // Grow past a 0.8 load; incremental adds double, bulk builds
    // reserve up front and never get here.
    if ((used + 1) * 5 > keys.size() * 4)
        reserve(2 * (used + 1));
    std::size_t s = slots().home(key);
    while (ids[s] != emptySlot)
        s = s + 1 == ids.size() ? 0 : s + 1;
    keys[s] = key;
    ids[s] = id;
    ++used;
}

LshIndex::LshIndex(const MinHashParams &params)
    : prm(params), bands(params.bands)
{
    checkParams(prm, "LshIndex: bands must divide numHashes");
}

LshIndex::LshIndex(const MinHashParams &params, std::size_t records,
                   std::vector<std::vector<std::uint64_t>> keys,
                   std::vector<std::vector<std::uint32_t>> ids)
    : LshIndex(params)
{
    PC_ASSERT(keys.size() == prm.bands && ids.size() == prm.bands &&
                  records < emptySlot,
              "LshIndex: one stored table per band");
    for (std::uint32_t band = 0; band < prm.bands; ++band) {
        BandTable &table = bands[band];
        PC_ASSERT(keys[band].size() == ids[band].size() &&
                      (ids[band].size() > records ||
                       (records == 0 && ids[band].empty())),
                  "LshIndex: stored table without a free slot");
        table.keys = std::move(keys[band]);
        table.ids = std::move(ids[band]);
        table.used = records;
    }
    numRecords = records;
}

void
LshIndex::add(std::size_t record, const MinHashSignature &sig)
{
    PC_ASSERT(sig.size() == prm.numHashes,
              "LshIndex::add: signature length mismatch");
    PC_ASSERT(record < emptySlot, "LshIndex::add: record id range");
    for (std::uint32_t band = 0; band < prm.bands; ++band) {
        bands[band].insert(lshBandKey(prm, sig, band),
                           static_cast<std::uint32_t>(record));
    }
    ++numRecords;
}

void
LshIndex::addAll(std::size_t first_record,
                 const std::vector<MinHashSignature> &sigs,
                 ThreadPool *pool)
{
    PC_ASSERT(first_record + sigs.size() <= emptySlot,
              "LshIndex::addAll: record id range");
    for (const MinHashSignature &sig : sigs) {
        PC_ASSERT(sig.size() == prm.numHashes,
                  "LshIndex::addAll: signature length mismatch");
    }
    // Bands shard naturally: each band's table is touched by
    // exactly one task, and is sized once for the whole batch.
    const auto insertBand = [&](std::size_t band) {
        BandTable &table = bands[band];
        table.reserve(table.used + sigs.size());
        for (std::size_t i = 0; i < sigs.size(); ++i) {
            table.insert(lshBandKey(prm, sigs[i],
                                    static_cast<std::uint32_t>(band)),
                         static_cast<std::uint32_t>(first_record + i));
        }
    };
    if (pool && pool->size() > 1) {
        pool->parallelFor(0, prm.bands, insertBand);
    } else {
        for (std::size_t band = 0; band < prm.bands; ++band)
            insertBand(band);
    }
    numRecords += sigs.size();
}

std::vector<std::size_t>
LshIndex::candidates(const MinHashSignature &sig) const
{
    PC_ASSERT(sig.size() == prm.numHashes,
              "LshIndex::candidates: signature length mismatch");
    std::vector<std::size_t> hits;
    probe(
        prm, numRecords,
        [&](std::uint32_t band) { return bands[band].slots(); },
        [&](std::uint32_t band, const auto &emit) {
            emit(lshBandKey(prm, sig, band));
        },
        hits);
    return hits;
}

std::vector<std::size_t>
LshIndex::candidates(const MinHashSketch &sketch) const
{
    PC_ASSERT(sketch.primary.size() == prm.numHashes &&
                  sketch.second.size() == prm.numHashes,
              "LshIndex::candidates: sketch length mismatch");
    std::vector<std::size_t> hits;
    probe(
        prm, numRecords,
        [&](std::uint32_t band) { return bands[band].slots(); },
        [&](std::uint32_t band, const auto &emit) {
            lshProbeKeys(prm, sketch, band, emit);
        },
        hits);
    return hits;
}

LshIndex::Occupancy
LshIndex::occupancy() const
{
    Occupancy occ;
    for (std::uint32_t band = 0; band < prm.bands; ++band) {
        const auto entries = bandEntries(band);
        for (std::size_t b = 0; b < entries.size();) {
            std::size_t e = b + 1;
            while (e < entries.size() &&
                   entries[e].first == entries[b].first)
                ++e;
            ++occ.buckets;
            occ.largestBucket = std::max(occ.largestBucket, e - b);
            b = e;
        }
    }
    return occ;
}

std::vector<std::pair<std::uint64_t, std::uint32_t>>
LshIndex::bandEntries(std::uint32_t band) const
{
    PC_ASSERT(band < prm.bands, "LshIndex::bandEntries: band range");
    const BandTable &table = bands[band];
    std::vector<std::pair<std::uint64_t, std::uint32_t>> entries;
    entries.reserve(table.used);
    for (std::size_t s = 0; s < table.ids.size(); ++s) {
        if (table.ids[s] != emptySlot)
            entries.emplace_back(table.keys[s], table.ids[s]);
    }
    std::sort(entries.begin(), entries.end());
    return entries;
}

LshIndex::BandSlots
LshIndex::bandSlots(std::uint32_t band) const
{
    PC_ASSERT(band < prm.bands, "LshIndex::bandSlots: band range");
    return bands[band].slots();
}

std::size_t
LshIndex::memoryBytes() const
{
    std::size_t bytes = bands.capacity() * sizeof(BandTable);
    for (const BandTable &table : bands) {
        bytes += table.keys.capacity() * sizeof(std::uint64_t) +
                 table.ids.capacity() * sizeof(std::uint32_t);
    }
    return bytes;
}

} // namespace pcause
