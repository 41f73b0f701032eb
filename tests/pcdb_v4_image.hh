/**
 * @file
 * The PCDB v4 image of a v5 one, so that tests can reach the v4
 * reader path with any store, though no writer writes v4 any more.
 * v5 is v4 without the signature arena, so the arena goes back in:
 * each record's MinHash signature of its positions, under the file's
 * parameters, record-major after the record table and zero-padded to
 * 8; the version becomes 4, and every later section offset and the
 * file size move by the arena's bytes. The index sections, and so
 * their CRCs, are unchanged. Applied to the image saveStore() writes
 * of v3FixtureStore() (test_serialize.cc), it gives
 * tests/data/pcdb_v4_small.pcdb, which the last v4 writer wrote,
 * byte for byte.
 */

#ifndef PCAUSE_TESTS_PCDB_V4_IMAGE_HH
#define PCAUSE_TESTS_PCDB_V4_IMAGE_HH

#include <cstring>
#include <string>
#include <vector>

#include "core/minhash.hh"
#include "core/pcdb_format.hh"

namespace pcause
{

/** The v4 image of @p v5, a v5 image pcdb::check() passes. */
inline std::string
v4Image(const std::string &v5)
{
    const auto *d = reinterpret_cast<const std::uint8_t *>(v5.data());
    MinHashParams prm;
    prm.numHashes = pcdb::loadU32(d + 8);
    prm.bands = pcdb::loadU32(d + 12);
    prm.probes = pcdb::loadU32(d + 16);
    prm.seed = pcdb::loadU64(d + 24);
    const std::uint64_t n = pcdb::loadU64(d + 32);
    const std::uint64_t sig_off = pcdb::loadU64(d + 72);
    const std::uint64_t pos_off = pcdb::loadU64(d + 80);

    std::string arena;
    std::vector<std::uint32_t> positions;
    for (std::uint64_t i = 0; i < n; ++i) {
        const pcdb::RecordEntry e = pcdb::decodeRecordEntry(
            d + pcdb::v4HeaderBytes + i * pcdb::recordEntryBytes);
        positions.resize(e.posCount);
        std::memcpy(positions.data(), d + pos_off + e.posOff * 4,
                    e.posCount * 4);
        const MinHashSignature sig = minhashSignature(
            SparseView{positions.data(), positions.size(), e.universe},
            prm);
        arena.append(reinterpret_cast<const char *>(sig.data()),
                     sig.size() * sizeof(std::uint32_t));
    }
    arena.resize(pcdb::align8(arena.size()), '\0');

    std::string v4 = v5.substr(0, sig_off) + arena + v5.substr(sig_off);
    const auto put = [&](std::size_t off, auto value) {
        std::memcpy(&v4[off], &value, sizeof(value));
    };
    put(4, pcdb::versionV4);
    // File size, then the position, label, band and postings offsets.
    for (const std::size_t off : {56, 80, 88, 96, 128})
        put(off, pcdb::loadU64(d + off) + arena.size());
    return v4;
}

} // namespace pcause

#endif // PCAUSE_TESTS_PCDB_V4_IMAGE_HH
