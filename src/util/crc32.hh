/**
 * @file
 * CRC-32 (IEEE 802.3, the zlib polynomial): the checksum of the
 * write-ahead journal's entries (core/wal) and of the PCDB v5 index
 * sections (core/pcdb_format).
 *
 * Slicing-by-8: eight 256-entry tables fold eight input bytes per
 * step, several times the bytewise table's throughput on the tens
 * of megabytes of index sections a database load checks, with the
 * same values bit for bit.
 */

#ifndef PCAUSE_UTIL_CRC32_HH
#define PCAUSE_UTIL_CRC32_HH

#include <cstddef>
#include <cstdint>

namespace pcause
{

/** CRC-32 of @p len bytes. @p seed chains partial computations:
 *  crc32(b, n, crc32(a, m)) is the CRC of a's m bytes then b's n. */
std::uint32_t crc32(const void *data, std::size_t len,
                    std::uint32_t seed = 0);

} // namespace pcause

#endif // PCAUSE_UTIL_CRC32_HH
