#include "util/crc32.hh"

#include <array>
#include <cstring>

namespace pcause
{

namespace
{

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/** t[0] is the reflected bytewise table (poly 0xEDB88320); t[k][i]
 *  advances t[k-1][i] by one more zero byte. */
Tables
makeTables()
{
    Tables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
        for (std::uint32_t i = 0; i < 256; ++i)
            t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
    }
    return t;
}

} // anonymous namespace

std::uint32_t
crc32(const void *data, std::size_t len, std::uint32_t seed)
{
    static const Tables t = makeTables();
    std::uint32_t c = seed ^ 0xFFFFFFFFu;
    const auto *p = static_cast<const std::uint8_t *>(data);
    for (; len >= 8; p += 8, len -= 8) {
        // Little-endian: the first four bytes fold into the CRC.
        std::uint32_t lo, hi;
        std::memcpy(&lo, p, 4);
        std::memcpy(&hi, p + 4, 4);
        lo ^= c;
        c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
            t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
            t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
            t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    }
    for (; len > 0; ++p, --len)
        c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

} // namespace pcause
