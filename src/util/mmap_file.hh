/**
 * @file
 * Read-only memory-mapped file.
 *
 * The v5 on-disk database is laid out so a million-record store can
 * be queried straight out of the page cache: open maps the file and
 * hands back a byte span, and the kernel pages record data in on
 * first touch instead of the loader deserializing every record up
 * front.
 */

#ifndef PCAUSE_UTIL_MMAP_FILE_HH
#define PCAUSE_UTIL_MMAP_FILE_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace pcause
{

/** Move-only RAII wrapper around a read-only file mapping. */
class MmapFile
{
  public:
    MmapFile() = default;
    ~MmapFile() { close(); }

    MmapFile(MmapFile &&other) noexcept { *this = std::move(other); }
    MmapFile &operator=(MmapFile &&other) noexcept;

    MmapFile(const MmapFile &) = delete;
    MmapFile &operator=(const MmapFile &) = delete;

    /**
     * Map @p path read-only. Returns false and sets @p error (when
     * non-null) on failure; a previously held mapping is released
     * first. Empty files map successfully with size() == 0.
     */
    bool open(const std::string &path, std::string *error = nullptr);

    /** Release the mapping (idempotent). */
    void close();

    /** True while a file is mapped. */
    bool isOpen() const { return base != nullptr || opened; }

    /** First mapped byte (null when not open or empty). */
    const std::uint8_t *data() const { return base; }

    /** Mapped length in bytes. */
    std::size_t size() const { return length; }

  private:
    const std::uint8_t *base = nullptr;
    std::size_t length = 0;
    bool opened = false;
};

} // namespace pcause

#endif // PCAUSE_UTIL_MMAP_FILE_HH
