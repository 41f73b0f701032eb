#include "util/mmap_file.hh"

#include <cerrno>
#include <cstring>
#include <utility>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace pcause
{

namespace
{

void
setError(std::string *error, const std::string &msg)
{
    if (error)
        *error = msg;
}

} // anonymous namespace

MmapFile &
MmapFile::operator=(MmapFile &&other) noexcept
{
    if (this != &other) {
        close();
        base = std::exchange(other.base, nullptr);
        length = std::exchange(other.length, 0);
        opened = std::exchange(other.opened, false);
    }
    return *this;
}

bool
MmapFile::open(const std::string &path, std::string *error)
{
    close();

    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        setError(error, "cannot open " + path + ": " +
                            std::strerror(errno));
        return false;
    }
    struct stat st = {};
    if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
        setError(error, path + " is not a regular file");
        ::close(fd);
        return false;
    }
    length = static_cast<std::size_t>(st.st_size);
    if (length == 0) {
        // Zero-length mappings are invalid; an empty file is open
        // with a null span.
        ::close(fd);
        opened = true;
        return true;
    }
    void *map = ::mmap(nullptr, length, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd); // the mapping keeps its own reference
    if (map == MAP_FAILED) {
        length = 0;
        setError(error, "mmap of " + path + " failed: " +
                            std::strerror(errno));
        return false;
    }
    base = static_cast<const std::uint8_t *>(map);
    opened = true;
    return true;
}

void
MmapFile::close()
{
    if (base != nullptr)
        ::munmap(const_cast<std::uint8_t *>(base), length);
    base = nullptr;
    length = 0;
    opened = false;
}

} // namespace pcause
