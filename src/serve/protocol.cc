#include "serve/protocol.hh"

#include <cstring>

#include <sys/socket.h>
#include <unistd.h>

#include "core/pcdb_format.hh"

namespace pcause::serve
{

namespace
{

/** Append-only little-endian payload builder. */
class WireWriter
{
  public:
    explicit WireWriter(Opcode op) { u8(static_cast<std::uint8_t>(op)); }

    void u8(std::uint8_t v) { buf.push_back(v); }

    void u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void str(const std::string &s)
    {
        u32(static_cast<std::uint32_t>(s.size()));
        buf.insert(buf.end(), s.begin(), s.end());
    }

    void bits(const BitVec &v)
    {
        u64(v.size());
        const std::size_t nbytes = (v.size() + 7) / 8;
        for (std::size_t b = 0; b < nbytes; ++b) {
            const std::uint64_t word = v.wordAt(b / 8);
            buf.push_back(
                static_cast<std::uint8_t>(word >> (8 * (b % 8))));
        }
    }

    Payload take() { return std::move(buf); }

  private:
    Payload buf;
};

/**
 * Bounds-checked little-endian cursor: every read checks the
 * remaining byte count first, so a truncated payload fails the
 * current field instead of reading past the buffer.
 */
class WireReader
{
  public:
    explicit WireReader(const Payload &payload)
        : p(payload.data()), n(payload.size())
    {
    }

    std::size_t remaining() const { return n - off; }

    bool u8(std::uint8_t &v)
    {
        if (remaining() < 1)
            return false;
        v = p[off++];
        return true;
    }

    bool u32(std::uint32_t &v)
    {
        if (remaining() < 4)
            return false;
        v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(p[off++]) << (8 * i);
        return true;
    }

    bool u64(std::uint64_t &v)
    {
        if (remaining() < 8)
            return false;
        v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(p[off++]) << (8 * i);
        return true;
    }

    bool f64(double &v)
    {
        std::uint64_t bits;
        if (!u64(bits))
            return false;
        std::memcpy(&v, &bits, sizeof(v));
        return true;
    }

    bool str(std::string &s, std::uint32_t max_len)
    {
        std::uint32_t len;
        if (!u32(len) || len > max_len || remaining() < len)
            return false;
        s.assign(reinterpret_cast<const char *>(p + off), len);
        off += len;
        return true;
    }

    bool bits(BitVec &v)
    {
        std::uint64_t count;
        if (!u64(count))
            return false;
        const std::uint64_t nbytes = (count + 7) / 8;
        if (remaining() < nbytes)
            return false;
        v = BitVec(static_cast<std::size_t>(count));
        std::uint64_t word = 0;
        for (std::uint64_t b = 0; b < nbytes; ++b) {
            word |= static_cast<std::uint64_t>(p[off + b])
                    << (8 * (b % 8));
            if (b % 8 == 7 || b + 1 == nbytes) {
                v.setWord(static_cast<std::size_t>(b / 8), word);
                word = 0;
            }
        }
        off += nbytes;
        return true;
    }

  private:
    const std::uint8_t *p;
    std::size_t n;
    std::size_t off = 0;
};

/** Shared decode prologue: opcode must match, then @p body runs
 *  with the cursor and must consume every byte. */
template <typename T, typename Body>
LoadResult<T>
decodePayload(const Payload &payload, Opcode want, const char *what,
              Body body)
{
    LoadResult<T> res;
    if (payloadOpcode(payload) !=
        static_cast<std::uint8_t>(want)) {
        res.error = std::string(what) + ": wrong opcode";
        return res;
    }
    WireReader r(payload);
    std::uint8_t op;
    r.u8(op);
    T value{};
    if (!body(r, value)) {
        res.error = std::string(what) + ": malformed or truncated body";
        return res;
    }
    if (r.remaining() != 0) {
        res.error = std::string(what) + ": trailing bytes";
        return res;
    }
    res.value = std::move(value);
    return res;
}

constexpr std::uint8_t flagLinear = 0x01;
constexpr std::uint8_t flagBestMatch = 0x02;

} // anonymous namespace

Payload
encodeIdentify(const IdentifyRequest &req)
{
    WireWriter w(Opcode::Identify);
    std::uint8_t flags = 0;
    if (req.options.linear)
        flags |= flagLinear;
    if (!req.options.firstMatch)
        flags |= flagBestMatch;
    w.u8(flags);
    w.u8(static_cast<std::uint8_t>(req.options.metric));
    w.f64(req.options.threshold);
    w.bits(req.errorString);
    return w.take();
}

Payload
encodeCharacterize(const CharacterizeRequest &req)
{
    WireWriter w(Opcode::Characterize);
    w.str(req.label);
    w.u32(static_cast<std::uint32_t>(req.errorStrings.size()));
    for (const BitVec &es : req.errorStrings)
        w.bits(es);
    return w.take();
}

Payload
encodeEmpty(Opcode op)
{
    return WireWriter(op).take();
}

Payload
encodeVerdict(const IdentifyVerdict &verdict)
{
    WireWriter w(Opcode::Verdict);
    w.u8(verdict.matched ? 1 : 0);
    w.f64(verdict.distance);
    w.str(verdict.label);
    w.str(verdict.nearestLabel);
    w.u64(verdict.delta.candidatesScanned);
    w.u64(verdict.delta.recordsAvailable);
    w.u8(verdict.delta.indexFallbacks > 0 ? 1 : 0);
    return w.take();
}

Payload
encodeAdded(const AddReply &reply)
{
    WireWriter w(Opcode::Added);
    w.u8(reply.added ? 1 : 0);
    w.u64(reply.record);
    w.u64(reply.weight);
    w.str(reply.error);
    return w.take();
}

Payload
encodeJson(const std::string &json)
{
    WireWriter w(Opcode::Json);
    w.str(json);
    return w.take();
}

Payload
encodeError(const std::string &message)
{
    WireWriter w(Opcode::Error);
    w.str(message);
    return w.take();
}

LoadResult<IdentifyRequest>
decodeIdentify(const Payload &payload)
{
    return decodePayload<IdentifyRequest>(
        payload, Opcode::Identify, "identify",
        [](WireReader &r, IdentifyRequest &req) {
            std::uint8_t flags, metric;
            if (!r.u8(flags) || !r.u8(metric))
                return false;
            if (flags & ~(flagLinear | flagBestMatch))
                return false;
            if (metric >
                static_cast<std::uint8_t>(DistanceMetric::Hamming))
                return false;
            req.options.linear = (flags & flagLinear) != 0;
            req.options.firstMatch = (flags & flagBestMatch) == 0;
            req.options.metric = static_cast<DistanceMetric>(metric);
            if (!r.f64(req.options.threshold) ||
                !validThreshold(req.options.threshold))
                return false;
            return r.bits(req.errorString);
        });
}

LoadResult<CharacterizeRequest>
decodeCharacterize(const Payload &payload)
{
    return decodePayload<CharacterizeRequest>(
        payload, Opcode::Characterize, "characterize",
        [](WireReader &r, CharacterizeRequest &req) {
            if (!r.str(req.label, pcdb::maxLabelBytes))
                return false;
            std::uint32_t count;
            if (!r.u32(count) || count == 0 ||
                count > maxCharacterizeStrings)
                return false;
            req.errorStrings.resize(count);
            for (std::uint32_t i = 0; i < count; ++i) {
                if (!r.bits(req.errorStrings[i]))
                    return false;
            }
            return true;
        });
}

LoadResult<IdentifyVerdict>
decodeVerdict(const Payload &payload)
{
    return decodePayload<IdentifyVerdict>(
        payload, Opcode::Verdict, "verdict",
        [](WireReader &r, IdentifyVerdict &v) {
            std::uint8_t matched, fell_back;
            if (!r.u8(matched) || matched > 1)
                return false;
            v.matched = matched != 0;
            if (!r.f64(v.distance) ||
                !r.str(v.label, pcdb::maxLabelBytes) ||
                !r.str(v.nearestLabel, pcdb::maxLabelBytes) ||
                !r.u64(v.delta.candidatesScanned) ||
                !r.u64(v.delta.recordsAvailable) ||
                !r.u8(fell_back) || fell_back > 1)
                return false;
            v.delta.indexFallbacks = fell_back;
            return true;
        });
}

LoadResult<AddReply>
decodeAdded(const Payload &payload)
{
    return decodePayload<AddReply>(
        payload, Opcode::Added, "added",
        [](WireReader &r, AddReply &a) {
            std::uint8_t added;
            if (!r.u8(added) || added > 1)
                return false;
            a.added = added != 0;
            return r.u64(a.record) && r.u64(a.weight) &&
                   r.str(a.error, maxFramePayload);
        });
}

LoadResult<std::string>
decodeJson(const Payload &payload)
{
    return decodePayload<std::string>(
        payload, Opcode::Json, "json",
        [](WireReader &r, std::string &s) {
            return r.str(s, maxFramePayload);
        });
}

LoadResult<std::string>
decodeError(const Payload &payload)
{
    return decodePayload<std::string>(
        payload, Opcode::Error, "error",
        [](WireReader &r, std::string &s) {
            return r.str(s, maxFramePayload);
        });
}

const char *
readStatusName(ReadStatus status)
{
    switch (status) {
      case ReadStatus::Ok: return "ok";
      case ReadStatus::Eof: return "eof";
      case ReadStatus::Truncated: return "truncated frame";
      case ReadStatus::TooLarge: return "oversized length prefix";
      case ReadStatus::Empty: return "empty frame";
      case ReadStatus::IoError: return "io error";
      case ReadStatus::TimedOut: return "read timeout";
    }
    return "unknown";
}

namespace
{

/** recv exactly @p len bytes. 1 = ok, 0 = clean close before any
 *  byte, -1 = close/error mid-read, -2 = SO_RCVTIMEO expired (the
 *  slowloris eviction signal — stalling mid-frame times out the
 *  same as idling before one). */
int
recvAll(int fd, void *buf, std::size_t len)
{
    std::size_t got = 0;
    auto *p = static_cast<std::uint8_t *>(buf);
    while (got < len) {
        const ssize_t r = ::recv(fd, p + got, len - got, 0);
        if (r == 0)
            return got == 0 ? 0 : -1;
        if (r < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return -2;
            return -1;
        }
        got += static_cast<std::size_t>(r);
    }
    return 1;
}

} // anonymous namespace

ReadStatus
readFrame(int fd, Payload &out, std::uint32_t max_payload)
{
    std::uint8_t head[4];
    const int h = recvAll(fd, head, sizeof(head));
    if (h == 0)
        return ReadStatus::Eof;
    if (h == -2)
        return ReadStatus::TimedOut;
    if (h < 0)
        return ReadStatus::Truncated;
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i)
        len |= static_cast<std::uint32_t>(head[i]) << (8 * i);
    if (len == 0)
        return ReadStatus::Empty;
    if (len > max_payload)
        return ReadStatus::TooLarge;
    out.resize(len);
    const int b = recvAll(fd, out.data(), len);
    if (b == -2)
        return ReadStatus::TimedOut;
    if (b <= 0)
        return ReadStatus::Truncated;
    return ReadStatus::Ok;
}

bool
writeFrame(int fd, const Payload &payload)
{
    std::uint8_t head[4];
    const std::uint32_t len =
        static_cast<std::uint32_t>(payload.size());
    for (int i = 0; i < 4; ++i)
        head[i] = static_cast<std::uint8_t>(len >> (8 * i));

    // One sendmsg covers header + body, so a frame leaves as a
    // single segment (latency matters more than copies here).
    iovec iov[2];
    iov[0].iov_base = head;
    iov[0].iov_len = sizeof(head);
    iov[1].iov_base = const_cast<std::uint8_t *>(payload.data());
    iov[1].iov_len = payload.size();
    std::size_t skip = 0;
    const std::size_t total = sizeof(head) + payload.size();
    while (skip < total) {
        msghdr msg{};
        iovec cur[2];
        int niov = 0;
        std::size_t consumed = 0;
        for (int i = 0; i < 2; ++i) {
            if (skip < consumed + iov[i].iov_len) {
                const std::size_t within =
                    skip > consumed ? skip - consumed : 0;
                cur[niov].iov_base =
                    static_cast<std::uint8_t *>(iov[i].iov_base) +
                    within;
                cur[niov].iov_len = iov[i].iov_len - within;
                ++niov;
            }
            consumed += iov[i].iov_len;
        }
        msg.msg_iov = cur;
        msg.msg_iovlen = niov;
        const ssize_t r = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
        if (r < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        skip += static_cast<std::size_t>(r);
    }
    return true;
}

} // namespace pcause::serve
