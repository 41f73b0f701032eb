/**
 * @file
 * pcaused wire protocol: length-prefixed binary frames.
 *
 * Every message is one frame:
 *
 *     u32  payload length N (little-endian, N <= maxFramePayload)
 *     u8   opcode
 *     ...  body (opcode-specific, N - 1 bytes)
 *
 * All integers are little-endian; f64 is the IEEE-754 bit pattern
 * carried as a u64 (values round-trip exactly, so a served distance
 * can be compared bit-for-bit against a direct store query).
 * Request bodies:
 *
 *   Identify (0x01):
 *     u8  flags            bit0 = linear scan, bit1 = best-match
 *     u8  metric           DistanceMetric (0 = ModifiedJaccard)
 *     f64 threshold        finite, >= 0
 *     u64 bit count B
 *     u8  bits[(B+7)/8]    error string, bit i at byte i/8 bit i%8
 *
 *   Characterize (0x02):
 *     u32 label length L (<= pcdb::maxLabelBytes, the longest label a
 *     database holds), u8 label[L]
 *     u32 error-string count K (1 <= K <= maxCharacterizeStrings)
 *     K * { u64 bit count B, u8 bits[(B+7)/8] }
 *
 *   DbStats (0x03), Stats (0x04), Health (0x05), Shutdown (0x7F):
 *   empty body. Health is answered with a Json frame
 *   ({"status": "serving"|"draining", ...}) and is safe to poll
 *   from orchestration (idempotent, no store access beyond a size
 *   read).
 *
 * Response bodies:
 *
 *   Ok (0x80): empty.
 *   Verdict (0x81):
 *     u8  matched, f64 distance,
 *     u32 label length + bytes          (matched record, or empty)
 *     u32 nearest label length + bytes  (nearest record, or empty)
 *     (each label <= pcdb::maxLabelBytes; two fit a frame)
 *     u64 candidates scanned, u64 records available, u8 fell back
 *   Added (0x82):
 *     u8 added, u64 record index, u64 weight,
 *     u32 error length + bytes (refusal reason when added == 0)
 *   Json (0x83): u32 length + bytes (stats snapshots).
 *   Busy (0x84): empty — identifies in flight are at the cap; the
 *     connection stays open and the client may retry (explicit
 *     backpressure, never a silent drop).
 *   Error (0x85): u32 length + message bytes. After a malformed
 *     frame the server closes the connection; an Identify whose bit
 *     count differs from the database's records' is answered with
 *     Error and the connection stays open.
 *
 * Decoding follows the serializer's every-prefix discipline: every
 * read is bounds-checked, trailing bytes are rejected, and any
 * strict prefix of a valid payload decodes to a clean error — never
 * an out-of-bounds read or a partially-initialized request.
 */

#ifndef PCAUSE_SERVE_PROTOCOL_HH
#define PCAUSE_SERVE_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/serialize.hh"
#include "core/service.hh"

namespace pcause::serve
{

/** Hard ceiling on payload bytes; a larger length prefix is
 *  answered with Error and a connection close before any body
 *  bytes are read. */
constexpr std::uint32_t maxFramePayload = 8u << 20;

/** Error strings per Characterize request. */
constexpr std::uint32_t maxCharacterizeStrings = 1024;

/** Frame opcodes (requests < 0x80 <= responses). */
enum class Opcode : std::uint8_t
{
    Identify = 0x01,
    Characterize = 0x02,
    DbStats = 0x03,
    Stats = 0x04,
    Health = 0x05,
    Shutdown = 0x7F,

    Ok = 0x80,
    Verdict = 0x81,
    Added = 0x82,
    Json = 0x83,
    Busy = 0x84,
    Error = 0x85,
};

/** One frame payload (opcode byte + body, without the length
 *  prefix). */
using Payload = std::vector<std::uint8_t>;

/** Characterize request body. */
struct CharacterizeRequest
{
    std::string label;
    std::vector<BitVec> errorStrings;
};

/** Added reply body. */
struct AddReply
{
    bool added = false;
    std::uint64_t record = 0;
    std::uint64_t weight = 0;
    std::string error;
};

/** Opcode of @p payload (0 when empty). */
inline std::uint8_t
payloadOpcode(const Payload &payload)
{
    return payload.empty() ? 0 : payload.front();
}

// --- Encoding (always succeeds; sizes are caller-checked) --------

Payload encodeIdentify(const IdentifyRequest &req);
Payload encodeCharacterize(const CharacterizeRequest &req);
Payload encodeEmpty(Opcode op);
Payload encodeVerdict(const IdentifyVerdict &verdict);
Payload encodeAdded(const AddReply &reply);
Payload encodeJson(const std::string &json);
Payload encodeError(const std::string &message);

// --- Decoding (bounds-checked; LoadResult error on any malformed,
// --- truncated, or trailing-garbage payload) ---------------------

LoadResult<IdentifyRequest> decodeIdentify(const Payload &payload);
LoadResult<CharacterizeRequest>
decodeCharacterize(const Payload &payload);
LoadResult<IdentifyVerdict> decodeVerdict(const Payload &payload);
LoadResult<AddReply> decodeAdded(const Payload &payload);
LoadResult<std::string> decodeJson(const Payload &payload);
LoadResult<std::string> decodeError(const Payload &payload);

// --- Framed socket I/O -------------------------------------------

/** Outcome of reading one frame. */
enum class ReadStatus
{
    Ok,        //!< frame read completely
    Eof,       //!< peer closed before any byte of this frame
    Truncated, //!< peer closed mid-frame
    TooLarge,  //!< length prefix exceeds @p max_payload
    Empty,     //!< length prefix of zero (no opcode byte)
    IoError,   //!< recv failed
    TimedOut,  //!< SO_RCVTIMEO expired (idle or stalled peer)
};

/** Human-readable name of @p status. */
const char *readStatusName(ReadStatus status);

/**
 * Read one length-prefixed frame from @p fd into @p out. On
 * TooLarge/Empty the body (if any) is left unread — callers reply
 * with Error and close, so desynchronization does not matter.
 */
ReadStatus readFrame(int fd, Payload &out,
                     std::uint32_t max_payload = maxFramePayload);

/** Write @p payload as one length-prefixed frame. False on IO
 *  failure (peer gone). */
bool writeFrame(int fd, const Payload &payload);

} // namespace pcause::serve

#endif // PCAUSE_SERVE_PROTOCOL_HH
