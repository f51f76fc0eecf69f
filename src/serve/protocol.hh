/**
 * @file
 * The fpc-serve-v1 wire protocol: length-prefixed binary frames over
 * a stream socket.
 *
 * Every frame is a little-endian u32 payload length followed by that
 * many bytes. Payloads are flat little-endian structs built from u8 /
 * u16 / u32 / u64 scalars and u32-length-prefixed strings — no
 * nesting, no varints, so a client in any language is a page of code.
 *
 * Requests open with a u8 opcode; SUBMIT carries a client-chosen
 * request id that the matching reply echoes, so one connection can
 * pipeline many jobs and collect completions out of order (jobs
 * finish in whatever order the server runs them).
 */

#ifndef FPC_SERVE_PROTOCOL_HH
#define FPC_SERVE_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hh"

namespace fpc::serve
{

/** Frames above this are rejected before allocation: nothing the
 *  protocol carries legitimately approaches it. */
constexpr std::uint32_t maxFrameBytes = 1u << 24;

enum class ReqOp : std::uint8_t
{
    Submit = 1, ///< run a job
    Scrape = 2, ///< fetch the server's OpenMetrics exposition
    Ping = 3,   ///< liveness check
    Probe = 4,  ///< live probe attach / detach / read
};

/** Reply status. Submit replies use Ok/Rejected/OverQuota/Draining/
 *  BadRequest; Scrape answers ScrapeText; Ping answers Pong; Probe
 *  answers ProbeText (or BadRequest). */
enum class Status : std::uint8_t
{
    Ok = 0,         ///< the job ran; see the result fields
    Rejected = 1,   ///< queue full — back off retryAfterMs
    OverQuota = 2,  ///< tenant cycle quota spent — retryAfterMs
    Draining = 3,   ///< server is shutting down, resubmit elsewhere
    BadRequest = 4, ///< malformed frame / unknown program / bad source
    ScrapeText = 5,
    Pong = 6,
    ProbeText = 7,  ///< probe op accepted; text carries the payload
};

/** ProbeRequest action selector. */
enum class ProbeAction : std::uint8_t
{
    Attach = 1, ///< parse spec and attach; reply text = probe id
    Detach = 2, ///< detach probe id
    Read = 3,   ///< reply text = the fpc-probes-v1 document
};

const char *statusName(Status status);

struct SubmitRequest
{
    std::uint32_t reqId = 0;
    /** Client-chosen correlation id, propagated into the server's
     *  span tree (fpc-spans-v1 / Perfetto exports) so a client can
     *  find its own requests in the server's telemetry; 0 = unset. */
    std::uint64_t traceId = 0;
    std::string tenant;      ///< empty → the server's default tenant
    std::string program;     ///< preloaded program name; empty → source
    std::string source;      ///< MiniMesa source when program is empty
    std::string entryModule; ///< empty → "Main" or the first module
    std::string entryProc;   ///< empty → "main"
    std::vector<Word> args;
};

/** Live probe management on a running daemon. Attach/detach mutate
 *  only the server's probe registry — jobs already executing keep
 *  their compiled snapshot and are never interrupted; the change
 *  takes effect from the next job dispatched. */
struct ProbeRequest
{
    std::uint32_t reqId = 0;
    ProbeAction action = ProbeAction::Read;
    std::string spec;       ///< Attach: the probe one-liner
    std::uint32_t id = 0;   ///< Detach: probe id to remove
};

struct Request
{
    ReqOp op = ReqOp::Ping;
    SubmitRequest submit; ///< valid when op == Submit
    ProbeRequest probe;   ///< valid when op == Probe
};

struct Reply
{
    std::uint32_t reqId = 0;
    Status status = Status::Pong;

    // Status::Ok — the job's outcome.
    bool jobOk = false;
    Word value = 0;
    std::string stopReason;
    std::string error; ///< job failure, or the BadRequest diagnosis
    std::uint64_t steps = 0;
    std::uint64_t cycles = 0;
    std::string postmortem; ///< bundle path prefix, when written

    /** Latency attribution echoed with every Ok reply: the server's
     *  span id for this request plus how long it sat queued
     *  (admission → execution start) and how long it executed, in
     *  host nanoseconds. Zero for replies that never reached a
     *  worker. */
    std::uint64_t spanId = 0;
    std::uint64_t queueNs = 0;
    std::uint64_t execNs = 0;

    // Status::Rejected / OverQuota — explicit backpressure.
    std::uint32_t retryAfterMs = 0;

    // Status::ScrapeText / ProbeText. For probe attach replies, text
    // is empty and probeId carries the assigned id; probe reads put
    // the fpc-probes-v1 document in text.
    std::string text;
    std::uint32_t probeId = 0;
};

/** @name Payload encoding.
 * encode* build a payload (no frame header); decode* parse one,
 * returning false with a diagnosis on truncated or malformed input
 * instead of throwing — the server answers BadRequest, it does not
 * die.
 * @{ */
std::string encodeRequest(const Request &req);
std::string encodeReply(const Reply &reply);
bool decodeRequest(std::string_view payload, Request &out,
                   std::string &err);
bool decodeReply(std::string_view payload, Reply &out,
                 std::string &err);
/** @} */

/** @name Framed blocking I/O on a connected socket.
 * Both return false on EOF or a socket error; writeFrame never raises
 * SIGPIPE. readFrame enforces maxFrameBytes.
 * @{ */
bool writeFrame(int fd, std::string_view payload);
bool readFrame(int fd, std::string &payload);

/** Turn Nagle's algorithm off on a connected TCP socket, both ends:
 *  every frame is one small write, so Nagle would only hold it back
 *  until the peer's delayed ACK. */
void setNoDelay(int fd);
/** Whether TCP_NODELAY is set on fd. */
bool noDelay(int fd);
/** @} */

} // namespace fpc::serve

#endif // FPC_SERVE_PROTOCOL_HH
