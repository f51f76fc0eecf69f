#include "serve/protocol.hh"

#include <cerrno>
#include <cstring>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

namespace fpc::serve
{

const char *
statusName(Status status)
{
    switch (status) {
      case Status::Ok: return "ok";
      case Status::Rejected: return "rejected";
      case Status::OverQuota: return "over-quota";
      case Status::Draining: return "draining";
      case Status::BadRequest: return "bad-request";
      case Status::ScrapeText: return "scrape";
      case Status::Pong: return "pong";
      case Status::ProbeText: return "probe";
      default: return "?";
    }
}

namespace
{

void
putU8(std::string &out, std::uint8_t v)
{
    out.push_back(static_cast<char>(v));
}

void
putU16(std::string &out, std::uint16_t v)
{
    out.push_back(static_cast<char>(v & 0xFF));
    out.push_back(static_cast<char>(v >> 8));
}

void
putU32(std::string &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void
putU64(std::string &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void
putString(std::string &out, const std::string &s)
{
    putU32(out, static_cast<std::uint32_t>(s.size()));
    out.append(s);
}

/** Bounds-checked little-endian reader over one payload. */
struct Cursor
{
    std::string_view buf;
    std::size_t pos = 0;
    bool ok = true;

    bool
    need(std::size_t n)
    {
        if (!ok || buf.size() - pos < n)
            ok = false;
        return ok;
    }

    std::uint8_t
    u8()
    {
        if (!need(1))
            return 0;
        return static_cast<std::uint8_t>(buf[pos++]);
    }

    std::uint16_t
    u16()
    {
        std::uint16_t v = 0;
        if (!need(2))
            return 0;
        for (int i = 0; i < 2; ++i)
            v |= static_cast<std::uint16_t>(
                static_cast<std::uint8_t>(buf[pos++])) << (8 * i);
        return v;
    }

    std::uint32_t
    u32()
    {
        std::uint32_t v = 0;
        if (!need(4))
            return 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(
                static_cast<std::uint8_t>(buf[pos++])) << (8 * i);
        return v;
    }

    std::uint64_t
    u64()
    {
        std::uint64_t v = 0;
        if (!need(8))
            return 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(
                static_cast<std::uint8_t>(buf[pos++])) << (8 * i);
        return v;
    }

    std::string
    str()
    {
        const std::uint32_t len = u32();
        if (!need(len))
            return {};
        std::string s(buf.substr(pos, len));
        pos += len;
        return s;
    }

    bool
    done() const
    {
        return ok && pos == buf.size();
    }
};

} // namespace

std::string
encodeRequest(const Request &req)
{
    std::string out;
    putU8(out, static_cast<std::uint8_t>(req.op));
    if (req.op == ReqOp::Submit) {
        const SubmitRequest &s = req.submit;
        putU32(out, s.reqId);
        putU64(out, s.traceId);
        putString(out, s.tenant);
        putString(out, s.program);
        putString(out, s.source);
        putString(out, s.entryModule);
        putString(out, s.entryProc);
        putU16(out, static_cast<std::uint16_t>(s.args.size()));
        for (Word a : s.args)
            putU16(out, a);
    } else if (req.op == ReqOp::Probe) {
        const ProbeRequest &p = req.probe;
        putU32(out, p.reqId);
        putU8(out, static_cast<std::uint8_t>(p.action));
        putString(out, p.spec);
        putU32(out, p.id);
    }
    return out;
}

bool
decodeRequest(std::string_view payload, Request &out, std::string &err)
{
    Cursor c{payload};
    const auto op = c.u8();
    switch (op) {
      case static_cast<std::uint8_t>(ReqOp::Scrape):
      case static_cast<std::uint8_t>(ReqOp::Ping):
        out.op = static_cast<ReqOp>(op);
        if (!c.done()) {
            err = "trailing bytes after request";
            return false;
        }
        return true;
      case static_cast<std::uint8_t>(ReqOp::Submit): {
        out.op = ReqOp::Submit;
        SubmitRequest &s = out.submit;
        s.reqId = c.u32();
        s.traceId = c.u64();
        s.tenant = c.str();
        s.program = c.str();
        s.source = c.str();
        s.entryModule = c.str();
        s.entryProc = c.str();
        const std::uint16_t argc = c.u16();
        s.args.clear();
        for (std::uint16_t i = 0; i < argc && c.ok; ++i)
            s.args.push_back(c.u16());
        if (!c.done()) {
            err = "truncated or malformed SUBMIT payload";
            return false;
        }
        return true;
      }
      case static_cast<std::uint8_t>(ReqOp::Probe): {
        out.op = ReqOp::Probe;
        ProbeRequest &p = out.probe;
        p.reqId = c.u32();
        const std::uint8_t action = c.u8();
        if (c.ok &&
            (action < static_cast<std::uint8_t>(ProbeAction::Attach) ||
             action > static_cast<std::uint8_t>(ProbeAction::Read))) {
            err = "unknown probe action " + std::to_string(action);
            return false;
        }
        p.action = static_cast<ProbeAction>(action);
        p.spec = c.str();
        p.id = c.u32();
        if (!c.done()) {
            err = "truncated or malformed PROBE payload";
            return false;
        }
        return true;
      }
      default:
        err = "unknown request opcode " + std::to_string(op);
        return false;
    }
}

std::string
encodeReply(const Reply &reply)
{
    std::string out;
    putU32(out, reply.reqId);
    putU8(out, static_cast<std::uint8_t>(reply.status));
    switch (reply.status) {
      case Status::Ok:
      case Status::BadRequest:
        putU8(out, reply.jobOk ? 1 : 0);
        putU16(out, reply.value);
        putString(out, reply.stopReason);
        putString(out, reply.error);
        putU64(out, reply.steps);
        putU64(out, reply.cycles);
        putString(out, reply.postmortem);
        putU64(out, reply.spanId);
        putU64(out, reply.queueNs);
        putU64(out, reply.execNs);
        break;
      case Status::Rejected:
      case Status::OverQuota:
      case Status::Draining:
        putU32(out, reply.retryAfterMs);
        putString(out, reply.error);
        break;
      case Status::ScrapeText:
        putString(out, reply.text);
        break;
      case Status::ProbeText:
        putU32(out, reply.probeId);
        putString(out, reply.text);
        break;
      case Status::Pong:
        break;
    }
    return out;
}

bool
decodeReply(std::string_view payload, Reply &out, std::string &err)
{
    Cursor c{payload};
    out.reqId = c.u32();
    const auto status = c.u8();
    if (status > static_cast<std::uint8_t>(Status::ProbeText)) {
        err = "unknown reply status " + std::to_string(status);
        return false;
    }
    out.status = static_cast<Status>(status);
    switch (out.status) {
      case Status::Ok:
      case Status::BadRequest:
        out.jobOk = c.u8() != 0;
        out.value = c.u16();
        out.stopReason = c.str();
        out.error = c.str();
        out.steps = c.u64();
        out.cycles = c.u64();
        out.postmortem = c.str();
        out.spanId = c.u64();
        out.queueNs = c.u64();
        out.execNs = c.u64();
        break;
      case Status::Rejected:
      case Status::OverQuota:
      case Status::Draining:
        out.retryAfterMs = c.u32();
        out.error = c.str();
        break;
      case Status::ScrapeText:
        out.text = c.str();
        break;
      case Status::ProbeText:
        out.probeId = c.u32();
        out.text = c.str();
        break;
      case Status::Pong:
        break;
    }
    if (!c.done()) {
        err = "truncated or malformed reply payload";
        return false;
    }
    return true;
}

namespace
{

bool
writeAll(int fd, const char *data, std::size_t len)
{
    while (len > 0) {
        const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data += n;
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

bool
readAll(int fd, char *data, std::size_t len)
{
    while (len > 0) {
        const ssize_t n = ::recv(fd, data, len, 0);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (n == 0)
            return false; // EOF mid-frame
        data += n;
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

} // namespace

bool
writeFrame(int fd, std::string_view payload)
{
    std::string frame;
    frame.reserve(4 + payload.size());
    putU32(frame, static_cast<std::uint32_t>(payload.size()));
    frame.append(payload);
    return writeAll(fd, frame.data(), frame.size());
}

bool
readFrame(int fd, std::string &payload)
{
    char head[4];
    if (!readAll(fd, head, 4))
        return false;
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i)
        len |= static_cast<std::uint32_t>(
            static_cast<std::uint8_t>(head[i])) << (8 * i);
    if (len > maxFrameBytes)
        return false;
    payload.resize(len);
    return len == 0 || readAll(fd, payload.data(), len);
}

void
setNoDelay(int fd)
{
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

bool
noDelay(int fd)
{
    int on = 0;
    socklen_t len = sizeof(on);
    return ::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &on, &len) == 0 &&
           on != 0;
}

} // namespace fpc::serve
