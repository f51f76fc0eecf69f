#include "serve/client.hh"

#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

namespace fpc::serve
{

bool
Client::connect(const std::string &host, std::uint16_t port,
                std::string &err)
{
    close();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
        err = "socket() failed";
        return false;
    }
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        err = "bad address '" + host + "'";
        close();
        return false;
    }
    if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        err = "connect to " + host + ":" + std::to_string(port) +
              " failed: " + std::strerror(errno);
        close();
        return false;
    }
    setNoDelay(fd_);
    return true;
}

void
Client::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

bool
Client::send(const Request &req)
{
    if (fd_ < 0)
        return false;
    return writeFrame(fd_, encodeRequest(req));
}

bool
Client::recv(Reply &reply)
{
    if (fd_ < 0)
        return false;
    std::string payload;
    if (!readFrame(fd_, payload))
        return false;
    std::string err;
    return decodeReply(payload, reply, err);
}

bool
Client::call(const Request &req, Reply &reply)
{
    return send(req) && recv(reply);
}

bool
Client::submitSource(const std::string &tenant,
                     const std::string &source,
                     const std::vector<Word> &args, Reply &reply)
{
    Request req;
    req.op = ReqOp::Submit;
    req.submit.reqId = nextReqId_++;
    req.submit.tenant = tenant;
    req.submit.source = source;
    req.submit.args = args;
    return call(req, reply);
}

bool
Client::submitProgram(const std::string &tenant,
                      const std::string &program,
                      const std::vector<Word> &args, Reply &reply)
{
    Request req;
    req.op = ReqOp::Submit;
    req.submit.reqId = nextReqId_++;
    req.submit.tenant = tenant;
    req.submit.program = program;
    req.submit.args = args;
    return call(req, reply);
}

bool
Client::scrape(std::string &text)
{
    Request req;
    req.op = ReqOp::Scrape;
    Reply reply;
    if (!call(req, reply) || reply.status != Status::ScrapeText)
        return false;
    text = std::move(reply.text);
    return true;
}

bool
Client::ping()
{
    Request req;
    req.op = ReqOp::Ping;
    Reply reply;
    return call(req, reply) && reply.status == Status::Pong;
}

bool
Client::probeAttach(const std::string &spec, Reply &reply)
{
    Request req;
    req.op = ReqOp::Probe;
    req.probe.reqId = nextReqId_++;
    req.probe.action = ProbeAction::Attach;
    req.probe.spec = spec;
    return call(req, reply);
}

bool
Client::probeDetach(std::uint32_t id, Reply &reply)
{
    Request req;
    req.op = ReqOp::Probe;
    req.probe.reqId = nextReqId_++;
    req.probe.action = ProbeAction::Detach;
    req.probe.id = id;
    return call(req, reply);
}

bool
Client::probeRead(std::string &text)
{
    Request req;
    req.op = ReqOp::Probe;
    req.probe.reqId = nextReqId_++;
    req.probe.action = ProbeAction::Read;
    Reply reply;
    if (!call(req, reply) || reply.status != Status::ProbeText)
        return false;
    text = std::move(reply.text);
    return true;
}

} // namespace fpc::serve
