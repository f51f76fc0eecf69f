/**
 * @file
 * Tests for the fpc_serve library, bottom-up: the wire protocol
 * (round-trips and malformed-input rejection), the deficit-round-robin
 * dispatcher (weighted fairness in isolation), the drain signal, and a
 * live Server on an ephemeral port driven through the real client —
 * submission paths, admission control, quotas, scrape, drain, frame
 * assembly and the serving threads.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>

#include "common/logging.hh"
#include "lang/codegen.hh"
#include "serve/client.hh"
#include "serve/drain.hh"
#include "serve/server.hh"
#include "serve/tenant.hh"

namespace fpc
{
namespace
{

// ---------------------------------------------------------------------
// Protocol.
// ---------------------------------------------------------------------

TEST(Protocol, SubmitRoundTrip)
{
    serve::Request req;
    req.op = serve::ReqOp::Submit;
    req.submit.reqId = 42;
    req.submit.traceId = 0xfeedfacecafef00dull;
    req.submit.tenant = "gold";
    req.submit.program = "primes";
    req.submit.source = "module M; proc main(n) { return n; }";
    req.submit.entryModule = "M";
    req.submit.entryProc = "main";
    req.submit.args = {7, 0, 65535};

    serve::Request out;
    std::string err;
    ASSERT_TRUE(
        serve::decodeRequest(serve::encodeRequest(req), out, err))
        << err;
    EXPECT_EQ(out.op, serve::ReqOp::Submit);
    EXPECT_EQ(out.submit.reqId, 42u);
    EXPECT_EQ(out.submit.traceId, 0xfeedfacecafef00dull);
    EXPECT_EQ(out.submit.tenant, "gold");
    EXPECT_EQ(out.submit.program, "primes");
    EXPECT_EQ(out.submit.source, req.submit.source);
    EXPECT_EQ(out.submit.entryModule, "M");
    EXPECT_EQ(out.submit.entryProc, "main");
    EXPECT_EQ(out.submit.args, req.submit.args);
}

TEST(Protocol, ReplyVariantsRoundTrip)
{
    serve::Reply ok;
    ok.reqId = 9;
    ok.status = serve::Status::Ok;
    ok.jobOk = true;
    ok.value = 55;
    ok.stopReason = "topReturn";
    ok.steps = 1234;
    ok.cycles = 9876;
    ok.spanId = 7;
    ok.queueNs = 111222;
    ok.execNs = 333444;

    serve::Reply rejected;
    rejected.reqId = 10;
    rejected.status = serve::Status::Rejected;
    rejected.retryAfterMs = 25;
    rejected.error = "queue full";

    serve::Reply scrape;
    scrape.status = serve::Status::ScrapeText;
    scrape.text = "# EOF\n";

    for (const serve::Reply &reply : {ok, rejected, scrape}) {
        serve::Reply out;
        std::string err;
        ASSERT_TRUE(
            serve::decodeReply(serve::encodeReply(reply), out, err))
            << err;
        EXPECT_EQ(out.reqId, reply.reqId);
        EXPECT_EQ(out.status, reply.status);
        EXPECT_EQ(out.jobOk, reply.jobOk);
        EXPECT_EQ(out.value, reply.value);
        EXPECT_EQ(out.stopReason, reply.stopReason);
        EXPECT_EQ(out.error, reply.error);
        EXPECT_EQ(out.steps, reply.steps);
        EXPECT_EQ(out.cycles, reply.cycles);
        EXPECT_EQ(out.retryAfterMs, reply.retryAfterMs);
        EXPECT_EQ(out.text, reply.text);
        EXPECT_EQ(out.spanId, reply.spanId);
        EXPECT_EQ(out.queueNs, reply.queueNs);
        EXPECT_EQ(out.execNs, reply.execNs);
    }
}

TEST(Protocol, MalformedInputIsRejectedNotThrown)
{
    serve::Request req;
    std::string err;

    // Unknown opcode.
    EXPECT_FALSE(serve::decodeRequest("\x7f", req, err));
    EXPECT_FALSE(err.empty());

    // Truncated SUBMIT: every proper prefix must fail cleanly.
    serve::Request full;
    full.op = serve::ReqOp::Submit;
    full.submit.tenant = "t";
    full.submit.source = "module M; proc main(n) { return n; }";
    full.submit.args = {1, 2};
    const std::string payload = serve::encodeRequest(full);
    for (std::size_t len = 0; len < payload.size(); ++len) {
        EXPECT_FALSE(serve::decodeRequest(
            std::string_view(payload.data(), len), req, err))
            << "prefix of length " << len << " decoded";
    }

    // Trailing garbage after a valid PING.
    EXPECT_FALSE(serve::decodeRequest(std::string("\x03junk"), req,
                                      err));

    serve::Reply reply;
    EXPECT_FALSE(serve::decodeReply("", reply, err));
    EXPECT_FALSE(serve::decodeReply("\x01\x00\x00\x00\x63", reply,
                                    err)); // status 99
}

// ---------------------------------------------------------------------
// Deficit round robin.
// ---------------------------------------------------------------------

TEST(Drr, WeightsSetDispatchShares)
{
    serve::DrrDispatcher drr;
    drr.setQuantum("heavy", 2.0);
    drr.setQuantum("light", 1.0);
    for (int i = 0; i < 12; ++i) {
        drr.enqueue("heavy");
        drr.enqueue("light");
    }
    ASSERT_EQ(drr.queued(), 24u);

    int heavy = 0, light = 0;
    std::string who;
    for (int i = 0; i < 18; ++i) {
        ASSERT_TRUE(drr.pick(who));
        (who == "heavy" ? heavy : light)++;
    }
    // Backlogged throughout: dispatches split 2:1.
    EXPECT_EQ(heavy, 12);
    EXPECT_EQ(light, 6);
}

TEST(Drr, DrainsCompletelyAndStopsPicking)
{
    serve::DrrDispatcher drr;
    drr.enqueue("a");
    drr.enqueue("a");
    drr.enqueue("b");
    std::string who;
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(drr.pick(who));
    EXPECT_FALSE(drr.pick(who));
    EXPECT_EQ(drr.queued(), 0u);
}

TEST(Drr, IdleTenantDoesNotBankCredit)
{
    serve::DrrDispatcher drr;
    drr.setQuantum("idle", 8.0);
    drr.setQuantum("busy", 1.0);

    // idle drains once, then sits out many turns.
    drr.enqueue("idle");
    std::string who;
    ASSERT_TRUE(drr.pick(who));
    EXPECT_EQ(who, "idle");
    for (int i = 0; i < 10; ++i) {
        drr.enqueue("busy");
        ASSERT_TRUE(drr.pick(who));
        EXPECT_EQ(who, "busy");
    }

    // Back with a backlog: its share resumes at 8:1 from zero
    // deficit, not with 10 turns of banked credit spent instantly.
    for (int i = 0; i < 9; ++i) {
        drr.enqueue("idle");
        drr.enqueue("busy");
    }
    int idle = 0, busy = 0;
    for (int i = 0; i < 9; ++i) {
        ASSERT_TRUE(drr.pick(who));
        (who == "idle" ? idle : busy)++;
    }
    EXPECT_EQ(idle, 8);
    EXPECT_EQ(busy, 1);
}

TEST(Drr, SubUnitWeightsAccumulateAcrossTurns)
{
    serve::DrrDispatcher drr;
    drr.setQuantum("slow", 0.5);
    drr.setQuantum("fast", 1.0);
    for (int i = 0; i < 6; ++i) {
        drr.enqueue("slow");
        drr.enqueue("fast");
    }
    int slow = 0, fast = 0;
    std::string who;
    for (int i = 0; i < 9; ++i) {
        ASSERT_TRUE(drr.pick(who));
        (who == "slow" ? slow : fast)++;
    }
    // A 0.5 quantum dispatches every other turn: 1:2 share.
    EXPECT_EQ(slow, 3);
    EXPECT_EQ(fast, 6);
}

// ---------------------------------------------------------------------
// Drain signal.
// ---------------------------------------------------------------------

TEST(DrainSignal, SigtermSetsFlagAndWakesPipe)
{
    serve::DrainSignal drain;
    EXPECT_FALSE(drain.requested());
    EXPECT_FALSE(drain.flag().load());

    std::raise(SIGTERM);

    EXPECT_TRUE(drain.requested());
    EXPECT_TRUE(drain.flag().load());
    pollfd pfd = {drain.fd(), POLLIN, 0};
    EXPECT_EQ(::poll(&pfd, 1, 1000), 1);
    EXPECT_TRUE(pfd.revents & POLLIN);
}

// ---------------------------------------------------------------------
// The live server.
// ---------------------------------------------------------------------

const char *kFibSource = R"(
    module Fib;
    proc fib(n) {
        if (n < 2) { return n; }
        return fib(n - 1) + fib(n - 2);
    }
    proc main(n) { return fib(n); }
)";

serve::Client
connectTo(const serve::Server &server)
{
    serve::Client client;
    std::string err;
    if (!client.connect("127.0.0.1", server.port(), err))
        ADD_FAILURE() << "connect: " << err;
    return client;
}

/** The socket the server accepted for client: the fd in this
 *  process whose local end is the server's port and whose peer is
 *  the client's end. -1 when none is. */
int
acceptedFd(const serve::Server &server, const serve::Client &client)
{
    sockaddr_in mine = {};
    socklen_t len = sizeof(mine);
    if (::getsockname(client.fd(), reinterpret_cast<sockaddr *>(&mine),
                      &len) != 0)
        return -1;
    for (int fd = 0; fd < 1024; ++fd) {
        sockaddr_in local = {}, peer = {};
        socklen_t a = sizeof(local), b = sizeof(peer);
        if (fd == client.fd() ||
            ::getsockname(fd, reinterpret_cast<sockaddr *>(&local),
                          &a) != 0 ||
            ::getpeername(fd, reinterpret_cast<sockaddr *>(&peer),
                          &b) != 0 ||
            local.sin_family != AF_INET)
            continue;
        if (ntohs(local.sin_port) == server.port() &&
            peer.sin_port == mine.sin_port)
            return fd;
    }
    return -1;
}

/** Scrape over c until the server reports `want` jobs executing;
 *  false if it never does. */
bool
waitForInFlight(serve::Client &c, unsigned want)
{
    const std::string line =
        "\nfpc_serve_in_flight " + std::to_string(want) + "\n";
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
        std::string text;
        if (!c.scrape(text))
            return false;
        if (text.find(line) != std::string::npos)
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
}

/** A request as it travels: the u32 length prefix, then the
 *  payload. */
std::string
frameOf(const serve::Request &req)
{
    const std::string payload = serve::encodeRequest(req);
    std::string frame;
    for (int i = 0; i < 4; ++i)
        frame += static_cast<char>((payload.size() >> (8 * i)) & 0xff);
    return frame + payload;
}

serve::Request
submitOf(std::uint32_t reqId, const char *source, Word arg)
{
    serve::Request req;
    req.op = serve::ReqOp::Submit;
    req.submit.reqId = reqId;
    req.submit.source = source;
    req.submit.args = {arg};
    return req;
}

/** Runs n × 1000 loop iterations: long enough to hold a slot while a
 *  test talks to the server. */
const char *kSpinSource = R"(
    module Spin;
    proc main(n) {
        var i, j;
        i = 0;
        while (i < n) {
            j = 0;
            while (j < 1000) { j = j + 1; }
            i = i + 1;
        }
        return i;
    }
)";

std::size_t
threadCount()
{
    std::size_t n = 0;
    for ([[maybe_unused]] const auto &entry :
         std::filesystem::directory_iterator("/proc/self/task"))
        ++n;
    return n;
}

TEST(Server, AcceptedSocketsSetNoDelay)
{
    // Replies are one small write each: Nagle would hold every reply
    // for the client's delayed ACK. Both ends turn it off.
    serve::ServerConfig sc;
    sc.workers = 1;
    serve::Server server(sc);
    server.start();
    serve::Client client = connectTo(server);
    ASSERT_TRUE(client.ping()); // the server has accepted by now
    EXPECT_TRUE(serve::noDelay(client.fd()));
    const int fd = acceptedFd(server, client);
    ASSERT_GE(fd, 0);
    EXPECT_TRUE(serve::noDelay(fd));
    client.close();
    server.stop();
}

TEST(Server, RunsSourceAndPreloadedPrograms)
{
    serve::ServerConfig sc;
    sc.workers = 2;
    serve::Server server(sc);
    server.addProgram(
        "fib", std::make_shared<const std::vector<Module>>(
                   lang::compile(kFibSource)));
    server.start();
    ASSERT_NE(server.port(), 0);

    serve::Client client = connectTo(server);
    EXPECT_TRUE(client.ping());

    serve::Reply reply;
    ASSERT_TRUE(client.submitSource("", kFibSource, {10}, reply));
    EXPECT_EQ(reply.status, serve::Status::Ok);
    EXPECT_TRUE(reply.jobOk) << reply.error;
    EXPECT_EQ(reply.value, 55u);
    EXPECT_EQ(reply.stopReason, "topReturn");
    EXPECT_GT(reply.steps, 0u);

    ASSERT_TRUE(client.submitProgram("", "fib", {11}, reply));
    EXPECT_EQ(reply.status, serve::Status::Ok);
    EXPECT_TRUE(reply.jobOk) << reply.error;
    EXPECT_EQ(reply.value, 89u);

    server.stop();
    EXPECT_EQ(server.jobsCompleted(), 2u);
    EXPECT_EQ(server.jobsRejected(), 0u);
}

TEST(Server, BadSubmissionsAnswerBadRequest)
{
    serve::ServerConfig sc;
    sc.workers = 1;
    serve::Server server(sc);
    server.start();
    serve::Client client = connectTo(server);

    serve::Reply reply;
    ASSERT_TRUE(client.submitProgram("", "nosuch", {1}, reply));
    EXPECT_EQ(reply.status, serve::Status::BadRequest);
    EXPECT_NE(reply.error.find("nosuch"), std::string::npos);

    ASSERT_TRUE(
        client.submitSource("", "module Broken; proc {", {}, reply));
    EXPECT_EQ(reply.status, serve::Status::BadRequest);
    EXPECT_FALSE(reply.error.empty());

    // The connection survives bad submissions.
    EXPECT_TRUE(client.ping());
    server.stop();
}

TEST(Server, CycleQuotaAnswersOverQuota)
{
    serve::ServerConfig sc;
    sc.workers = 1;
    // metered may spend 1 simulated cycle per (enormous) window: the
    // first job completes and puts it over, the second is refused.
    sc.tenants["metered"] = {1.0, 64, 1};
    sc.quotaWindowMs = 3600 * 1000;
    serve::Server server(sc);
    server.start();
    serve::Client client = connectTo(server);

    serve::Reply reply;
    ASSERT_TRUE(client.submitSource("metered", kFibSource, {5}, reply));
    EXPECT_EQ(reply.status, serve::Status::Ok);
    EXPECT_TRUE(reply.jobOk) << reply.error;

    ASSERT_TRUE(client.submitSource("metered", kFibSource, {5}, reply));
    EXPECT_EQ(reply.status, serve::Status::OverQuota);
    EXPECT_GT(reply.retryAfterMs, 0u);

    // Another tenant is unaffected.
    ASSERT_TRUE(client.submitSource("other", kFibSource, {5}, reply));
    EXPECT_EQ(reply.status, serve::Status::Ok);
    server.stop();
}

TEST(Server, FullQueueAnswersRejectedWithRetryAfter)
{
    serve::ServerConfig sc;
    sc.workers = 1;
    sc.queueCapacity = 1;
    serve::Server server(sc);
    server.start();
    serve::Client client = connectTo(server);

    // Pipeline far more work than one worker and a one-slot queue can
    // hold; admission control must refuse some of it explicitly.
    const unsigned burst = 30;
    for (unsigned i = 0; i < burst; ++i) {
        serve::Request req;
        req.op = serve::ReqOp::Submit;
        req.submit.reqId = i + 1;
        req.submit.source = kFibSource;
        req.submit.args = {12};
        ASSERT_TRUE(client.send(req));
    }
    unsigned ok = 0, rejected = 0;
    for (unsigned i = 0; i < burst; ++i) {
        serve::Reply reply;
        ASSERT_TRUE(client.recv(reply));
        if (reply.status == serve::Status::Ok) {
            EXPECT_TRUE(reply.jobOk) << reply.error;
            ++ok;
        } else {
            ASSERT_EQ(reply.status, serve::Status::Rejected);
            EXPECT_GT(reply.retryAfterMs, 0u);
            ++rejected;
        }
    }
    EXPECT_GT(ok, 0u);
    EXPECT_GT(rejected, 0u);
    EXPECT_EQ(ok + rejected, burst);
    server.stop();
    EXPECT_EQ(server.jobsRejected(), rejected);
}

TEST(Server, ScrapeExposesServingMetrics)
{
    serve::ServerConfig sc;
    sc.workers = 1;
    sc.tenants["gold"] = {3.0, 64, 0};
    serve::Server server(sc);
    server.start();
    serve::Client client = connectTo(server);

    serve::Reply reply;
    ASSERT_TRUE(client.submitSource("gold", kFibSource, {8}, reply));
    EXPECT_EQ(reply.status, serve::Status::Ok);

    std::string text;
    ASSERT_TRUE(client.scrape(text));
    EXPECT_NE(text.find("fpc_serve_queue_depth"), std::string::npos);
    EXPECT_NE(text.find("fpc_serve_jobs_completed"),
              std::string::npos);
    EXPECT_NE(text.find("fpc_serve_job_latency_ms_p99"),
              std::string::npos);
    EXPECT_NE(text.find("tenant=\"gold\""), std::string::npos);
    EXPECT_NE(text.find("# EOF\n"), std::string::npos);
    server.stop();
}

TEST(Server, DrainRefusesNewWorkThenStops)
{
    serve::ServerConfig sc;
    sc.workers = 1;
    serve::Server server(sc);
    server.start();
    serve::Client client = connectTo(server);

    serve::Reply reply;
    ASSERT_TRUE(client.submitSource("", kFibSource, {9}, reply));
    EXPECT_EQ(reply.status, serve::Status::Ok);

    server.drain();
    EXPECT_TRUE(server.draining());

    // The established connection still gets answers — explicit
    // DRAINING, not a hang or a dropped socket.
    ASSERT_TRUE(client.submitSource("", kFibSource, {9}, reply));
    EXPECT_EQ(reply.status, serve::Status::Draining);

    server.stop();
    EXPECT_EQ(server.jobsCompleted(), 1u);
}

// ---------------------------------------------------------------------
// The serving threads: workers + 1, leader/followers over one epoll
// set.
// ---------------------------------------------------------------------

TEST(Server, SpareThreadAnswersWhileEverySlotRuns)
{
    // One slot, held by a long job: the second serving thread still
    // answers PING and SCRAPE and refuses a queue overflow before
    // that job ends.
    serve::ServerConfig sc;
    sc.workers = 1;
    sc.queueCapacity = 1;
    serve::Server server(sc);
    server.start();
    serve::Client runner = connectTo(server);
    serve::Client other = connectTo(server);

    ASSERT_TRUE(runner.send(submitOf(1, kSpinSource, 20000)));
    ASSERT_TRUE(waitForInFlight(other, 1));
    // The first quick job fills the one-place queue; the second is
    // refused at once.
    ASSERT_TRUE(other.send(submitOf(2, kFibSource, 5)));
    ASSERT_TRUE(other.send(submitOf(3, kFibSource, 5)));
    serve::Reply reply;
    ASSERT_TRUE(other.recv(reply));
    EXPECT_EQ(reply.reqId, 3u);
    EXPECT_EQ(reply.status, serve::Status::Rejected);
    EXPECT_TRUE(other.ping());
    std::string text;
    ASSERT_TRUE(other.scrape(text));
    EXPECT_NE(text.find("\nfpc_serve_in_flight 1\n"), std::string::npos);
    EXPECT_NE(text.find("\nfpc_serve_queue_depth 1\n"), std::string::npos);
    // The long job is still running: no reply has come back on its
    // connection.
    pollfd pfd = {runner.fd(), POLLIN, 0};
    EXPECT_EQ(::poll(&pfd, 1, 0), 0);

    ASSERT_TRUE(runner.recv(reply));
    EXPECT_EQ(reply.reqId, 1u);
    EXPECT_EQ(reply.value, 20000u);
    ASSERT_TRUE(other.recv(reply));
    EXPECT_EQ(reply.reqId, 2u);
    EXPECT_EQ(reply.value, 5u);
    server.stop();
    EXPECT_EQ(server.jobsCompleted(), 2u);
    EXPECT_EQ(server.jobsRejected(), 1u);
}

TEST(Server, BurstFillsEveryFreeSlot)
{
    // Two jobs admitted from one read, two free slots: the reading
    // thread runs one and another thread must take the other, so both
    // execute at once.
    serve::ServerConfig sc;
    sc.workers = 2;
    serve::Server server(sc);
    server.start();
    serve::Client client = connectTo(server);
    serve::Client watcher = connectTo(server);
    const std::string two = frameOf(submitOf(1, kSpinSource, 5000)) +
                            frameOf(submitOf(2, kSpinSource, 5000));
    ASSERT_EQ(::send(client.fd(), two.data(), two.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(two.size()));
    EXPECT_TRUE(waitForInFlight(watcher, 2));
    for (int i = 0; i < 2; ++i) {
        serve::Reply reply;
        ASSERT_TRUE(client.recv(reply));
        EXPECT_EQ(reply.value, 5000u);
    }
    server.stop();
}

TEST(Server, FramesAssembleAcrossAndWithinReads)
{
    serve::ServerConfig sc;
    sc.workers = 1;
    serve::Server server(sc);
    server.start();
    serve::Client client = connectTo(server);

    // One SUBMIT a byte at a time, with pauses so the server sees
    // the length prefix and the payload arrive in pieces.
    const std::string slow = frameOf(submitOf(1, kFibSource, 10));
    for (std::size_t i = 0; i < slow.size(); ++i) {
        ASSERT_EQ(::send(client.fd(), &slow[i], 1, MSG_NOSIGNAL), 1);
        if (i == 1 || i == 5 || i == slow.size() / 2)
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    serve::Reply reply;
    ASSERT_TRUE(client.recv(reply));
    EXPECT_EQ(reply.reqId, 1u);
    EXPECT_EQ(reply.status, serve::Status::Ok);
    EXPECT_EQ(reply.value, 55u);

    // Three frames in one send.
    serve::Request ping;
    ping.op = serve::ReqOp::Ping;
    const std::string three = frameOf(submitOf(2, kFibSource, 5)) +
                              frameOf(ping) +
                              frameOf(submitOf(3, kFibSource, 6));
    ASSERT_EQ(::send(client.fd(), three.data(), three.size(),
                     MSG_NOSIGNAL),
              static_cast<ssize_t>(three.size()));
    std::map<std::uint32_t, Word> values;
    unsigned pongs = 0;
    for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(client.recv(reply));
        if (reply.status == serve::Status::Pong) {
            ++pongs;
            continue;
        }
        ASSERT_EQ(reply.status, serve::Status::Ok);
        values[reply.reqId] = reply.value;
    }
    EXPECT_EQ(pongs, 1u);
    EXPECT_EQ(values, (std::map<std::uint32_t, Word>{{2, 5}, {3, 8}}));

    // A length prefix over maxFrameBytes closes that connection and
    // only that one.
    serve::Client bad = connectTo(server);
    ASSERT_TRUE(bad.ping());
    const std::uint32_t len = serve::maxFrameBytes + 1;
    char head[4];
    for (int i = 0; i < 4; ++i)
        head[i] = static_cast<char>((len >> (8 * i)) & 0xff);
    ASSERT_EQ(::send(bad.fd(), head, 4, MSG_NOSIGNAL), 4);
    pollfd pfd = {bad.fd(), POLLIN, 0};
    ASSERT_EQ(::poll(&pfd, 1, 30000), 1);
    char byte = 0;
    EXPECT_EQ(::recv(bad.fd(), &byte, 1, 0), 0); // EOF
    EXPECT_TRUE(client.ping());
    ASSERT_TRUE(client.submitSource("", kFibSource, {7}, reply));
    EXPECT_EQ(reply.value, 13u);
    server.stop();
}

TEST(Server, ManyConnectionsShareTheServingThreads)
{
    // No thread per connection: 32 clients on one slot are all
    // served by the workers + 1 serving threads.
    const std::size_t before = threadCount();
    serve::ServerConfig sc;
    sc.workers = 1;
    serve::Server server(sc);
    server.start();
    std::vector<serve::Client> clients;
    for (int c = 0; c < 32; ++c)
        clients.push_back(connectTo(server));
    for (std::size_t c = 0; c < clients.size(); ++c)
        ASSERT_TRUE(clients[c].send(submitOf(
            static_cast<std::uint32_t>(c + 1), kFibSource,
            static_cast<Word>(c % 8))));
    const Word fib[] = {0, 1, 1, 2, 3, 5, 8, 13};
    for (std::size_t c = 0; c < clients.size(); ++c) {
        serve::Reply reply;
        ASSERT_TRUE(clients[c].recv(reply));
        EXPECT_EQ(reply.status, serve::Status::Ok);
        EXPECT_EQ(reply.reqId, c + 1);
        EXPECT_EQ(reply.value, fib[c % 8]);
    }
    EXPECT_LE(threadCount(), before + sc.workers + 1);
    EXPECT_EQ(server.connectionsAccepted(), 32u);
    server.stop();
    EXPECT_EQ(server.jobsCompleted(), 32u);
}

// ---------------------------------------------------------------------
// Span tracing and latency attribution through the live server.
// ---------------------------------------------------------------------

struct ParsedSpan
{
    std::uint64_t traceId = 0;
    std::uint32_t reqId = 0;
    std::string kind;
    std::string track;
    std::int64_t start = 0;
    std::int64_t end = 0;
    bool ok = false;
};

/** Parse writeSpansLog output into per-request-id span maps. */
std::map<std::uint64_t, std::map<std::string, ParsedSpan>>
parseSpansLog(const std::string &log)
{
    std::map<std::uint64_t, std::map<std::string, ParsedSpan>> trees;
    std::istringstream is(log);
    std::string tag;
    EXPECT_TRUE(std::getline(is, tag));
    EXPECT_EQ(tag, "fpc-spans-v1");
    std::string line;
    while (std::getline(is, line)) {
        std::istringstream ls(line);
        ls >> tag;
        if (tag != "span")
            continue;
        std::uint64_t id = 0;
        std::string tenant, okText;
        ParsedSpan s;
        ls >> id >> s.traceId >> s.reqId >> s.kind >> s.track >>
            tenant >> s.start >> s.end >> okText;
        EXPECT_FALSE(ls.fail()) << line;
        s.ok = okText == "ok";
        trees[id].emplace(s.kind, s);
    }
    return trees;
}

TEST(Server, SpanTreesBracketEveryRequest)
{
    serve::ServerConfig sc;
    sc.workers = 2;
    sc.spans = true;
    serve::Server server(sc);
    server.start();
    serve::Client client = connectTo(server);

    std::map<std::uint64_t, unsigned> sentTrace; // traceId -> reqId
    std::map<unsigned, std::uint64_t> spanIds;   // reqId -> spanId
    for (unsigned i = 1; i <= 3; ++i) {
        serve::Request req;
        req.op = serve::ReqOp::Submit;
        req.submit.reqId = i;
        req.submit.traceId = 0xabc000 + i;
        req.submit.source = kFibSource;
        req.submit.args = {8};
        sentTrace[req.submit.traceId] = i;
        ASSERT_TRUE(client.send(req));
        serve::Reply reply;
        ASSERT_TRUE(client.recv(reply));
        ASSERT_EQ(reply.status, serve::Status::Ok);
        EXPECT_TRUE(reply.jobOk) << reply.error;
        // The reply carries the attribution breakdown and the span id
        // that names this request's tree in the exported log.
        EXPECT_NE(reply.spanId, 0u);
        EXPECT_GT(reply.execNs, 0u);
        spanIds[i] = reply.spanId;
    }
    server.stop();
    EXPECT_TRUE(server.spanFaults().empty());

    std::ostringstream os;
    server.writeSpansLog(os);
    const auto trees = parseSpansLog(os.str());
    ASSERT_EQ(trees.size(), 3u);
    for (const auto &[id, spans] : trees) {
        // Every admitted ok request carries the full five-phase tree,
        // and execute its prepare and run steps.
        ASSERT_EQ(spans.size(), 8u);
        ASSERT_EQ(spans.count("request"), 1u);
        const ParsedSpan &req = spans.at("request");
        EXPECT_TRUE(req.ok);
        // The span id echoed on the wire names this tree, and the
        // client-supplied traceId made the round trip.
        ASSERT_EQ(sentTrace.count(req.traceId), 1u);
        EXPECT_EQ(spanIds[sentTrace[req.traceId]], id);
        EXPECT_EQ(req.reqId, sentTrace[req.traceId]);
        std::int64_t phaseSum = 0;
        for (const char *kind :
             {"admission", "queued", "dispatch", "execute", "reply"}) {
            ASSERT_EQ(spans.count(kind), 1u) << kind;
            const ParsedSpan &p = spans.at(kind);
            EXPECT_TRUE(p.ok) << kind;
            EXPECT_GE(p.start, req.start) << kind;
            EXPECT_LE(p.end, req.end) << kind;
            EXPECT_EQ(p.traceId, req.traceId) << kind;
            phaseSum += p.end - p.start;
        }
        // Adjacent phases share boundary timestamps: the breakdown
        // partitions the request span exactly (zero slack).
        EXPECT_EQ(phaseSum, req.end - req.start);
        // Execute (and dispatch, re-homed at execution start) sit on
        // a worker track; admission on the connection track.
        EXPECT_EQ(spans.at("execute").track.rfind("worker:", 0), 0u);
        EXPECT_EQ(spans.at("dispatch").track,
                  spans.at("execute").track);
        // Prepare then run tile execute, on its worker track.
        const ParsedSpan &exec = spans.at("execute");
        const ParsedSpan &prep = spans.at("prepare");
        const ParsedSpan &run = spans.at("run");
        EXPECT_EQ(prep.start, exec.start);
        EXPECT_EQ(prep.end, run.start);
        EXPECT_EQ(run.end, exec.end);
        EXPECT_EQ(prep.track, exec.track);
        EXPECT_EQ(run.track, exec.track);
        EXPECT_EQ(spans.at("admission").track.rfind("conn:", 0), 0u);
    }
}

TEST(Server, PipelinedRepliesOutOfOrderWithScrapeInFlight)
{
    serve::ServerConfig sc;
    sc.workers = 2;
    sc.spans = true;
    serve::Server server(sc);
    server.start();
    serve::Client client = connectTo(server);
    serve::Client watcher = connectTo(server);

    // One deliberately slow job first, then a burst of quick ones:
    // with two workers the quick jobs overtake it, so replies come
    // back out of submission order and must be matched by reqId. A
    // SCRAPE rides the same pipelined connection mid-flight.
    std::map<unsigned, Word> want;
    serve::Request req = submitOf(1, kSpinSource, 10000);
    req.submit.traceId = 1;
    want[1] = 10000;
    ASSERT_TRUE(client.send(req));
    // The quick jobs go out only once the slow one holds a slot, so
    // they cannot be picked ahead of it; the slow job runs long
    // enough (tens of ms) that the watcher cannot miss it.
    ASSERT_TRUE(waitForInFlight(watcher, 1));
    req.submit.source = kFibSource;
    for (unsigned i = 2; i <= 8; ++i) {
        req.submit.reqId = i;
        req.submit.traceId = i;
        req.submit.args = {3};
        want[i] = 2;
        ASSERT_TRUE(client.send(req));
    }
    serve::Request scrapeReq;
    scrapeReq.op = serve::ReqOp::Scrape;
    ASSERT_TRUE(client.send(scrapeReq));

    std::vector<unsigned> order;
    std::set<std::uint64_t> spanIds;
    std::string scrapeText;
    for (int i = 0; i < 9; ++i) {
        serve::Reply reply;
        ASSERT_TRUE(client.recv(reply));
        if (reply.status == serve::Status::ScrapeText) {
            scrapeText = reply.text;
            continue;
        }
        ASSERT_EQ(reply.status, serve::Status::Ok);
        ASSERT_EQ(want.count(reply.reqId), 1u);
        EXPECT_EQ(reply.value, want[reply.reqId]);
        EXPECT_NE(reply.spanId, 0u);
        spanIds.insert(reply.spanId);
        order.push_back(reply.reqId);
    }
    ASSERT_EQ(order.size(), 8u);
    EXPECT_EQ(spanIds.size(), 8u); // span ids are per-request
    // The scrape answered mid-flight with a complete exposition.
    ASSERT_FALSE(scrapeText.empty());
    EXPECT_NE(scrapeText.find("# EOF\n"), std::string::npos);
    // The slow first submission must not have answered first.
    EXPECT_NE(order.front(), 1u);
    server.stop();
    EXPECT_TRUE(server.spanFaults().empty());
}

TEST(Server, ScrapeExposesAttributionHistogramsAndSlo)
{
    serve::ServerConfig sc;
    sc.workers = 1;
    sc.spans = true;
    // gold's SLO is generous (every request lands under 10 s);
    // strict's is impossible, so its requests all count bad.
    sc.tenants["gold"] = {3.0, 64, 0, 10000.0};
    sc.tenants["strict"] = {1.0, 64, 0, 0.000001};
    serve::Server server(sc);
    server.start();
    serve::Client client = connectTo(server);

    serve::Reply reply;
    for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(
            client.submitSource("gold", kFibSource, {8}, reply));
        ASSERT_EQ(reply.status, serve::Status::Ok);
    }
    ASSERT_TRUE(
        client.submitSource("strict", kFibSource, {8}, reply));
    ASSERT_EQ(reply.status, serve::Status::Ok);

    std::string text;
    ASSERT_TRUE(client.scrape(text));
    // Latency attribution histograms + percentile gauges, per phase.
    for (const char *phase : {"queue_wait", "execute", "reply"}) {
        const std::string base = std::string("fpc_serve_tenant_") +
                                 phase + "_ms";
        EXPECT_NE(text.find(base + "_bucket{tenant=\"gold\",le=\""),
                  std::string::npos)
            << base;
        EXPECT_NE(text.find(base + "_count{tenant=\"gold\"}"),
                  std::string::npos)
            << base;
        EXPECT_NE(text.find(std::string("fpc_serve_tenant_") + phase +
                            "_p99_ms{tenant=\"gold\"}"),
                  std::string::npos)
            << phase;
    }
    // SLO tracking: target, good/bad counters, burn rate.
    EXPECT_NE(text.find("fpc_serve_slo_target_ms{tenant=\"gold\"} "
                        "10000"),
              std::string::npos);
    EXPECT_NE(text.find("fpc_serve_slo_good_total{tenant=\"gold\"} 3"),
              std::string::npos);
    EXPECT_NE(
        text.find("fpc_serve_slo_bad_total{tenant=\"strict\"} 1"),
        std::string::npos);
    EXPECT_NE(text.find("fpc_serve_slo_burn_rate{tenant=\"strict\"}"),
              std::string::npos);
    // Span accounting rides the same scrape when spans are on.
    EXPECT_NE(text.find("fpc_serve_spans_recorded_total"),
              std::string::npos);
    server.stop();
}

// ---------------------------------------------------------------------
// Live probe management (PROBE op).
// ---------------------------------------------------------------------

TEST(Protocol, ProbeRequestsAndRepliesRoundTrip)
{
    serve::Request req;
    req.op = serve::ReqOp::Probe;
    req.probe.reqId = 17;
    req.probe.action = serve::ProbeAction::Attach;
    req.probe.spec = "entry:Fib.fib -> quantize(cycles)";
    req.probe.id = 3;

    serve::Request out;
    std::string err;
    ASSERT_TRUE(
        serve::decodeRequest(serve::encodeRequest(req), out, err))
        << err;
    EXPECT_EQ(out.op, serve::ReqOp::Probe);
    EXPECT_EQ(out.probe.reqId, 17u);
    EXPECT_EQ(out.probe.action, serve::ProbeAction::Attach);
    EXPECT_EQ(out.probe.spec, req.probe.spec);
    EXPECT_EQ(out.probe.id, 3u);

    serve::Reply reply;
    reply.reqId = 17;
    reply.status = serve::Status::ProbeText;
    reply.probeId = 5;
    reply.text = "{\"schema\": \"fpc-probes-v1\"}";
    serve::Reply replyOut;
    ASSERT_TRUE(
        serve::decodeReply(serve::encodeReply(reply), replyOut, err))
        << err;
    EXPECT_EQ(replyOut.status, serve::Status::ProbeText);
    EXPECT_EQ(replyOut.probeId, 5u);
    EXPECT_EQ(replyOut.text, reply.text);

    // An out-of-range action is a decode error, not a crash.
    req.probe.action = static_cast<serve::ProbeAction>(9);
    EXPECT_FALSE(
        serve::decodeRequest(serve::encodeRequest(req), out, err));
    EXPECT_FALSE(err.empty());
}

TEST(Server, ProbeAttachReadDetachRoundTripsLive)
{
    serve::ServerConfig sc;
    sc.workers = 2;
    serve::Server server(sc);
    server.start();
    serve::Client client = connectTo(server);

    // Attach while serving; jobs dispatched afterwards are probed.
    serve::Reply reply;
    ASSERT_TRUE(
        client.probeAttach("entry:Fib.fib -> quantize(cycles)",
                           reply));
    ASSERT_EQ(reply.status, serve::Status::ProbeText) << reply.error;
    const std::uint32_t id = reply.probeId;
    EXPECT_EQ(server.probes().attachedCount(), 1u);

    // Attach is idempotent on the canonical spelling.
    ASSERT_TRUE(
        client.probeAttach("entry:Fib.fib->quantize( cycles )",
                           reply));
    ASSERT_EQ(reply.status, serve::Status::ProbeText) << reply.error;
    EXPECT_EQ(reply.probeId, id);
    EXPECT_EQ(server.probes().attachedCount(), 1u);

    // A malformed spec diagnoses without touching the registry or the
    // connection.
    ASSERT_TRUE(client.probeAttach("entry:{{{", reply));
    EXPECT_EQ(reply.status, serve::Status::BadRequest);
    EXPECT_FALSE(reply.error.empty());
    EXPECT_EQ(server.probes().attachedCount(), 1u);

    // Jobs keep completing with the probe attached, and their events
    // fold into the registry: fib(10) makes 177 fib() calls.
    ASSERT_TRUE(client.submitSource("", kFibSource, {10}, reply));
    ASSERT_EQ(reply.status, serve::Status::Ok);
    EXPECT_TRUE(reply.jobOk) << reply.error;
    EXPECT_EQ(reply.value, 55u);

    std::string text;
    ASSERT_TRUE(client.probeRead(text));
    EXPECT_NE(text.find("\"schema\": \"fpc-probes-v1\""),
              std::string::npos);
    EXPECT_NE(text.find("\"driver\": \"fpcserve\""),
              std::string::npos);
    EXPECT_NE(text.find("\"hits\": 177"), std::string::npos) << text;

    // The scrape mirrors the aggregations as fpc_probe_* gauges.
    ASSERT_TRUE(client.scrape(text));
    EXPECT_NE(text.find("fpc_probe_attached 1"), std::string::npos);
    EXPECT_NE(text.find("fpc_probe_hits{id=\"" + std::to_string(id) +
                        "\",spec=\""),
              std::string::npos);
    EXPECT_NE(text.find("fpc_probe_quantize_bucket{id=\"" +
                        std::to_string(id) + "\",pow=\""),
              std::string::npos);

    // Detach; the next job runs unprobed and the gauges go away.
    ASSERT_TRUE(client.probeDetach(id, reply));
    EXPECT_EQ(reply.status, serve::Status::ProbeText) << reply.error;
    EXPECT_EQ(server.probes().attachedCount(), 0u);
    ASSERT_TRUE(client.probeDetach(id, reply));
    EXPECT_EQ(reply.status, serve::Status::BadRequest);

    ASSERT_TRUE(client.submitSource("", kFibSource, {10}, reply));
    ASSERT_EQ(reply.status, serve::Status::Ok);
    EXPECT_EQ(reply.value, 55u);
    ASSERT_TRUE(client.scrape(text));
    EXPECT_NE(text.find("fpc_probe_attached 0"), std::string::npos);
    EXPECT_EQ(text.find("fpc_probe_hits{"), std::string::npos);

    server.stop();
    EXPECT_EQ(server.jobsCompleted(), 2u);
}

TEST(Server, StartupProbeSpecsAttachBeforeServing)
{
    serve::ServerConfig sc;
    sc.workers = 1;
    sc.probeSpecs = {"entry:Fib.fib -> sum(cycles)"};
    serve::Server server(sc);
    server.start();
    EXPECT_EQ(server.probes().attachedCount(), 1u);

    serve::Client client = connectTo(server);
    serve::Reply reply;
    ASSERT_TRUE(client.submitSource("", kFibSource, {8}, reply));
    ASSERT_EQ(reply.status, serve::Status::Ok);
    EXPECT_TRUE(reply.jobOk) << reply.error;

    std::string text;
    ASSERT_TRUE(client.probeRead(text));
    // fib(8) makes 67 fib() calls.
    EXPECT_NE(text.find("\"hits\": 67"), std::string::npos) << text;
    server.stop();
}

} // namespace
} // namespace fpc
