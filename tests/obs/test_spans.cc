/**
 * @file
 * Tests for request-scoped span tracing (src/obs/spans): the
 * collector's bracketing discipline, drop-oldest ring, the
 * checkSpans() well-bracketing checker, the fpc-spans-v1 and Perfetto
 * exporters, and the span-bracketing postmortem bundle.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/spans.hh"

using namespace fpc;
using obs::SpanKind;
using obs::SpanTrack;

namespace
{

/** Record one complete, exactly-partitioned request tree starting at
 *  `base` ns on connection `conn`, executing on worker `worker`. */
void recordRequest(obs::SpanCollector &sc, std::uint64_t id,
                   std::uint32_t tenant, std::int64_t base,
                   std::uint32_t conn = 0, std::uint32_t worker = 0)
{
    const std::int64_t recv = base;
    const std::int64_t admitted = base + 10;
    const std::int64_t pick = base + 30;
    const std::int64_t execStart = base + 40;
    const std::int64_t execEnd = base + 90;
    const std::int64_t sent = base + 100;
    sc.begin(SpanKind::Request, id, SpanTrack::Connection, conn,
             tenant, recv, /*traceId=*/id * 7, /*reqId=*/42);
    sc.begin(SpanKind::Admission, id, SpanTrack::Connection, conn,
             tenant, recv, id * 7, 42);
    sc.end(SpanKind::Admission, id, admitted, true);
    sc.begin(SpanKind::Queued, id, SpanTrack::Tenant, tenant, tenant,
             admitted, id * 7, 42);
    sc.end(SpanKind::Queued, id, pick, true);
    sc.begin(SpanKind::Dispatch, id, SpanTrack::Worker, 0, tenant,
             pick, id * 7, 42);
    // Close-and-re-home, as the runtime does at execution start: the
    // dispatch span lands on the worker that actually runs the job.
    sc.end(SpanKind::Dispatch, id, execStart, true, SpanTrack::Worker,
           worker);
    sc.begin(SpanKind::Execute, id, SpanTrack::Worker, worker, tenant,
             execStart, id * 7, 42);
    sc.end(SpanKind::Execute, id, execEnd, true);
    sc.begin(SpanKind::Reply, id, SpanTrack::Worker, worker, tenant,
             execEnd, id * 7, 42);
    sc.end(SpanKind::Reply, id, sent, true);
    sc.end(SpanKind::Request, id, sent, true);
}

} // namespace

TEST(Spans, CompleteRequestTreeIsWellBracketed)
{
    obs::SpanCollector sc;
    const std::uint32_t gold = sc.internTenant("gold");
    recordRequest(sc, 1, gold, 1000);

    EXPECT_EQ(sc.recorded(), 6u);
    EXPECT_EQ(sc.dropped(), 0u);
    EXPECT_EQ(sc.openCount(), 0u);
    EXPECT_EQ(sc.faultCount(), 0u);

    const auto spans = sc.spans();
    ASSERT_EQ(spans.size(), 6u);
    // Phases are recorded as they close, the request span last.
    EXPECT_EQ(spans.front().kind, SpanKind::Admission);
    EXPECT_EQ(spans.back().kind, SpanKind::Request);
    for (const obs::Span &s : spans) {
        EXPECT_EQ(s.id, 1u);
        EXPECT_EQ(s.traceId, 7u);
        EXPECT_EQ(s.reqId, 42u);
        EXPECT_EQ(s.tenant, gold);
        EXPECT_GE(s.endNs, s.startNs);
        EXPECT_TRUE(s.ok);
    }

    const auto faults = obs::checkSpans(sc);
    EXPECT_TRUE(faults.empty())
        << (faults.empty() ? "" : faults.front().what);
}

TEST(Spans, PhaseDurationsPartitionTheRequestExactly)
{
    obs::SpanCollector sc;
    recordRequest(sc, 3, sc.internTenant("t"), 500);
    const auto spans = sc.spans();
    std::int64_t phaseTotal = 0;
    std::int64_t requestDur = -1;
    for (const obs::Span &s : spans) {
        if (s.kind == SpanKind::Request)
            requestDur = s.endNs - s.startNs;
        else
            phaseTotal += s.endNs - s.startNs;
    }
    // Adjacent phases share boundary timestamps, so the sum is exact
    // (the documented slack is zero).
    EXPECT_EQ(phaseTotal, requestDur);
}

TEST(Spans, ReHomingEndMovesSpanToStealingWorkerTrack)
{
    obs::SpanCollector sc;
    sc.begin(SpanKind::Request, 9, SpanTrack::Connection, 2,
             obs::noTenant, 0);
    sc.begin(SpanKind::Dispatch, 9, SpanTrack::Worker, 0,
             obs::noTenant, 0);
    // The job was picked for worker 0's deque but stolen by worker 3.
    sc.endPhase(9, 25, true, SpanTrack::Worker, 3);
    sc.begin(SpanKind::Execute, 9, SpanTrack::Worker, 3, obs::noTenant,
             25);
    sc.end(SpanKind::Execute, 9, 50, true);
    sc.end(SpanKind::Request, 9, 50, true);

    const auto spans = sc.spans();
    ASSERT_EQ(spans.size(), 3u);
    for (const obs::Span &s : spans) {
        if (s.kind == SpanKind::Dispatch || s.kind == SpanKind::Execute) {
            EXPECT_EQ(s.trackKind, SpanTrack::Worker);
            EXPECT_EQ(s.track, 3u) << spanKindName(s.kind);
        }
    }
}

TEST(Spans, EndPhaseClosesWhicheverPhaseIsOpen)
{
    obs::SpanCollector sc;
    sc.begin(SpanKind::Request, 5, SpanTrack::Connection, 0,
             obs::noTenant, 0);
    EXPECT_FALSE(sc.endPhase(5, 10)); // no phase open yet
    sc.begin(SpanKind::Queued, 5, SpanTrack::Tenant, 0, obs::noTenant,
             0);
    EXPECT_TRUE(sc.endPhase(5, 10));
    EXPECT_FALSE(sc.endPhase(5, 20)); // already closed
    EXPECT_TRUE(sc.endRequestIfOpen(5, 20, false, SpanTrack::Worker, 0));
    EXPECT_FALSE(sc.endRequestIfOpen(5, 30, false, SpanTrack::Worker, 0));
    EXPECT_EQ(sc.faultCount(), 0u);
    EXPECT_EQ(sc.openCount(), 0u);
}

TEST(Spans, RingDropsOldestBeyondCapacity)
{
    obs::SpanCollector sc(/*capacity=*/8);
    for (std::uint64_t id = 1; id <= 4; ++id)
        recordRequest(sc, id, obs::noTenant, 1000 * id);
    EXPECT_EQ(sc.recorded(), 24u);
    EXPECT_EQ(sc.dropped(), 16u);
    const auto spans = sc.spans();
    ASSERT_EQ(spans.size(), 8u);
    // Oldest-first snapshot: everything left belongs to the newest
    // trees, and order is preserved.
    for (const obs::Span &s : spans)
        EXPECT_GE(s.id, 3u);
    for (std::size_t i = 1; i < spans.size(); ++i)
        EXPECT_GE(spans[i].endNs, spans[i - 1].endNs);

    // Truncated logs skip completeness checks: torn trees from legal
    // eviction are not bracketing faults.
    const auto faults = obs::checkSpans(sc);
    EXPECT_TRUE(faults.empty())
        << (faults.empty() ? "" : faults.front().what);
}

TEST(Spans, DoubleBeginAndEndWithoutBeginFault)
{
    obs::SpanCollector sc;
    sc.begin(SpanKind::Request, 1, SpanTrack::Connection, 0,
             obs::noTenant, 0);
    sc.begin(SpanKind::Queued, 1, SpanTrack::Tenant, 0, obs::noTenant,
             0);
    // Second phase while the first is still open: discipline fault.
    sc.begin(SpanKind::Dispatch, 1, SpanTrack::Worker, 0,
             obs::noTenant, 5);
    // Ending a phase that was never begun: another fault.
    sc.end(SpanKind::Reply, 1, 10, true);
    EXPECT_GE(sc.faultCount(), 2u);
    const auto faults = sc.faults();
    ASSERT_GE(faults.size(), 2u);
    for (const obs::SpanFault &f : faults) {
        EXPECT_EQ(f.id, 1u);
        EXPECT_FALSE(f.what.empty());
    }
}

TEST(Spans, CheckerFlagsOpenSpansAndBrokenPartition)
{
    {
        obs::SpanCollector sc;
        sc.begin(SpanKind::Request, 2, SpanTrack::Connection, 0,
                 obs::noTenant, 0);
        const auto faults = obs::checkSpans(sc);
        ASSERT_FALSE(faults.empty()); // request still open at check
        EXPECT_NE(faults.front().what.find("open"),
                  std::string::npos);
    }
    {
        // A gap between execute and reply breaks the exact partition.
        obs::SpanCollector sc;
        sc.begin(SpanKind::Request, 4, SpanTrack::Connection, 0,
                 obs::noTenant, 0);
        sc.begin(SpanKind::Admission, 4, SpanTrack::Connection, 0,
                 obs::noTenant, 0);
        sc.end(SpanKind::Admission, 4, 10, true);
        sc.begin(SpanKind::Queued, 4, SpanTrack::Tenant, 0,
                 obs::noTenant, 10);
        sc.end(SpanKind::Queued, 4, 20, true);
        sc.begin(SpanKind::Dispatch, 4, SpanTrack::Worker, 0,
                 obs::noTenant, 20);
        sc.end(SpanKind::Dispatch, 4, 30, true);
        sc.begin(SpanKind::Execute, 4, SpanTrack::Worker, 0,
                 obs::noTenant, 30);
        sc.end(SpanKind::Execute, 4, 40, true);
        sc.begin(SpanKind::Reply, 4, SpanTrack::Worker, 0,
                 obs::noTenant, 60); // gap: 40..60 unaccounted
        sc.end(SpanKind::Reply, 4, 100, true);
        sc.end(SpanKind::Request, 4, 100, true);
        EXPECT_EQ(sc.faultCount(), 0u); // discipline itself was fine
        EXPECT_FALSE(obs::checkSpans(sc).empty());
        // ...and a generous slack forgives the gap.
        EXPECT_TRUE(obs::checkSpans(sc, /*slackNs=*/25).empty());
    }
}

TEST(Spans, ExecuteStepsPartitionExecute)
{
    // The runtime's shape: prepare then run, sharing the boundary,
    // inside execute; the checker accepts it.
    const auto execute = [](obs::SpanCollector &sc, std::int64_t prepEnd,
                            std::int64_t runStart) {
        sc.begin(SpanKind::Request, 1, SpanTrack::Worker, 0,
                 obs::noTenant, 0);
        sc.begin(SpanKind::Execute, 1, SpanTrack::Worker, 0,
                 obs::noTenant, 0);
        sc.begin(SpanKind::Prepare, 1, SpanTrack::Worker, 0,
                 obs::noTenant, 0);
        sc.end(SpanKind::Prepare, 1, prepEnd, true);
        sc.begin(SpanKind::Run, 1, SpanTrack::Worker, 0, obs::noTenant,
                 runStart);
        sc.end(SpanKind::Run, 1, 50, true);
        sc.end(SpanKind::Execute, 1, 50, true);
        sc.end(SpanKind::Request, 1, 50, true);
    };
    {
        obs::SpanCollector sc;
        execute(sc, 20, 20);
        EXPECT_EQ(sc.recorded(), 4u);
        EXPECT_EQ(sc.faultCount(), 0u);
        const auto faults = obs::checkSpans(sc);
        EXPECT_TRUE(faults.empty())
            << (faults.empty() ? "" : faults.front().what);
    }
    {
        // A gap between the steps breaks the partition of execute.
        obs::SpanCollector sc;
        execute(sc, 20, 30);
        EXPECT_EQ(sc.faultCount(), 0u);
        EXPECT_FALSE(obs::checkSpans(sc).empty());
        EXPECT_TRUE(obs::checkSpans(sc, /*slackNs=*/10).empty());
    }
    {
        // A step outside execute, and execute ended over an open step,
        // are discipline faults; the open step is closed, not leaked.
        obs::SpanCollector sc;
        sc.begin(SpanKind::Prepare, 2, SpanTrack::Worker, 0,
                 obs::noTenant, 0);
        sc.end(SpanKind::Prepare, 2, 5, true);
        sc.begin(SpanKind::Execute, 3, SpanTrack::Worker, 0,
                 obs::noTenant, 0);
        sc.begin(SpanKind::Run, 3, SpanTrack::Worker, 0, obs::noTenant,
                 0);
        sc.end(SpanKind::Execute, 3, 9, true);
        EXPECT_EQ(sc.faultCount(), 2u);
        EXPECT_EQ(sc.openCount(), 0u);
    }
}

TEST(Spans, SeededFaultTripsPostmortemBundle)
{
    obs::SpanCollector sc;
    recordRequest(sc, 1, sc.internTenant("gold"), 100);
    // Seed an unbalanced end: no Execute span is open for id 1.
    sc.end(SpanKind::Execute, 1, 999, true);
    const auto faults = obs::checkSpans(sc);
    ASSERT_FALSE(faults.empty());

    const std::string dir = "test_spans_postmortem.tmp";
    ASSERT_TRUE(obs::writeSpanPostmortem(dir, "unit-", "test_obs",
                                         faults, sc));
    const std::string path = dir + "/unit-spans-postmortem.json";
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::stringstream body;
    body << in.rdbuf();
    const std::string text = body.str();
    EXPECT_NE(text.find("fpc-postmortem-v1"), std::string::npos);
    EXPECT_NE(text.find("span-bracketing"), std::string::npos);
    EXPECT_NE(text.find("execute"), std::string::npos);
    in.close();
    std::remove(path.c_str());
    std::remove(dir.c_str());
}

TEST(Spans, SpansLogRoundTripsTheCollectorState)
{
    obs::SpanCollector sc;
    const std::uint32_t gold = sc.internTenant("gold");
    sc.internTenant("silver");
    recordRequest(sc, 1, gold, 100);
    recordRequest(sc, 2, obs::noTenant, 300);

    std::ostringstream os;
    obs::writeSpansLog(os, "test_obs", sc);
    const std::string log = os.str();

    std::istringstream is(log);
    std::string line;
    std::getline(is, line);
    EXPECT_EQ(line, "fpc-spans-v1");
    std::size_t spanLines = 0, tenantLines = 0;
    bool sawEof = false;
    while (std::getline(is, line)) {
        if (line.rfind("span ", 0) == 0) {
            ++spanLines;
            // 10 whitespace-separated fields per record.
            std::istringstream fields(line);
            std::string f;
            int n = 0;
            while (fields >> f)
                ++n;
            EXPECT_EQ(n, 10) << line;
        } else if (line.rfind("tenant ", 0) == 0) {
            ++tenantLines;
        } else if (line == "eof") {
            sawEof = true;
        }
    }
    EXPECT_EQ(spanLines, 12u);
    EXPECT_EQ(tenantLines, 2u);
    EXPECT_TRUE(sawEof);
    EXPECT_NE(log.find("driver test_obs"), std::string::npos);
    EXPECT_NE(log.find("recorded 12"), std::string::npos);
    EXPECT_NE(log.find("dropped 0"), std::string::npos);
    EXPECT_NE(log.find("faults 0"), std::string::npos);
    EXPECT_NE(log.find("tenant 0 gold"), std::string::npos);
    // The no-tenant request exports its tenant column as '-'.
    EXPECT_NE(log.find(" - "), std::string::npos);
}

TEST(Spans, PerfettoExportEmitsSlicesPerTrack)
{
    obs::SpanCollector sc;
    recordRequest(sc, 1, sc.internTenant("gold"), 100, /*conn=*/0,
                  /*worker=*/1);
    std::ostringstream os;
    obs::writeSpansPerfetto(os, sc);
    const std::string doc = os.str();
    EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(doc.find("\"ph\": \"X\""), std::string::npos);
    // Serve spans live on pid 1; worker/tenant/connection tracks.
    EXPECT_NE(doc.find("\"pid\": 1"), std::string::npos);
    EXPECT_EQ(doc.find("\"pid\": 0"), std::string::npos)
        << "no XFER tracks were passed, pid 0 must be absent";
    // Request + admission on the connection track (tid 2000+),
    // queued on the tenant track (tid 1000+).
    EXPECT_NE(doc.find("\"tid\": 2000"), std::string::npos);
    EXPECT_NE(doc.find("\"tid\": 1000"), std::string::npos);
    EXPECT_NE(doc.find("\"tid\": 1,"), std::string::npos);
}

TEST(Spans, ClearResetsEverythingButTenants)
{
    obs::SpanCollector sc;
    sc.internTenant("gold");
    recordRequest(sc, 1, 0, 100);
    sc.end(SpanKind::Reply, 1, 5, true); // seed a fault
    ASSERT_GT(sc.recorded(), 0u);
    ASSERT_GT(sc.faultCount(), 0u);
    sc.clear();
    EXPECT_EQ(sc.recorded(), 0u);
    EXPECT_EQ(sc.dropped(), 0u);
    EXPECT_EQ(sc.faultCount(), 0u);
    EXPECT_EQ(sc.openCount(), 0u);
    EXPECT_TRUE(sc.spans().empty());
    EXPECT_TRUE(sc.faults().empty());
    // Interned tenant indices stay stable across clear().
    EXPECT_EQ(sc.internTenant("gold"), 0u);
}
