/**
 * @file
 * Request-scoped span tracing for the serving stack.
 *
 * A span is one bracketed interval of host (wall-clock) time in the
 * life of a request: the enclosing `request` span plus the phases
 * `admission`, `queued`, `dispatch`, `execute` and `reply`, and
 * inside `execute` its two steps `prepare` (store reset, image load,
 * Machine build) and `run`. The server brackets the serve-side
 * phases, sched::Runtime brackets `execute` and its steps (and closes
 * `dispatch`/`queued` at execution start, re-homing the span to the
 * worker that actually runs the job — under work stealing that is the
 * *stealing* worker's track, deterministically: a span always lands
 * on the track of JobResult::worker).
 *
 * Spans follow StkTokens-style well-bracketing discipline: every
 * begin() must be matched by exactly one end(); for every request at
 * most one phase, and inside `execute` at most one step, is open at a
 * time; a completed request's phases partition [request.start,
 * request.end] exactly, and a completed ok `execute`'s steps partition
 * it — adjacent spans share a boundary timestamp, so durations sum to
 * the parent's with zero slack. checkSpans() verifies this and
 * writeSpanPostmortem() turns violations into a PR 4 style
 * fpc-postmortem-v1 bundle (kind "span-bracketing").
 *
 * Spans are host-time observability only: the collector never touches
 * the Machine, so simulated stats/metrics stay byte-identical with
 * spans on or off and span collection adds zero simulated cycles.
 *
 * Storage is a drop-oldest ring like the XFER Tracer; export formats
 * are a line-oriented `fpc-spans-v1` log (writeSpansLog) and Chrome
 * trace-event / Perfetto JSON (writeSpansPerfetto) with one track per
 * connection, tenant, and worker. The Perfetto export can embed the
 * per-worker XFER tracks (pid 0, simulated cycles) alongside the
 * serve tracks (pid 1, wall microseconds) so a request's `execute`
 * span can be eyeballed against the XFERs of the worker it names.
 */

#ifndef FPC_OBS_SPANS_HH
#define FPC_OBS_SPANS_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hh"
#include "obs/trace.hh"

namespace fpc::obs
{

/** Span kinds, in canonical order: Request is the parent, Admission
 *  through Reply its phases, Prepare and Run the steps of Execute. */
enum class SpanKind : std::uint8_t
{
    Request,
    Admission,
    Queued,
    Dispatch,
    Execute,
    Reply,
    Prepare,
    Run,
};

const char *spanKindName(SpanKind kind);

/** True for the steps that partition an Execute phase. */
inline bool
isExecuteStep(SpanKind kind)
{
    return kind == SpanKind::Prepare || kind == SpanKind::Run;
}

/** Which kind of Perfetto track a span is drawn on. */
enum class SpanTrack : std::uint8_t
{
    Connection,
    Tenant,
    Worker,
};

const char *spanTrackName(SpanTrack kind);

/** "No tenant" sentinel for Span::tenant / SpanRef::tenant. */
constexpr std::uint32_t noTenant = ~0u;

/**
 * Propagation context threaded alongside a job: the server stamps it
 * on sched::Job so the runtime's execute bracketing joins the same
 * span tree the serve side started.
 */
struct SpanRef
{
    std::uint64_t requestId = 0; ///< collector span id; 0 = none
    std::uint64_t traceId = 0;   ///< client-supplied correlation id
    std::uint32_t tenant = noTenant; ///< interned tenant index
};

/** One completed span. Timestamps are raw steady-clock nanoseconds
 *  (same epoch as SpanCollector::nowNs()). */
struct Span
{
    std::uint64_t id = 0;      ///< request id (shared by the tree)
    std::uint64_t traceId = 0; ///< client-supplied correlation id
    std::uint32_t reqId = 0;   ///< wire-protocol request id
    SpanKind kind = SpanKind::Request;
    SpanTrack trackKind = SpanTrack::Worker;
    std::uint32_t track = 0;   ///< index within the track kind
    std::uint32_t tenant = noTenant;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    bool ok = true;
};

/** One bracketing-discipline violation. */
struct SpanFault
{
    std::uint64_t id = 0;
    SpanKind kind = SpanKind::Request;
    std::string what;
};

/**
 * Thread-safe span sink: begin()/end() record into per-request open
 * state; completed spans land in a drop-oldest ring. Discipline
 * violations (double begin, end without begin) are recorded as faults
 * rather than crashing the server.
 */
class SpanCollector
{
  public:
    static constexpr std::size_t defaultCapacity = 1u << 16;
    /** Faults retained verbatim; later ones only count. */
    static constexpr std::size_t maxRetainedFaults = 64;

    explicit SpanCollector(std::size_t capacity = defaultCapacity);

    /** Steady-clock now, in nanoseconds since the clock's epoch —
     *  comparable across threads and with
     *  std::chrono::steady_clock::time_point::time_since_epoch(). */
    static std::int64_t nowNs();

    /** nowNs() at construction; exports emit start/end relative to
     *  this so logs start near zero. */
    std::int64_t epochNs() const { return epochNs_; }

    /** Intern a tenant name; returns its stable index (also used as
     *  the Tenant track index). */
    std::uint32_t internTenant(const std::string &name);
    std::vector<std::string> tenantNames() const;

    /** Open a span. For phases the protocol is: at most one phase of
     *  a request open at any time, and a step only inside an open
     *  Execute, one at a time (checked; violations fault). */
    void begin(SpanKind kind, std::uint64_t id, SpanTrack trackKind,
               std::uint32_t track, std::uint32_t tenant,
               std::int64_t startNs, std::uint64_t traceId = 0,
               std::uint32_t reqId = 0);

    /** Close a span opened with begin(); faults if no span of this
     *  kind is open for id. */
    void end(SpanKind kind, std::uint64_t id, std::int64_t endNs,
             bool ok = true);
    /** Close and re-home: the span is recorded on (trackKind, track)
     *  instead of the track it was begun on — how an `execute` span
     *  (and the `dispatch` it closes) lands on the stealing worker's
     *  track. */
    void end(SpanKind kind, std::uint64_t id, std::int64_t endNs,
             bool ok, SpanTrack trackKind, std::uint32_t track);

    /** Close whichever phase (non-Request) span is open for id, if
     *  any, and first the step open inside it; returns false
     *  (silently — callers use this on paths where the open phase's
     *  kind is unknowable) when none is open. */
    bool endPhase(std::uint64_t id, std::int64_t endNs, bool ok = true);
    bool endPhase(std::uint64_t id, std::int64_t endNs, bool ok,
                  SpanTrack trackKind, std::uint32_t track);

    /** Close the request span for id if one is open; silent no-op
     *  otherwise (abort paths where progress is unknowable). */
    bool endRequestIfOpen(std::uint64_t id, std::int64_t endNs, bool ok,
                          SpanTrack trackKind, std::uint32_t track);

    /** Oldest-first snapshot of the retained completed spans. */
    std::vector<Span> spans() const;
    /** Retained discipline faults (first maxRetainedFaults). */
    std::vector<SpanFault> faults() const;
    CountT faultCount() const;
    /** Completed spans recorded since construction. */
    CountT recorded() const;
    /** Completed spans discarded by the drop-oldest ring. */
    CountT dropped() const;
    /** Requests with an open request or phase span. */
    std::size_t openCount() const;

    std::size_t capacity() const { return capacity_; }

    void clear();

  private:
    struct OpenState
    {
        bool haveRequest = false;
        bool havePhase = false;
        bool haveStep = false;
        Span request;
        Span phase;
        Span step;
    };

    /** The open span a kind names. */
    static Span &slot(OpenState &st, SpanKind kind);
    static bool &flag(OpenState &st, SpanKind kind);

    /** Record the open span of kind and mark it closed. */
    void closeLocked(OpenState &st, SpanKind kind, std::int64_t endNs,
                     bool ok);
    void recordLocked(const Span &span);
    void faultLocked(std::uint64_t id, SpanKind kind, std::string what);

    mutable std::mutex mutex_;
    std::size_t capacity_;
    std::vector<Span> ring_;
    std::size_t head_ = 0; ///< oldest slot once the ring is full
    CountT recorded_ = 0;
    CountT dropped_ = 0;
    std::int64_t epochNs_ = 0;
    std::map<std::uint64_t, OpenState> open_;
    std::vector<SpanFault> faults_;
    CountT faultCount_ = 0;
    std::vector<std::string> tenants_;
    std::map<std::string, std::uint32_t> tenantIndex_;
};

/**
 * Verify well-bracketing over the collector's completed spans (plus
 * any still-open spans, which are themselves faults):
 *  - every retained phase lies within its request's bounds, phases
 *    are mutually non-overlapping and in canonical order;
 *  - when the ring has dropped nothing, an ok request that was
 *    admitted (has an Admission phase) carries all five phases and
 *    they partition [start, end] exactly: adjacent phases share their
 *    boundary timestamp, so durations sum to the request duration
 *    with slackNs tolerance (0 by default — the bracketing uses
 *    shared timestamps, not re-read clocks);
 *  - steps lie within their Execute phase, in order, and an ok
 *    Execute that has steps has exactly Prepare then Run,
 *    partitioning it the same way (sched::Runtime always writes
 *    both; a hand-built tree may have none).
 * Completeness checks are skipped when dropped() > 0 (truncation is
 * legal, torn trees from it are not faults). Returns the combined
 * fault list: collector-recorded discipline faults first, then
 * checker findings.
 */
std::vector<SpanFault> checkSpans(const SpanCollector &spans,
                                  std::int64_t slackNs = 0);

/**
 * Write an fpc-postmortem-v1 bundle (kind "span-bracketing") naming
 * each fault and the retained spans of the offending requests, to
 * `<dir>/<prefix>spans-postmortem.json`. Returns false (with a
 * logged error) if the directory or file cannot be written.
 */
bool writeSpanPostmortem(const std::string &dir,
                         const std::string &prefix,
                         const std::string &driver,
                         const std::vector<SpanFault> &faults,
                         const SpanCollector &spans);

/**
 * Line-oriented fpc-spans-v1 log:
 *
 *   fpc-spans-v1
 *   driver <name>
 *   capacity <n>
 *   recorded <n>
 *   dropped <n>
 *   tenant <idx> <name>          (one per interned tenant)
 *   span <id> <traceId> <reqId> <kind> <track-kind>:<track> \
 *        <tenant-idx|-> <startNs> <endNs> <ok|err>
 *   faults <n>
 *   fault <id> <kind> <message>  (retained faults)
 *   eof
 *
 * Timestamps are nanoseconds relative to the collector's epoch.
 */
void writeSpansLog(std::ostream &os, const std::string &driver,
                   const SpanCollector &spans);

/**
 * Chrome trace-event / Perfetto JSON. Serve spans are "X" slices on
 * pid 1 ("serve, wall time"), written in start order with a parent
 * before the children that share its start, so `prepare` and `run`
 * nest under `execute`: worker tracks at tid = track, tenant
 * tracks at tid = 1000 + index, connection tracks at tid = 2000 +
 * index (wall ns exported as microseconds). When xferTracks is
 * nonempty the per-worker XFER tracks are embedded as pid 0
 * ("machine, simulated cycles") with their usual 1-cycle = 1-us
 * timebase; the two pids share a document but not a clock — the link
 * between them is the worker index in the track names.
 */
void writeSpansPerfetto(std::ostream &os, const SpanCollector &spans,
                        const std::vector<const Tracer *> &xferTracks =
                            {});

} // namespace fpc::obs

#endif // FPC_OBS_SPANS_HH
