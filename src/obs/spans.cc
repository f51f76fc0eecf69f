#include "obs/spans.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>

#include "common/logging.hh"
#include "obs/json.hh"

namespace fpc::obs
{

const char *
spanKindName(SpanKind kind)
{
    switch (kind) {
    case SpanKind::Request:
        return "request";
    case SpanKind::Admission:
        return "admission";
    case SpanKind::Queued:
        return "queued";
    case SpanKind::Dispatch:
        return "dispatch";
    case SpanKind::Execute:
        return "execute";
    case SpanKind::Reply:
        return "reply";
    case SpanKind::Prepare:
        return "prepare";
    case SpanKind::Run:
        return "run";
    }
    return "?";
}

const char *
spanTrackName(SpanTrack kind)
{
    switch (kind) {
    case SpanTrack::Connection:
        return "conn";
    case SpanTrack::Tenant:
        return "tenant";
    case SpanTrack::Worker:
        return "worker";
    }
    return "?";
}

SpanCollector::SpanCollector(std::size_t capacity) : capacity_(capacity)
{
    if (capacity_ == 0)
        panic("SpanCollector: capacity must be nonzero");
    ring_.reserve(std::min<std::size_t>(capacity_, 4096));
    epochNs_ = nowNs();
}

std::int64_t
SpanCollector::nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::uint32_t
SpanCollector::internTenant(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = tenantIndex_.find(name);
    if (it != tenantIndex_.end())
        return it->second;
    const auto idx = static_cast<std::uint32_t>(tenants_.size());
    tenants_.push_back(name);
    tenantIndex_.emplace(name, idx);
    return idx;
}

std::vector<std::string>
SpanCollector::tenantNames() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return tenants_;
}

Span &
SpanCollector::slot(OpenState &st, SpanKind kind)
{
    if (kind == SpanKind::Request)
        return st.request;
    return isExecuteStep(kind) ? st.step : st.phase;
}

bool &
SpanCollector::flag(OpenState &st, SpanKind kind)
{
    if (kind == SpanKind::Request)
        return st.haveRequest;
    return isExecuteStep(kind) ? st.haveStep : st.havePhase;
}

void
SpanCollector::begin(SpanKind kind, std::uint64_t id,
                     SpanTrack trackKind, std::uint32_t track,
                     std::uint32_t tenant, std::int64_t startNs,
                     std::uint64_t traceId, std::uint32_t reqId)
{
    Span span;
    span.id = id;
    span.traceId = traceId;
    span.reqId = reqId;
    span.kind = kind;
    span.trackKind = trackKind;
    span.track = track;
    span.tenant = tenant;
    span.startNs = startNs;

    std::lock_guard<std::mutex> lock(mutex_);
    OpenState &st = open_[id];
    if (flag(st, kind))
        faultLocked(id, kind,
                    strfmt("begin of {} while {} is still open",
                           spanKindName(kind),
                           spanKindName(slot(st, kind).kind)));
    if (isExecuteStep(kind) &&
        !(st.havePhase && st.phase.kind == SpanKind::Execute))
        faultLocked(id, kind,
                    strfmt("begin of {} outside execute",
                           spanKindName(kind)));
    flag(st, kind) = true;
    slot(st, kind) = span;
}

void
SpanCollector::end(SpanKind kind, std::uint64_t id, std::int64_t endNs,
                   bool ok)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = open_.find(id);
    if (it == open_.end() || !flag(it->second, kind) ||
        slot(it->second, kind).kind != kind) {
        faultLocked(id, kind,
                    strfmt("end of {} without matching begin",
                           spanKindName(kind)));
        return;
    }
    OpenState &st = it->second;
    if (kind == SpanKind::Execute && st.haveStep) {
        faultLocked(id, kind,
                    strfmt("end of execute while {} is still open",
                           spanKindName(st.step.kind)));
        closeLocked(st, st.step.kind, endNs, false);
    }
    closeLocked(st, kind, endNs, ok);
    if (!st.haveRequest && !st.havePhase && !st.haveStep)
        open_.erase(it);
}

void
SpanCollector::closeLocked(OpenState &st, SpanKind kind,
                           std::int64_t endNs, bool ok)
{
    Span &span = slot(st, kind);
    span.endNs = endNs;
    span.ok = ok;
    recordLocked(span);
    flag(st, kind) = false;
}

void
SpanCollector::end(SpanKind kind, std::uint64_t id, std::int64_t endNs,
                   bool ok, SpanTrack trackKind, std::uint32_t track)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = open_.find(id);
        if (it != open_.end()) {
            Span &span = slot(it->second, kind);
            span.trackKind = trackKind;
            span.track = track;
        }
    }
    end(kind, id, endNs, ok);
}

bool
SpanCollector::endPhase(std::uint64_t id, std::int64_t endNs, bool ok)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = open_.find(id);
    if (it == open_.end() || !it->second.havePhase)
        return false;
    OpenState &st = it->second;
    if (st.haveStep)
        closeLocked(st, st.step.kind, endNs, ok);
    closeLocked(st, st.phase.kind, endNs, ok);
    if (!st.haveRequest)
        open_.erase(it);
    return true;
}

bool
SpanCollector::endPhase(std::uint64_t id, std::int64_t endNs, bool ok,
                        SpanTrack trackKind, std::uint32_t track)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = open_.find(id);
        if (it == open_.end() || !it->second.havePhase)
            return false;
        it->second.phase.trackKind = trackKind;
        it->second.phase.track = track;
        it->second.step.trackKind = trackKind;
        it->second.step.track = track;
    }
    return endPhase(id, endNs, ok);
}

bool
SpanCollector::endRequestIfOpen(std::uint64_t id, std::int64_t endNs,
                                bool ok, SpanTrack trackKind,
                                std::uint32_t track)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = open_.find(id);
        if (it == open_.end() || !it->second.haveRequest)
            return false;
        it->second.request.trackKind = trackKind;
        it->second.request.track = track;
    }
    end(SpanKind::Request, id, endNs, ok);
    return true;
}

std::vector<Span>
SpanCollector::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Span> out;
    out.reserve(ring_.size());
    for (std::size_t i = 0; i < ring_.size(); ++i)
        out.push_back(ring_[(head_ + i) % ring_.size()]);
    return out;
}

std::vector<SpanFault>
SpanCollector::faults() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return faults_;
}

CountT
SpanCollector::faultCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return faultCount_;
}

CountT
SpanCollector::recorded() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return recorded_;
}

CountT
SpanCollector::dropped() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return dropped_;
}

std::size_t
SpanCollector::openCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return open_.size();
}

void
SpanCollector::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    ring_.clear();
    head_ = 0;
    recorded_ = 0;
    dropped_ = 0;
    open_.clear();
    faults_.clear();
    faultCount_ = 0;
    // Tenant interning survives: indices in SpanRefs stay valid.
}

void
SpanCollector::recordLocked(const Span &span)
{
    if (ring_.size() < capacity_) {
        ring_.push_back(span);
    } else {
        ring_[head_] = span;
        head_ = (head_ + 1) % capacity_;
        ++dropped_;
    }
    ++recorded_;
}

void
SpanCollector::faultLocked(std::uint64_t id, SpanKind kind,
                           std::string what)
{
    if (faults_.size() < maxRetainedFaults)
        faults_.push_back(SpanFault{id, kind, std::move(what)});
    ++faultCount_;
}

// ---------------------------------------------------------------------
// Bracketing checker
// ---------------------------------------------------------------------

std::vector<SpanFault>
checkSpans(const SpanCollector &spans, std::int64_t slackNs)
{
    std::vector<SpanFault> out = spans.faults();
    const bool truncated = spans.dropped() > 0;

    // Open spans at check time are unbalanced by definition: the
    // checker runs after drain, when every request has completed.
    if (spans.openCount() > 0)
        out.push_back(SpanFault{
            0, SpanKind::Request,
            strfmt("{} request(s) still have open spans at check",
                   spans.openCount())});

    struct Tree
    {
        bool haveRequest = false;
        Span request;
        std::vector<Span> phases;
        std::vector<Span> steps;
    };
    std::map<std::uint64_t, Tree> trees;
    for (const Span &s : spans.spans()) {
        Tree &t = trees[s.id];
        if (s.kind == SpanKind::Request) {
            if (t.haveRequest)
                out.push_back(SpanFault{
                    s.id, s.kind, "duplicate completed request span"});
            t.haveRequest = true;
            t.request = s;
        } else if (isExecuteStep(s.kind)) {
            t.steps.push_back(s);
        } else {
            t.phases.push_back(s);
        }
    }

    // Siblings must not overlap and must come in canonical order.
    const auto checkOrder = [&out](std::uint64_t id,
                                   std::vector<Span> &sibs) {
        std::sort(sibs.begin(), sibs.end(),
                  [](const Span &a, const Span &b) {
                      return a.startNs != b.startNs
                                 ? a.startNs < b.startNs
                                 : a.kind < b.kind;
                  });
        for (std::size_t i = 1; i < sibs.size(); ++i) {
            const Span &prev = sibs[i - 1];
            const Span &cur = sibs[i];
            if (cur.startNs < prev.endNs)
                out.push_back(SpanFault{
                    id, cur.kind,
                    strfmt("{} overlaps {}", spanKindName(cur.kind),
                           spanKindName(prev.kind))});
            if (cur.kind <= prev.kind)
                out.push_back(SpanFault{
                    id, cur.kind,
                    strfmt("{} out of canonical order after {}",
                           spanKindName(cur.kind),
                           spanKindName(prev.kind))});
        }
    };
    // Whether the sorted spans tile [start, end] with no gap.
    const auto partitions = [slackNs](const std::vector<Span> &parts,
                                      std::int64_t start,
                                      std::int64_t end) {
        std::int64_t cursor = start;
        for (const Span &p : parts) {
            if (std::llabs(p.startNs - cursor) > slackNs)
                return false;
            cursor = p.endNs;
        }
        return std::llabs(cursor - end) <= slackNs;
    };

    for (auto &[id, t] : trees) {
        checkOrder(id, t.phases);
        checkOrder(id, t.steps);
        const auto exec = std::find_if(
            t.phases.begin(), t.phases.end(), [](const Span &p) {
                return p.kind == SpanKind::Execute;
            });
        if (exec == t.phases.end()) {
            if (!truncated && !t.steps.empty())
                out.push_back(SpanFault{id, t.steps.front().kind,
                                        "step without execute span"});
        } else {
            for (const Span &p : t.steps)
                if (p.startNs < exec->startNs || p.endNs > exec->endNs)
                    out.push_back(SpanFault{
                        id, p.kind,
                        strfmt("{} outside execute bounds",
                               spanKindName(p.kind))});
            if (!truncated && exec->ok && !t.steps.empty() &&
                (t.steps.size() != 2 ||
                 t.steps[0].kind != SpanKind::Prepare ||
                 !partitions(t.steps, exec->startNs, exec->endNs)))
                out.push_back(SpanFault{
                    id, SpanKind::Execute,
                    "prepare and run do not partition execute"});
        }
        if (!t.haveRequest) {
            // Without truncation every phase belongs to a completed
            // request span.
            if (!truncated && !t.phases.empty())
                out.push_back(SpanFault{id, t.phases.front().kind,
                                        "phase without request span"});
            continue;
        }
        for (const Span &p : t.phases) {
            if (p.startNs < t.request.startNs ||
                p.endNs > t.request.endNs)
                out.push_back(SpanFault{
                    id, p.kind,
                    strfmt("{} outside request bounds",
                           spanKindName(p.kind))});
        }
        // Completeness + exact partition, only for fully-retained
        // trees of ok requests that passed admission.
        const bool admitted = std::any_of(
            t.phases.begin(), t.phases.end(), [](const Span &p) {
                return p.kind == SpanKind::Admission && p.ok;
            });
        if (truncated || !t.request.ok || !admitted)
            continue;
        if (t.phases.size() != 5) {
            out.push_back(SpanFault{
                id, SpanKind::Request,
                strfmt("admitted ok request has {} phases, want 5",
                       t.phases.size())});
            continue;
        }
        std::int64_t sum = 0;
        for (const Span &p : t.phases)
            sum += p.endNs - p.startNs;
        const std::int64_t requestDur =
            t.request.endNs - t.request.startNs;
        if (!partitions(t.phases, t.request.startNs, t.request.endNs))
            out.push_back(SpanFault{
                id, SpanKind::Request,
                strfmt("phases do not partition the request span "
                       "(phase sum {} ns vs request {} ns)",
                       sum, requestDur)});
    }
    return out;
}

// ---------------------------------------------------------------------
// Postmortem bundle
// ---------------------------------------------------------------------

namespace
{

void
spanJson(JsonWriter &w, const std::vector<std::string> &tenants,
         std::int64_t epoch, const Span &s)
{
    w.beginObject()
        .kv("id", s.id)
        .kv("traceId", s.traceId)
        .kv("reqId", std::uint64_t(s.reqId))
        .kv("kind", spanKindName(s.kind))
        .kv("track",
            strfmt("{}:{}", spanTrackName(s.trackKind), s.track));
    if (s.tenant != noTenant && s.tenant < tenants.size())
        w.kv("tenant", tenants[s.tenant]);
    else
        w.key("tenant").nullValue();
    w.kv("startNs", s.startNs - epoch)
        .kv("endNs", s.endNs - epoch)
        .kv("ok", s.ok)
        .endObject();
}

} // namespace

bool
writeSpanPostmortem(const std::string &dir, const std::string &prefix,
                    const std::string &driver,
                    const std::vector<SpanFault> &faults,
                    const SpanCollector &spans)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) {
        error("cannot create postmortem dir {}: {}", dir, ec.message());
        return false;
    }
    const std::string path =
        dir + "/" + prefix + "spans-postmortem.json";
    std::ofstream os(path);
    if (!os) {
        error("cannot write {}", path);
        return false;
    }

    std::set<std::uint64_t> offending;
    for (const SpanFault &f : faults)
        offending.insert(f.id);

    JsonWriter w(os);
    w.beginObject()
        .kv("schema", "fpc-postmortem-v1")
        .kv("kind", "span-bracketing")
        .kv("driver", driver)
        .kv("recorded", spans.recorded())
        .kv("dropped", spans.dropped())
        .kv("open", std::uint64_t(spans.openCount()))
        .kv("faultCount", std::uint64_t(faults.size()));
    w.key("faults").beginArray();
    for (const SpanFault &f : faults) {
        w.beginObject()
            .kv("id", f.id)
            .kv("kind", spanKindName(f.kind))
            .kv("what", f.what)
            .endObject();
    }
    w.endArray();
    // The retained spans of every offending request, for context.
    const std::vector<std::string> tenants = spans.tenantNames();
    w.key("spans").beginArray();
    for (const Span &s : spans.spans())
        if (offending.count(s.id) != 0)
            spanJson(w, tenants, spans.epochNs(), s);
    w.endArray();
    w.endObject();
    os << "\n";
    return os.good();
}

// ---------------------------------------------------------------------
// fpc-spans-v1 log
// ---------------------------------------------------------------------

void
writeSpansLog(std::ostream &os, const std::string &driver,
              const SpanCollector &spans)
{
    const std::int64_t epoch = spans.epochNs();
    os << "fpc-spans-v1\n";
    os << "driver " << driver << "\n";
    os << "capacity " << spans.capacity() << "\n";
    os << "recorded " << spans.recorded() << "\n";
    os << "dropped " << spans.dropped() << "\n";
    const std::vector<std::string> tenants = spans.tenantNames();
    for (std::size_t i = 0; i < tenants.size(); ++i)
        os << "tenant " << i << " " << tenants[i] << "\n";
    for (const Span &s : spans.spans()) {
        os << "span " << s.id << " " << s.traceId << " " << s.reqId
           << " " << spanKindName(s.kind) << " "
           << spanTrackName(s.trackKind) << ":" << s.track << " ";
        if (s.tenant == noTenant)
            os << "-";
        else
            os << s.tenant;
        os << " " << (s.startNs - epoch) << " " << (s.endNs - epoch)
           << " " << (s.ok ? "ok" : "err") << "\n";
    }
    const std::vector<SpanFault> faults = spans.faults();
    os << "faults " << spans.faultCount() << "\n";
    for (const SpanFault &f : faults)
        os << "fault " << f.id << " " << spanKindName(f.kind) << " "
           << f.what << "\n";
    os << "eof\n";
}

// ---------------------------------------------------------------------
// Perfetto export
// ---------------------------------------------------------------------

namespace
{

/** tid layout on the serve pid: workers at 0, tenants at 1000,
 *  connections at 2000. Purely presentational. */
constexpr unsigned tenantTidBase = 1000;
constexpr unsigned connTidBase = 2000;

unsigned
spanTid(const Span &s)
{
    switch (s.trackKind) {
    case SpanTrack::Worker:
        return s.track;
    case SpanTrack::Tenant:
        return tenantTidBase + s.track;
    case SpanTrack::Connection:
        return connTidBase + s.track;
    }
    return s.track;
}

} // namespace

void
writeSpansPerfetto(std::ostream &os, const SpanCollector &spans,
                   const std::vector<const Tracer *> &xferTracks)
{
    // Spans are retained in completion order, children before their
    // parents; a viewer nests "X" slices on one tid by start, so write
    // them in start order, the longer (the parent) first on a tie.
    std::vector<Span> all = spans.spans();
    std::stable_sort(all.begin(), all.end(),
                     [](const Span &a, const Span &b) {
                         return a.startNs != b.startNs
                                    ? a.startNs < b.startNs
                                    : a.endNs > b.endNs;
                     });
    const std::vector<std::string> tenants = spans.tenantNames();
    const std::int64_t epoch = spans.epochNs();

    os << "{\n  \"displayTimeUnit\": \"ns\",\n  \"traceEvents\": [\n";
    bool first = true;

    // Track metadata: name every tid that actually carries spans.
    std::set<unsigned> workerTids, connTids;
    std::set<std::uint32_t> tenantTracks;
    for (const Span &s : all) {
        switch (s.trackKind) {
        case SpanTrack::Worker:
            workerTids.insert(s.track);
            break;
        case SpanTrack::Tenant:
            tenantTracks.insert(s.track);
            break;
        case SpanTrack::Connection:
            connTids.insert(s.track);
            break;
        }
    }
    os << "    {\"name\": \"process_name\", \"ph\": \"M\", "
       << "\"pid\": 1, \"tid\": 0, \"args\": "
       << "{\"name\": \"serve (wall time)\"}}";
    first = false;
    for (const unsigned t : workerTids)
        writeChromeThreadName(os, 1, t,
                              "serve worker " + std::to_string(t),
                              first);
    for (const std::uint32_t t : tenantTracks) {
        const std::string name =
            t < tenants.size() ? tenants[t] : std::to_string(t);
        writeChromeThreadName(os, 1, tenantTidBase + t,
                              "tenant " + name, first);
    }
    for (const unsigned t : connTids)
        writeChromeThreadName(os, 1, connTidBase + t,
                              "conn " + std::to_string(t), first);

    for (const Span &s : all) {
        os << ",\n";
        // Wall nanoseconds exported as fractional microseconds (the
        // trace-event "ts" unit).
        const double ts =
            static_cast<double>(s.startNs - epoch) / 1000.0;
        const double dur =
            static_cast<double>(s.endNs - s.startNs) / 1000.0;
        os << "    {\"name\": \"" << spanKindName(s.kind)
           << "\", \"cat\": \"span\", \"ph\": \"X\", \"pid\": 1, "
           << "\"tid\": " << spanTid(s) << ", \"ts\": "
           << jsonNumber(ts) << ", \"dur\": " << jsonNumber(dur)
           << ", \"args\": {\"id\": " << s.id << ", \"traceId\": "
           << s.traceId << ", \"reqId\": " << s.reqId
           << ", \"tenant\": ";
        if (s.tenant != noTenant && s.tenant < tenants.size())
            os << "\"" << jsonEscape(tenants[s.tenant]) << "\"";
        else
            os << "null";
        os << ", \"ok\": " << (s.ok ? "true" : "false") << "}}";
    }

    // Embedded XFER tracks: pid 0, simulated cycles (1 cycle = 1 us).
    // Different clock, same document — correlate by worker index.
    if (!xferTracks.empty()) {
        os << ",\n    {\"name\": \"process_name\", \"ph\": \"M\", "
           << "\"pid\": 0, \"tid\": 0, \"args\": "
           << "{\"name\": \"machine (simulated cycles)\"}}";
        for (unsigned tid = 0; tid < xferTracks.size(); ++tid) {
            if (xferTracks[tid] == nullptr)
                continue;
            writeChromeThreadName(os, 0, tid,
                                  "worker " + std::to_string(tid),
                                  first);
        }
        for (unsigned tid = 0; tid < xferTracks.size(); ++tid) {
            if (xferTracks[tid] == nullptr)
                continue;
            writeChromeTraceEvents(os, *xferTracks[tid], 0, tid, first);
        }
    }
    os << "\n  ]\n}\n";
}

} // namespace fpc::obs
