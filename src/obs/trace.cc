#include "obs/trace.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/json.hh"
#include "obs/profile.hh"
#include "xfer/context.hh"

namespace fpc::obs
{

Tracer::Tracer(std::size_t capacity) : capacity_(capacity)
{
    if (capacity_ == 0)
        panic("Tracer: capacity must be nonzero");
    ring_.reserve(std::min<std::size_t>(capacity_, 4096));
}

void
Tracer::onXfer(const XferRecord &record, const Machine &machine)
{
    TraceEvent ev;
    ev.kind = record.kind;
    ev.srcCtx = record.srcCtx;
    ev.dstCtx = record.dstCtx;
    ev.frame = record.frame;
    ev.pc = record.pc;
    ev.start = base_ + record.start;
    ev.end = base_ + record.end;
    ev.refs = record.refs;
    ev.step = record.step;

    // A call's or a return's callee is on top of the shadow stack; a
    // transfer that breaks LIFO order (Switch / ProcSwitch / Trap)
    // re-roots the stack at its destination.
    const bool lifo =
        callLike(record.kind) || record.kind == XferKind::Return;
    ev.depth = lifo ? static_cast<unsigned>(machine.shadowStack().size())
                    : (record.frame != nilAddr ? 1u : 0u);
    if (callLike(record.kind) && procMap_ != nullptr) {
        if (const std::string *name = procMap_->find(record.pc))
            ev.nameIdx = intern(*name);
    }

    if (ring_.size() < capacity_) {
        ring_.push_back(ev);
    } else {
        ring_[head_] = ev;
        head_ = (head_ + 1) % capacity_;
        ++dropped_;
    }
    ++recorded_;
}

std::vector<TraceEvent>
Tracer::events() const
{
    std::vector<TraceEvent> out;
    out.reserve(ring_.size());
    // head_ is the oldest slot once the ring has wrapped.
    for (std::size_t i = 0; i < ring_.size(); ++i)
        out.push_back(ring_[(head_ + i) % ring_.size()]);
    return out;
}

const std::string &
Tracer::name(unsigned name_idx) const
{
    if (name_idx >= names_.size())
        panic("Tracer::name: bad index {}", name_idx);
    return names_[name_idx];
}

void
Tracer::clear()
{
    ring_.clear();
    head_ = 0;
    recorded_ = 0;
    // Keep the interned names: indices in already-snapshotted events
    // stay valid and re-recording reuses them. dropped_ also survives:
    // it reports lifetime losses across every epoch.
}

unsigned
Tracer::intern(const std::string &name)
{
    auto it = nameIndex_.find(name);
    if (it != nameIndex_.end())
        return it->second;
    const unsigned idx = static_cast<unsigned>(names_.size());
    names_.push_back(name);
    nameIndex_.emplace(name, idx);
    return idx;
}

// ---------------------------------------------------------------------
// Chrome trace-event export
// ---------------------------------------------------------------------

namespace
{

/**
 * Complete ("X") events tolerate drop-oldest truncation — there is no
 * begin/end pairing to corrupt — and each slice's width is exactly the
 * cycles the transfer consumed. Exported as 1 cycle == 1 "us".
 */
void
writeEvent(std::ostream &os, const Tracer &tracer, unsigned pid,
           unsigned tid, const TraceEvent &ev, bool &first)
{
    if (!first)
        os << ",\n";
    first = false;

    const std::string &name = ev.nameIdx == TraceEvent::noName
                                  ? xferKindName(ev.kind)
                                  : tracer.name(ev.nameIdx);
    os << "    {\"name\": \"" << jsonEscape(name)
       << "\", \"cat\": \"xfer\", \"ph\": \"X\", \"pid\": " << pid
       << ", \"tid\": " << tid << ", \"ts\": " << ev.start
       << ", \"dur\": " << (ev.end - ev.start) << ", \"args\": {"
       << "\"kind\": \"" << xferKindName(ev.kind) << "\", \"src\": "
       << ev.srcCtx << ", \"dst\": " << ev.dstCtx
       << ", \"frame\": " << ev.frame << ", \"pc\": " << ev.pc
       << ", \"depth\": " << ev.depth << ", \"refs\": " << ev.refs
       << ", \"step\": " << ev.step << "}}";
}

} // namespace

void
writeChromeThreadName(std::ostream &os, unsigned pid, unsigned tid,
                      const std::string &name, bool &first)
{
    if (!first)
        os << ",\n";
    first = false;
    os << "    {\"name\": \"thread_name\", \"ph\": \"M\", "
       << "\"pid\": " << pid << ", \"tid\": " << tid
       << ", \"args\": {\"name\": \"" << jsonEscape(name) << "\"}}";
}

void
writeChromeTraceEvents(std::ostream &os, const Tracer &tracer,
                       unsigned pid, unsigned tid, bool &first)
{
    for (const TraceEvent &ev : tracer.events())
        writeEvent(os, tracer, pid, tid, ev, first);
}

void
writeChromeTrace(std::ostream &os,
                 const std::vector<const Tracer *> &tracks)
{
    os << "{\n  \"displayTimeUnit\": \"ns\",\n  \"traceEvents\": [\n";
    bool first = true;
    for (unsigned tid = 0; tid < tracks.size(); ++tid) {
        if (tracks[tid] == nullptr)
            continue;
        writeChromeThreadName(os, 0, tid, "worker " + std::to_string(tid),
                              first);
    }
    for (unsigned tid = 0; tid < tracks.size(); ++tid) {
        if (tracks[tid] == nullptr)
            continue;
        writeChromeTraceEvents(os, *tracks[tid], 0, tid, first);
    }
    os << "\n  ]\n}\n";
}

} // namespace fpc::obs
