#include "obs/probes.hh"

#include <algorithm>
#include <tuple>

#include "obs/json.hh"

namespace fpc::obs
{

namespace
{

bool
cmpU(std::uint64_t a, ProbeCmp cmp, std::uint64_t b)
{
    switch (cmp) {
    case ProbeCmp::Eq:
        return a == b;
    case ProbeCmp::Ne:
        return a != b;
    case ProbeCmp::Lt:
        return a < b;
    case ProbeCmp::Le:
        return a <= b;
    case ProbeCmp::Gt:
        return a > b;
    case ProbeCmp::Ge:
        return a >= b;
    }
    return false;
}

auto
captureKey(const ProbeCaptureEntry &e)
{
    return std::make_tuple(e.worker, e.seq, e.step, e.cycles, e.pc,
                           e.value);
}

bool
captureLess(const ProbeCaptureEntry &a, const ProbeCaptureEntry &b)
{
    return captureKey(a) < captureKey(b);
}

/** Keep the greatest `depth` entries under the capture total order.
 *  "Greatest-N under a total order" is an associative, commutative
 *  reduction, so trimming at every fold yields the same survivors no
 *  matter which worker's buffers arrive first — the property the
 *  fpc-probes-v1 determinism gate leans on. */
void
trimRing(std::vector<ProbeCaptureEntry> &ring, std::size_t depth)
{
    std::sort(ring.begin(), ring.end(), captureLess);
    if (depth != 0 && ring.size() > depth)
        ring.erase(ring.begin(),
                   ring.end() - static_cast<std::ptrdiff_t>(depth));
}

} // namespace

// ---------------------------------------------------------------------
// Aggregation buffers
// ---------------------------------------------------------------------

void
ProbeAgg::merge(const ProbeAgg &other)
{
    hits += other.hits;
    dist.merge(other.dist);
    quant.merge(other.quant);
    ring.insert(ring.end(), other.ring.begin(), other.ring.end());
}

void
ProbeBuffers::merge(const ProbeBuffers &other)
{
    if (aggs.size() < other.aggs.size())
        aggs.resize(other.aggs.size());
    for (std::size_t i = 0; i < other.aggs.size(); ++i)
        aggs[i].merge(other.aggs[i]);
}

// ---------------------------------------------------------------------
// ProbeRegistry
// ---------------------------------------------------------------------

std::uint32_t
ProbeRegistry::attach(ProbeSpec spec)
{
    std::lock_guard<std::mutex> lock(mutex_);
    // Specs compare by canonical text, so re-attaching an identical
    // probe is idempotent: its aggregation just keeps accumulating.
    for (const Entry &e : entries_)
        if (e.spec.text == spec.text)
            return e.id;
    const std::uint32_t id = nextId_++;
    entries_.push_back(Entry{id, std::move(spec)});
    totals_[id];
    return id;
}

bool
ProbeRegistry::detach(std::uint32_t id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if (it->id == id) {
            entries_.erase(it);
            totals_.erase(id);
            return true;
        }
    }
    return false;
}

bool
ProbeRegistry::active() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return !entries_.empty();
}

std::size_t
ProbeRegistry::attachedCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

ProbeRegistry::Snapshot
ProbeRegistry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return std::make_shared<const std::vector<Entry>>(entries_);
}

void
ProbeRegistry::fold(const Snapshot &snap, const ProbeBuffers &buffers)
{
    if (snap == nullptr)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    const std::size_t n =
        std::min(snap->size(), buffers.aggs.size());
    for (std::size_t i = 0; i < n; ++i) {
        const Entry &e = (*snap)[i];
        auto it = totals_.find(e.id);
        if (it == totals_.end())
            continue; // detached while the job was in flight
        it->second.merge(buffers.aggs[i]);
        if (e.spec.action == ProbeAction::Capture)
            trimRing(it->second.ring, e.spec.captureDepth);
    }
}

std::vector<std::pair<ProbeRegistry::Entry, ProbeAgg>>
ProbeRegistry::read() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::pair<Entry, ProbeAgg>> out;
    out.reserve(entries_.size());
    for (const Entry &e : entries_) {
        auto it = totals_.find(e.id);
        out.emplace_back(e, it == totals_.end() ? ProbeAgg()
                                                : it->second);
    }
    return out;
}

void
ProbeRegistry::writeJson(std::ostream &os,
                         const std::string &driver) const
{
    const auto probes = read();
    JsonWriter w(os);
    w.beginObject();
    w.kv("schema", "fpc-probes-v1");
    w.kv("driver", driver);
    w.key("probes").beginArray();
    for (const auto &[entry, agg] : probes) {
        const ProbeSpec &s = entry.spec;
        w.beginObject();
        w.kv("id", std::uint64_t(entry.id));
        w.kv("spec", s.text);
        w.kv("site", probeSiteName(s.site));
        w.kv("action", probeActionName(s.action));
        w.kv("hits", agg.hits);
        switch (s.action) {
        case ProbeAction::Count:
            break;
        case ProbeAction::Sum:
        case ProbeAction::Min:
        case ProbeAction::Max: {
            w.kv("expr", probeExprName(s.expr));
            const bool any = agg.dist.count() != 0;
            w.key("value").beginObject();
            w.kv("count", agg.dist.count());
            w.kv("sum", any ? agg.dist.total() : 0.0);
            w.kv("min", any ? agg.dist.min() : 0.0);
            w.kv("max", any ? agg.dist.max() : 0.0);
            w.kv("mean", any ? agg.dist.mean() : 0.0);
            w.endObject();
            break;
        }
        case ProbeAction::Quantize: {
            w.kv("expr", probeExprName(s.expr));
            // bucket 0 counts value 0; bucket k>=1 counts values in
            // [2^(k-1), 2^k). Ascending, zero buckets elided.
            w.key("quantize").beginArray();
            for (std::size_t b = 0; b < agg.quant.buckets.size();
                 ++b) {
                if (agg.quant.buckets[b] == 0)
                    continue;
                w.beginObject();
                w.kv("bucket", std::uint64_t(b));
                w.kv("count", agg.quant.buckets[b]);
                w.endObject();
            }
            w.endArray();
            break;
        }
        case ProbeAction::Capture: {
            w.kv("expr", probeExprName(s.expr));
            std::vector<ProbeCaptureEntry> ring = agg.ring;
            std::sort(ring.begin(), ring.end(), captureLess);
            w.key("captures").beginArray();
            for (const ProbeCaptureEntry &c : ring) {
                w.beginObject();
                w.kv("worker", std::uint64_t(c.worker));
                w.kv("seq", c.seq);
                w.kv("step", c.step);
                w.kv("cycles", std::uint64_t(c.cycles));
                w.kv("pc", std::uint64_t(c.pc));
                w.kv("value", c.value);
                w.endObject();
            }
            w.endArray();
            break;
        }
        }
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << "\n";
}

void
ProbeRegistry::gauges(
    std::vector<std::pair<std::string, double>> &out) const
{
    const auto probes = read();
    for (const auto &[entry, agg] : probes) {
        const std::string base =
            "probe_" + std::to_string(entry.id);
        out.emplace_back(base + "_hits",
                         static_cast<double>(agg.hits));
        switch (entry.spec.action) {
        case ProbeAction::Sum:
            out.emplace_back(base + "_sum", agg.dist.total());
            break;
        case ProbeAction::Min:
            out.emplace_back(base + "_min", agg.dist.count() != 0
                                                ? agg.dist.min()
                                                : 0.0);
            break;
        case ProbeAction::Max:
            out.emplace_back(base + "_max", agg.dist.count() != 0
                                                ? agg.dist.max()
                                                : 0.0);
            break;
        default:
            break;
        }
    }
}

// ---------------------------------------------------------------------
// ProbeEngine
// ---------------------------------------------------------------------

ProbeEngine::ProbeEngine(ProbeRegistry::Snapshot snapshot,
                         const LoadedImage &image, std::string tenant,
                         std::uint32_t worker)
    : snap_(std::move(snapshot)), tenant_(std::move(tenant)),
      worker_(worker)
{
    // The ProcMap construction idiom: one row per placed procedure,
    // sorted by code range so procAt can bisect.
    for (const PlacedModule &pm : image.modules()) {
        for (unsigned p = 0; p < pm.procs.size(); ++p) {
            const PlacedProc &pp = pm.procs[p];
            Proc proc;
            proc.entry = pp.prologueAddr + pp.prologueBytes;
            proc.begin = pp.prologueAddr;
            proc.end =
                pp.prologueAddr + pp.prologueBytes + pp.bodyBytes;
            proc.fsi = pp.fsi;
            proc.name = pm.src->name + "." + pm.src->procs[p].name;
            procs_.push_back(std::move(proc));
        }
    }
    std::sort(procs_.begin(), procs_.end(),
              [](const Proc &a, const Proc &b) {
                  return a.begin < b.begin;
              });

    if (snap_ == nullptr)
        snap_ = std::make_shared<const std::vector<
            ProbeRegistry::Entry>>();
    buffers_.aggs.resize(snap_->size());
    compiled_.resize(snap_->size());
    for (std::size_t i = 0; i < snap_->size(); ++i) {
        const ProbeSpec &s = (*snap_)[i].spec;
        Compiled &c = compiled_[i];
        c.spec = &s;
        if (s.site == ProbeSite::Entry ||
            s.site == ProbeSite::Exit) {
            for (const Proc &proc : procs_)
                if (probeGlobMatch(s.pattern, proc.name))
                    c.entryPcs.push_back(proc.entry);
            std::sort(c.entryPcs.begin(), c.entryPcs.end());
        }
        for (const ProbePredicate &pred : s.predicates)
            if (pred.kind == ProbePredicate::Kind::Tenant &&
                !probeGlobMatch(pred.text, tenant_))
                c.tenantPass = false;
    }
}

void
ProbeEngine::finishInto(ProbeRegistry &registry)
{
    registry.fold(snap_, buffers_);
    buffers_ = ProbeBuffers();
    buffers_.aggs.resize(snap_->size());
}

const ProbeEngine::Proc *
ProbeEngine::procAt(CodeByteAddr pc) const
{
    auto it = std::upper_bound(
        procs_.begin(), procs_.end(), pc,
        [](CodeByteAddr at, const Proc &p) { return at < p.begin; });
    if (it == procs_.begin() || pc >= (--it)->end)
        return nullptr;
    return &*it;
}

bool
ProbeEngine::specMatchesPc(const Compiled &c, CodeByteAddr pc) const
{
    return std::binary_search(c.entryPcs.begin(), c.entryPcs.end(),
                              pc);
}

std::string
ProbeEngine::frameName(const ShadowFrame &frame) const
{
    if (const Proc *proc = procAt(frame.pc))
        return proc->name;
    return "pc_" + std::to_string(frame.pc);
}

bool
ProbeEngine::predicatesPass(const Compiled &c, const Event &ev) const
{
    if (!c.tenantPass)
        return false;
    for (const ProbePredicate &pred : c.spec->predicates) {
        switch (pred.kind) {
        case ProbePredicate::Kind::Depth:
            if (!cmpU(ev.stack.size(), pred.cmp, pred.number))
                return false;
            break;
        case ProbePredicate::Kind::Fsi:
            if (!ev.fsiValid ||
                !cmpU(ev.fsi, pred.cmp, pred.number))
                return false;
            break;
        case ProbePredicate::Kind::Tenant:
            break; // pre-evaluated into tenantPass
        case ProbePredicate::Kind::Caller: {
            const std::size_t n = ev.stack.size();
            if (n < 2 ||
                !probeGlobMatch(pred.text, frameName(ev.stack[n - 2])))
                return false;
            break;
        }
        case ProbePredicate::Kind::CallString: {
            // Suffix match: the last pattern binds the innermost
            // (topmost) shadow-stack frame.
            const std::size_t k = pred.path.size();
            if (ev.stack.size() < k)
                return false;
            const auto suffix = ev.stack.last(k);
            bool ok = true;
            for (std::size_t j = 0; j < k; ++j) {
                if (!probeGlobMatch(pred.path[j],
                                    frameName(suffix[j]))) {
                    ok = false;
                    break;
                }
            }
            if (!ok)
                return false;
            break;
        }
        }
    }
    return true;
}

std::uint64_t
ProbeEngine::exprValue(const ProbeSpec &spec, const Event &ev) const
{
    switch (spec.expr) {
    case ProbeExpr::Refs:
        return ev.refs;
    case ProbeExpr::Cycles:
        return static_cast<std::uint64_t>(ev.cycles);
    case ProbeExpr::Depth:
        return ev.stack.size();
    case ProbeExpr::Fsi:
        return ev.fsiValid ? ev.fsi : 0;
    }
    return 0;
}

void
ProbeEngine::fire(std::size_t index, const Event &ev,
                  const Machine &machine)
{
    const ProbeSpec &s = *compiled_[index].spec;
    ProbeAgg &agg = buffers_.aggs[index];
    ++agg.hits;
    switch (s.action) {
    case ProbeAction::Count:
        break;
    case ProbeAction::Sum:
    case ProbeAction::Min:
    case ProbeAction::Max:
        agg.dist.sample(
            static_cast<double>(exprValue(s, ev)));
        break;
    case ProbeAction::Quantize:
        agg.quant.sample(exprValue(s, ev));
        break;
    case ProbeAction::Capture: {
        ProbeCaptureEntry c;
        c.worker = worker_;
        c.seq = seq_++;
        c.step = machine.stats().steps;
        c.cycles = machine.cycles();
        c.pc = machine.pc();
        c.value = exprValue(s, ev);
        agg.ring.push_back(c);
        if (agg.ring.size() > s.captureDepth)
            agg.ring.erase(agg.ring.begin());
        break;
    }
    }
}

void
ProbeEngine::fireSite(ProbeSite site, const Event &ev,
                      const Machine &machine)
{
    for (std::size_t i = 0; i < compiled_.size(); ++i) {
        const Compiled &c = compiled_[i];
        if (c.spec->site == site && predicatesPass(c, ev))
            fire(i, ev, machine);
    }
}

void
ProbeEngine::onXfer(const XferRecord &record, const Machine &machine)
{
    // A call's callee and a returning frame are on top of the stack;
    // before a non-LIFO transfer flushes it, the stack is still the
    // source's.
    const XferKind kind = record.kind;
    Event ev;
    ev.refs = record.refs;
    ev.cycles = record.end - record.start;
    ev.stack = machine.shadowStack();
    const ShadowFrame *top =
        ev.stack.empty() ? nullptr : &ev.stack.back();
    const bool lifo = callLike(kind) || kind == XferKind::Return;
    if (lifo && top != nullptr) {
        if (const Proc *proc = procAt(top->pc)) {
            ev.fsi = proc->fsi;
            ev.fsiValid = true;
        }
    }
    const ProbeSite nameSite =
        kind == XferKind::Return ? ProbeSite::Exit : ProbeSite::Entry;
    for (std::size_t i = 0; i < compiled_.size(); ++i) {
        const Compiled &c = compiled_[i];
        const ProbeSpec &s = *c.spec;
        const bool match =
            (lifo && s.site == nameSite && top != nullptr &&
             specMatchesPc(c, top->pc)) ||
            (s.site == ProbeSite::ProcSwitch &&
             kind == XferKind::ProcSwitch) ||
            (s.site == ProbeSite::Xfer && s.kind == kind);
        if (match && predicatesPass(c, ev))
            fire(i, ev, machine);
    }
}

void
ProbeEngine::onFrameAlloc(unsigned fsi, bool, const Machine &machine)
{
    Event ev;
    ev.stack = machine.shadowStack();
    ev.fsi = fsi;
    ev.fsiValid = fsi != ~0u;
    fireSite(ProbeSite::FrameAlloc, ev, machine);
}

void
ProbeEngine::onFrameFree(unsigned fsi, bool, const Machine &machine)
{
    Event ev;
    ev.stack = machine.shadowStack();
    ev.fsi = fsi;
    ev.fsiValid = fsi != ~0u;
    fireSite(ProbeSite::FrameFree, ev, machine);
}

void
ProbeEngine::onTrap(Word, const Machine &machine)
{
    // Fires once per trap, handled or not — a handled trap's
    // dispatch also produces an xfer:trap event afterwards, which is
    // the distinct "trap transfers" site.
    Event ev;
    ev.stack = machine.shadowStack();
    fireSite(ProbeSite::Trap, ev, machine);
}

// ---------------------------------------------------------------------

bool
attachProbeSpecs(ProbeRegistry &registry,
                 const std::vector<std::string> &specs,
                 std::string &err)
{
    for (const std::string &text : specs) {
        ProbeSpec spec;
        std::string diag;
        if (!parseProbeSpec(text, spec, diag)) {
            err = "bad probe spec '" + text + "': " + diag;
            return false;
        }
        registry.attach(std::move(spec));
    }
    return true;
}

} // namespace fpc::obs
