#include "obs/profile.hh"

#include <algorithm>

namespace fpc::obs
{

const std::string idleProcName = "(idle)";

ProcMap::ProcMap(const LoadedImage &image)
{
    for (const PlacedModule &pm : image.modules()) {
        for (unsigned p = 0; p < pm.procs.size(); ++p) {
            const PlacedProc &pp = pm.procs[p];
            Range range;
            range.end =
                pp.prologueAddr + pp.prologueBytes + pp.bodyBytes;
            range.name = pm.src->name + "." + pm.src->procs[p].name;
            ranges_[pp.prologueAddr] = std::move(range);
        }
    }
}

const std::string *
ProcMap::find(CodeByteAddr pc) const
{
    auto it = ranges_.upper_bound(pc);
    if (it == ranges_.begin())
        return nullptr;
    --it;
    if (pc >= it->first && pc < it->second.end)
        return &it->second.name;
    return nullptr;
}

// ---------------------------------------------------------------------
// ProfileData
// ---------------------------------------------------------------------

void
ProfileData::merge(const ProfileData &other)
{
    for (const auto &[name, p] : other.procs) {
        ProcProfile &dst = procs[name];
        dst.calls += p.calls;
        dst.resumes += p.resumes;
        dst.inclusive += p.inclusive;
        dst.exclusive += p.exclusive;
    }
    for (const auto &[stack, cycles] : other.folded)
        folded[stack] += cycles;
    total += other.total;
}

Tick
ProfileData::exclusiveTotal() const
{
    Tick sum = 0;
    for (const auto &[name, p] : procs)
        sum += p.exclusive;
    return sum;
}

stats::Table
ProfileData::topTable(std::size_t top_n) const
{
    std::vector<std::pair<std::string, ProcProfile>> rows(
        procs.begin(), procs.end());
    std::sort(rows.begin(), rows.end(),
              [](const auto &a, const auto &b) {
                  if (a.second.exclusive != b.second.exclusive)
                      return a.second.exclusive > b.second.exclusive;
                  return a.first < b.first;
              });
    if (rows.size() > top_n)
        rows.resize(top_n);

    stats::Table table({"procedure", "calls", "resumes", "excl cycles",
                        "excl %", "incl cycles"});
    for (const auto &[name, p] : rows) {
        table.row(name, p.calls, p.resumes, p.exclusive,
                  stats::percent(total ? static_cast<double>(p.exclusive) /
                                             static_cast<double>(total)
                                       : 0.0),
                  p.inclusive);
    }
    return table;
}

void
ProfileData::writeFolded(std::ostream &os) const
{
    for (const auto &[stack, cycles] : folded)
        os << stack << " " << cycles << "\n";
}

// ---------------------------------------------------------------------
// Profiler
// ---------------------------------------------------------------------

std::string
Profiler::nameAt(CodeByteAddr pc) const
{
    if (const std::string *name = map_.find(pc))
        return *name;
    return "pc_" + std::to_string(pc);
}

void
Profiler::attribute(Tick now, const Stack &stack, std::size_t depth)
{
    if (now <= lastTick_)
        return;
    const Tick delta = now - lastTick_;
    std::string top = idleProcName;
    std::string key = idleProcName;
    for (std::size_t i = 0; i < depth; ++i) {
        top = nameAt(stack[i].pc);
        if (i == 0)
            key = top;
        else
            key.append(";").append(top);
    }
    data_.procs[top].exclusive += delta;
    data_.folded[key] += delta;
    lastTick_ = now;
}

void
Profiler::close(const ShadowFrame &frame, Tick now)
{
    data_.procs[nameAt(frame.pc)].inclusive += now - frame.entered;
}

void
Profiler::onXfer(const XferRecord &record, const Machine &machine)
{
    // The transfer's own cost [start, end) is charged to the source
    // procedure: attribute everything up to the completed transfer to
    // the stack as it stood before it (a call's callee is already
    // pushed).
    const Stack &stack = machine.shadowStack();
    const bool call = callLike(record.kind);
    attribute(record.end, stack, stack.size() - (call ? 1 : 0));

    if (call) {
        ++data_.procs[nameAt(record.pc)].calls;
        return;
    }
    if (record.kind == XferKind::Return) {
        if (!stack.empty())
            close(stack.back(), record.end);
        return;
    }

    // Switch / ProcSwitch / Trap: the machine flushes the stack and
    // re-roots it at the destination once this returns. Close every
    // flushed activation; the new root counts as a resume.
    for (const ShadowFrame &frame : stack)
        close(frame, record.end);
    if (record.frame != nilAddr)
        ++data_.procs[nameAt(record.pc)].resumes;
}

ProfileData
Profiler::finish(const Machine &machine)
{
    const Stack &stack = machine.shadowStack();
    attribute(machine.cycles(), stack, stack.size());
    // lastTick_ is now the last attributed cycle: exactly the total
    // charged, even if the machine's cycle count ran behind an
    // observed transfer — keeps the exclusive-sum invariant exact.
    for (const ShadowFrame &frame : stack)
        close(frame, lastTick_);
    data_.total += lastTick_;
    ProfileData out = std::move(data_);
    data_ = ProfileData();
    lastTick_ = 0;
    return out;
}

} // namespace fpc::obs
