#include "replay/recorder.hh"

#include <utility>

#include "machine/digest.hh"

namespace fpc::replay
{

void
Recorder::sample(const Machine &machine)
{
    Sample s;
    s.steps = machine.stats().steps;
    s.cycles = machine.cycles();
    s.digest = stateDigest(machine, DigestScope::Full);
    job_.samples.push_back(s);
}

void
Recorder::recordDecision(std::uint64_t step, Word ctx)
{
    job_.decisions.push_back({step, ctx});
}

Machine::Scheduler
Recorder::wrapPolicy(Machine::Scheduler inner)
{
    return [this, inner = std::move(inner)](Machine &m) {
        const Word ctx = inner(m);
        recordDecision(m.stats().steps, ctx);
        return ctx;
    };
}

void
Recorder::finish(const Machine &machine, const RunResult &result)
{
    job_.final.reason = stopReasonName(result.reason);
    job_.final.steps = machine.stats().steps;
    job_.final.cycles = machine.cycles();
    job_.final.digest = stateDigest(machine, DigestScope::Full);
    job_.final.value =
        result.reason == StopReason::TopReturn &&
                machine.stackDepth() > 0
            ? machine.stackAt(machine.stackDepth() - 1)
            : 0;
    job_.final.pc = machine.pc();
    job_.final.lf = machine.currentFrame();
    job_.final.gf = machine.currentGlobalFrame();
    job_.final.sp = machine.stackDepth();
    job_.final.heapLive =
        static_cast<std::uint64_t>(machine.heap().stats().liveFrames());
    job_.final.heapAllocs =
        static_cast<std::uint64_t>(machine.heap().stats().allocs);
    job_.final.heapFrees =
        static_cast<std::uint64_t>(machine.heap().stats().frees);
}

void
Recorder::beginJob(unsigned id, unsigned worker)
{
    job_ = JobRecord();
    job_.id = id;
    job_.worker = worker;
}

JobRecord
Recorder::takeJob()
{
    JobRecord out = std::move(job_);
    job_ = JobRecord();
    return out;
}

} // namespace fpc::replay
