/**
 * @file
 * Multiplexes the Machine's two hook slots. A Machine holds one
 * XferObserver and one CycleSampler; a Fanout takes both and hands
 * every event to each client it was given — the tracer, profiler,
 * flight recorder and probe engine on the observer side, telemetry,
 * the sampled profiler and the replay recorder on the sampler side.
 *
 * Each sampler client keeps its own interval and deadline: the
 * machine fires at the earliest pending deadline, and a client fires
 * only once its own has passed, with the machine's catch-up rule. So
 * a client fires at exactly the points it would fire alone, whatever
 * else shares the slot. The fanout is exact when any sampler client
 * is, so with one exact client every client fires at instruction
 * boundaries; observers are exact on either loop.
 */

#ifndef FPC_OBS_FANOUT_HH
#define FPC_OBS_FANOUT_HH

#include <algorithm>
#include <vector>

#include "machine/machine.hh"

namespace fpc::obs
{

class Fanout final : public XferObserver, public CycleSampler
{
  public:
    /** Add an observer; null is ignored. */
    void
    add(XferObserver *observer)
    {
        if (observer != nullptr)
            observers_.push_back(observer);
    }

    /** Add a sampler on its own interval; null is ignored. */
    void
    add(CycleSampler *sampler, Tick interval)
    {
        if (sampler != nullptr)
            samplers_.push_back(
                {sampler, std::max<Tick>(interval, 1), 0});
    }

    bool
    empty() const
    {
        return observers_.empty() && samplers_.empty();
    }

    /** Take whichever of the machine's slots have clients; each
     *  sampler's first deadline is its interval past the machine's
     *  cycle count. */
    void
    attach(Machine &machine)
    {
        if (!observers_.empty())
            machine.setObserver(this);
        if (samplers_.empty())
            return;
        Tick finest = samplers_.front().interval;
        for (Client &c : samplers_) {
            c.nextAt = machine.cycles() + c.interval;
            finest = std::min(finest, c.interval);
        }
        machine.setSampler(this, finest);
    }

    void
    onXfer(const XferRecord &record, const Machine &machine) override
    {
        for (XferObserver *o : observers_)
            o->onXfer(record, machine);
    }
    void
    onFrameAlloc(unsigned fsi, bool fast,
                 const Machine &machine) override
    {
        for (XferObserver *o : observers_)
            o->onFrameAlloc(fsi, fast, machine);
    }
    void
    onFrameFree(unsigned fsi, bool fast,
                const Machine &machine) override
    {
        for (XferObserver *o : observers_)
            o->onFrameFree(fsi, fast, machine);
    }
    void
    onTrap(Word code, const Machine &machine) override
    {
        for (XferObserver *o : observers_)
            o->onTrap(code, machine);
    }

    void
    onSample(const Machine &machine) override
    {
        const Tick now = machine.cycles();
        for (Client &c : samplers_) {
            if (now < c.nextAt)
                continue;
            c.nextAt =
                c.sampler->nextDeadline(c.nextAt, c.interval, now);
            c.sampler->onSample(machine);
        }
    }
    Tick
    nextDeadline(Tick, Tick, Tick) const override
    {
        Tick earliest = samplers_.front().nextAt;
        for (const Client &c : samplers_)
            earliest = std::min(earliest, c.nextAt);
        return earliest;
    }

    bool
    exact() const override
    {
        return std::any_of(samplers_.begin(), samplers_.end(),
                           [](const Client &c) {
                               return c.sampler->exact();
                           });
    }

  private:
    struct Client
    {
        CycleSampler *sampler;
        Tick interval;
        Tick nextAt;
    };
    std::vector<XferObserver *> observers_;
    std::vector<Client> samplers_;
};

} // namespace fpc::obs

#endif // FPC_OBS_FANOUT_HH
