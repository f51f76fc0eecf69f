/**
 * @file
 * Low-overhead sampling profiler for the threaded host backend.
 *
 * The exact Profiler (obs/profile.hh) rides the XFER observer hook,
 * which forces the eager loop: attaching it to an `--accel=threaded`
 * run silently throws away the speedup it is supposed to measure.
 * This profiler rides the BoundarySampler hook instead — the threaded
 * loop keeps running, and a sample is taken the next time the machine
 * reaches a superblock exit (threaded) or an instruction boundary
 * (eager) after the simulated cycle budget expires.
 *
 * What a sample records is the *currently executing procedure*: the
 * machine's shadow-of-shadow top-frame register (currentProcEntry(),
 * maintained at call/return boundaries for exactly this purpose),
 * falling back to the raw PC when the register is cold (returns
 * served by the return stack do not restore it). Attribution is
 * therefore statistical, not exact — cycle shares converge on the
 * exact profiler's exclusive shares as the sample count grows — and
 * the timestamps obey the documented slop contract: each sample
 * lands within one superblock (threaded) or one instruction (eager)
 * of its nominal interval boundary.
 */

#ifndef FPC_OBS_SAMPLED_PROFILE_HH
#define FPC_OBS_SAMPLED_PROFILE_HH

#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "machine/machine.hh"
#include "obs/profile.hh"
#include "program/loader.hh"
#include "stats/table.hh"

namespace fpc::obs
{

/** Per-procedure sample counts; mergeable across workers/jobs. */
struct SampledProfile
{
    std::map<std::string, CountT> samples;
    CountT total = 0;    ///< samples retained and attributed
    CountT recorded = 0; ///< samples taken over the profiler's life
    CountT dropped = 0;  ///< samples discarded by the ring

    void merge(const SampledProfile &other);

    /** Share of retained samples attributed to name (0 when empty). */
    double share(const std::string &name) const;

    /** Top-N procedures by sample count. */
    stats::Table topTable(std::size_t top_n = 20) const;

    /** Folded-stack output ("name count"), one line per procedure —
     *  the same flamegraph.pl input format the exact profiler writes,
     *  with single-frame stacks (sampling sees no caller chain). */
    void writeFolded(std::ostream &os) const;
};

/** The sampler: attach with machine.setBoundarySampler(&p, interval),
 *  run, then finish(). */
class SampledProfiler : public BoundarySampler
{
  public:
    static constexpr std::size_t defaultCapacity = 1u << 16;

    explicit SampledProfiler(const LoadedImage &image,
                             std::size_t capacity = defaultCapacity);

    void onBoundarySample(const Machine &machine) override;

    CountT recorded() const { return recorded_; }
    CountT dropped() const { return dropped_; }

    /** Resolve the retained samples to procedure names and return the
     *  profile. The profiler is reset and may observe another run. */
    SampledProfile finish();

  private:
    struct Sample
    {
        Tick cycles = 0;
        std::uint64_t steps = 0;
        CodeByteAddr pc = 0;
        CodeByteAddr procEntry = 0;
        /** Entry PC of the superblock that spent the budget (threaded
         *  boundaries only, 0 otherwise); preferred for attribution
         *  because block exits land just *after* a transfer. */
        CodeByteAddr anchorPc = 0;
    };

    ProcMap map_;
    std::size_t capacity_;
    std::vector<Sample> ring_;
    std::size_t head_ = 0; ///< next write slot once the ring is full
    CountT recorded_ = 0;
    CountT dropped_ = 0;
};

/**
 * Distributes machine boundary samples to several consumers on their
 * own simulated-cycle budgets (the machine has one boundary-sampler
 * slot; a sampled profiler and sampled telemetry may both want it).
 * The machine fires at the finest requested interval and each target
 * forwards only once its own budget expires, with the same catch-up
 * semantics as the machine's. A coarser consumer's slop grows by at
 * most one finest-interval on top of the machine's documented
 * boundary slop.
 */
class BoundaryFanout final : public BoundarySampler
{
  public:
    void
    add(BoundarySampler *target, Tick interval)
    {
        interval = interval > 0 ? interval : 1;
        targets_.push_back({target, interval, interval});
    }
    /** Detach a target; its interval stops contributing to
     *  machineInterval(), so re-arm the machine's sampler after
     *  removal. Unknown targets are ignored. */
    void
    remove(BoundarySampler *target)
    {
        std::erase_if(targets_, [target](const Target &t) {
            return t.target == target;
        });
    }
    bool empty() const { return targets_.empty(); }
    std::size_t size() const { return targets_.size(); }
    /** The interval to hand machine.setBoundarySampler (the finest
     *  of the added budgets; 0 when empty). */
    Tick
    machineInterval() const
    {
        Tick finest = 0;
        for (const Target &t : targets_)
            if (finest == 0 || t.interval < finest)
                finest = t.interval;
        return finest;
    }
    void
    onBoundarySample(const Machine &machine) override
    {
        const Tick now = machine.stats().cycles;
        for (Target &t : targets_) {
            if (now < t.nextAt)
                continue;
            do
                t.nextAt += t.interval;
            while (t.nextAt <= now);
            t.target->onBoundarySample(machine);
        }
    }

  private:
    struct Target
    {
        BoundarySampler *target;
        Tick interval;
        Tick nextAt;
    };
    std::vector<Target> targets_;
};

} // namespace fpc::obs

#endif // FPC_OBS_SAMPLED_PROFILE_HH
