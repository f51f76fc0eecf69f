/**
 * @file
 * Low-overhead sampling profiler for the threaded host backend.
 *
 * The exact Profiler (obs/profile.hh) observes every XFER, which
 * costs a hook call and a shadow-stack update per transfer. This
 * profiler is a CycleSampler that does not need exact stamps
 * instead — the threaded loop runs unobserved, and a sample is taken
 * the next time the machine reaches a superblock exit (threaded) or
 * an instruction boundary (eager) after the simulated cycle budget
 * expires.
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

/** The sampler: attach with machine.setSampler(&p, interval), run,
 *  then finish(). */
class SampledProfiler : public CycleSampler
{
  public:
    static constexpr std::size_t defaultCapacity = 1u << 16;

    explicit SampledProfiler(const LoadedImage &image,
                             std::size_t capacity = defaultCapacity);

    void onSample(const Machine &machine) override;
    bool exact() const override { return false; }

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

} // namespace fpc::obs

#endif // FPC_OBS_SAMPLED_PROFILE_HH
