/**
 * @file
 * Per-procedure profiling over the Machine's XFER observer hook.
 *
 * The profiler reads the machine's shadow call stack (see
 * XferObserver), naming each activation through a ProcMap built from
 * the LoadedImage. Exclusive cycles are attributed to the procedure
 * on top of the stack as simulated time advances; inclusive cycles
 * are closed when an activation leaves the stack.
 *
 * Coroutine Switch, ProcSwitch and Trap transfers break LIFO order,
 * so — exactly the way I3 flushes its return stack on an unusual
 * XFER — the machine flushes the stack and re-roots it at the
 * destination, and the profiler closes every activation it flushed.
 * Cycles therefore never dangle, and the invariant
 *
 *     sum over procedures of exclusive cycles  ==  total cycles
 *
 * holds exactly (cycles outside any procedure land in the "(idle)"
 * bucket; resumed activations restart their inclusive interval).
 */

#ifndef FPC_OBS_PROFILE_HH
#define FPC_OBS_PROFILE_HH

#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "machine/machine.hh"
#include "program/loader.hh"
#include "stats/table.hh"

namespace fpc::obs
{

/** Bucket for simulated time spent outside any known procedure. */
extern const std::string idleProcName;

/** Maps code byte addresses to "Module.proc" procedure names. */
class ProcMap
{
  public:
    ProcMap() = default;
    explicit ProcMap(const LoadedImage &image);

    /** Name of the procedure whose code contains pc, or null. */
    const std::string *find(CodeByteAddr pc) const;

    std::size_t size() const { return ranges_.size(); }

  private:
    struct Range
    {
        CodeByteAddr end = 0;
        std::string name;
    };
    std::map<CodeByteAddr, Range> ranges_; ///< keyed by start address
};

/** What one procedure accumulated. */
struct ProcProfile
{
    CountT calls = 0;    ///< call-like activations
    CountT resumes = 0;  ///< non-LIFO entries (Switch/ProcSwitch/Trap)
    Tick inclusive = 0;  ///< cycles while anywhere on the stack
    Tick exclusive = 0;  ///< cycles while on top of the stack
};

/** Attribution results; mergeable across workers/jobs. */
struct ProfileData
{
    std::map<std::string, ProcProfile> procs;
    /** Folded call stacks ("a;b;c") to exclusive cycles — the
     *  flamegraph.pl input format. */
    std::map<std::string, Tick> folded;
    Tick total = 0; ///< cycles attributed in all merged runs

    void merge(const ProfileData &other);

    /** Sum of per-procedure exclusive cycles (== total by invariant). */
    Tick exclusiveTotal() const;

    /** Top-N procedures by exclusive cycles. */
    stats::Table topTable(std::size_t top_n = 20) const;

    /** One "stack;frames count" line per folded stack. */
    void writeFolded(std::ostream &os) const;
};

/** The observer: attach to a Machine, run, then finish(). */
class Profiler : public XferObserver
{
  public:
    explicit Profiler(const LoadedImage &image) : map_(image) {}

    void onXfer(const XferRecord &record, const Machine &machine) override;

    /** Attribute the tail up to the machine's final cycle count, close
     *  every activation still on its shadow stack, and return the
     *  data. The profiler is reset and may observe another run
     *  afterwards. */
    ProfileData finish(const Machine &machine);

  private:
    using Stack = std::vector<ShadowFrame>;

    /** Charge [lastTick_, now) to the top of the stack's first depth
     *  entries and to their folded key. */
    void attribute(Tick now, const Stack &stack, std::size_t depth);
    void close(const ShadowFrame &frame, Tick now);
    std::string nameAt(CodeByteAddr pc) const;

    ProcMap map_;
    Tick lastTick_ = 0;
    ProfileData data_;
};

} // namespace fpc::obs

#endif // FPC_OBS_PROFILE_HH
