/**
 * @file
 * XFER tracing: a fixed-capacity per-machine ring buffer of transfer
 * events, exported as Chrome trace-event / Perfetto-compatible JSON.
 *
 * Each recorded event is one complete ("X") slice whose width is the
 * cycles the transfer itself consumed — the paper's headline metric
 * made visible: expensive Mesa-path calls render as wide slices,
 * jump-fast I3/I4 calls as zero-width ticks, and the gaps between
 * slices are straight-line execution. One track (Chrome tid) per
 * Runtime worker turns an fpcrun batch into a multi-worker timeline.
 *
 * Ticks are simulated cycles (exported 1 cycle = 1 "microsecond"), so
 * traces are byte-identical across runs of the same program, seed and
 * configuration.
 */

#ifndef FPC_OBS_TRACE_HH
#define FPC_OBS_TRACE_HH

#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "machine/machine.hh"

namespace fpc::obs
{

class ProcMap;

/** One recorded transfer. */
struct TraceEvent
{
    XferKind kind = XferKind::ExtCall;
    Word srcCtx = nilContext;
    Word dstCtx = nilContext;
    Addr frame = nilAddr;      ///< destination local frame
    CodeByteAddr pc = 0;       ///< destination PC
    unsigned depth = 0;        ///< shadow depth of the activation the
                               ///< event enters, leaves or re-roots
    Tick start = 0;            ///< base-offset cycles at begin
    Tick end = 0;              ///< base-offset cycles at completion
    CountT refs = 0;
    std::uint64_t step = 0;
    unsigned nameIdx = noName; ///< interned name, or noName = kind name

    static constexpr unsigned noName = ~0u;
};

/**
 * The observer: a drop-oldest ring of TraceEvents. Recording is a few
 * array stores per transfer; export happens after the run.
 */
class Tracer : public XferObserver
{
  public:
    static constexpr std::size_t defaultCapacity = 1u << 16;

    explicit Tracer(std::size_t capacity = defaultCapacity);

    void onXfer(const XferRecord &record, const Machine &machine) override;

    /** Tick offset added to subsequent events — a Runtime worker
     *  advances this between jobs so consecutive jobs lay out
     *  consecutively on its track. */
    void setBase(Tick base) { base_ = base; }
    Tick base() const { return base_; }

    /** Name call destinations "Module.proc" via the map (may be null;
     *  consulted at record time and interned, so the map need not
     *  outlive the job that set it). */
    void setProcMap(const ProcMap *map) { procMap_ = map; }

    std::size_t capacity() const { return capacity_; }
    /** Events seen since the last clear(). */
    CountT recorded() const { return recorded_; }
    /** Events discarded by the drop-oldest ring over the tracer's
     *  whole lifetime — the count survives clear() and setBase(), so
     *  a runtime worker re-based between jobs still reports every
     *  event any of its epochs lost. */
    CountT dropped() const { return dropped_; }

    /** Oldest-first snapshot of the retained events. */
    std::vector<TraceEvent> events() const;
    const std::string &name(unsigned name_idx) const;

    void clear();

  private:
    unsigned intern(const std::string &name);

    std::size_t capacity_;
    std::vector<TraceEvent> ring_;
    std::size_t head_ = 0; ///< next write slot once the ring is full
    CountT recorded_ = 0;
    CountT dropped_ = 0;   ///< lifetime drops, across all epochs
    Tick base_ = 0;
    const ProcMap *procMap_ = nullptr;
    std::vector<std::string> names_;
    std::map<std::string, unsigned> nameIndex_;
};

/**
 * Write Chrome trace-event JSON ("traceEvents" array form): one "X"
 * slice per retained event, track metadata naming each tid
 * "worker N". Loadable in Perfetto / chrome://tracing.
 */
void writeChromeTrace(std::ostream &os,
                      const std::vector<const Tracer *> &tracks);

/** @name Building blocks for combined documents (see obs/spans.hh).
 *  Append events to an already-open "traceEvents" array; `first`
 *  tracks whether a comma is needed and is updated in place. @{ */
void writeChromeThreadName(std::ostream &os, unsigned pid, unsigned tid,
                           const std::string &name, bool &first);
void writeChromeTraceEvents(std::ostream &os, const Tracer &tracer,
                            unsigned pid, unsigned tid, bool &first);
/** @} */

} // namespace fpc::obs

#endif // FPC_OBS_TRACE_HH
