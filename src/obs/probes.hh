/**
 * @file
 * fpc_probe: dynamic probe points with predicates and aggregations,
 * across all host backends (see docs/OBSERVABILITY.md "Dynamic
 * probes").
 *
 * Layering: a ProbeSpec (probe_lang.hh) is image-independent; a
 * ProbeEngine compiles a snapshot of specs against one LoadedImage
 * (name globs bind to entry PCs and code ranges), attaches to one
 * Machine as its ProbeSink, and aggregates matching events into
 * per-spec buffers. A ProbeRegistry owns the attached spec set and
 * the merged totals: drivers attach parsed specs up front, the
 * serving layer attaches/detaches live (PROBE op), and every engine
 * folds its buffers back under the registry lock when its job
 * completes — the per-worker-merge discipline the profiler and
 * telemetry already use.
 *
 * Cost model: probes charge zero simulated cycles, so all simulated
 * numbers are byte-identical with any probe set attached. Host-side,
 * entry/exit probes arm their procedures' code ranges: the machine
 * selectively deoptimizes just the superblocks containing those
 * PCs to the exact eager path (events there read exact absolute
 * cycle/step stamps) while unprobed code keeps full threaded speed.
 * Events fired from unprobed threaded code carry exact refs/cycles
 * *deltas* but absolute stamps with bounded slop (one superblock of
 * decode cycles), deterministically per backend.
 *
 * Determinism: fpc-probes-v1 output is ordered by probe id (attach
 * order), quantize buckets ascending, capture rings sorted by
 * (worker, sequence). Batch drivers force the runtime's static
 * job-to-worker assignment when probes are attached, so identical
 * runs produce byte-identical documents.
 */

#ifndef FPC_OBS_PROBES_HH
#define FPC_OBS_PROBES_HH

#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "machine/machine.hh"
#include "obs/probe_lang.hh"
#include "program/loader.hh"
#include "stats/stats.hh"

namespace fpc::obs
{

/** DTrace-style log2 histogram: bucket 0 counts value 0, bucket k>=1
 *  counts values in [2^(k-1), 2^k). */
struct ProbeQuantize
{
    std::array<CountT, 66> buckets{};

    void
    sample(std::uint64_t value)
    {
        unsigned b = 0;
        if (value != 0)
            b = 64 - static_cast<unsigned>(
                         std::countl_zero(value));
        ++buckets[b];
    }

    void
    merge(const ProbeQuantize &other)
    {
        for (std::size_t i = 0; i < buckets.size(); ++i)
            buckets[i] += other.buckets[i];
    }
};

/** One captured event (Capture action): last-N per worker, merged
 *  rings sorted by (worker, seq) for deterministic output. */
struct ProbeCaptureEntry
{
    std::uint32_t worker = 0;
    std::uint64_t seq = 0; ///< per-worker monotonic match index
    std::uint64_t step = 0;
    Tick cycles = 0;
    CodeByteAddr pc = 0;
    std::uint64_t value = 0;
};

/** Per-spec aggregation buffer; merges via the stats machinery. */
struct ProbeAgg
{
    CountT hits = 0;                  ///< matched events
    stats::Distribution dist;         ///< Sum/Min/Max actions
    ProbeQuantize quant;              ///< Quantize action
    std::vector<ProbeCaptureEntry> ring; ///< Capture action

    void merge(const ProbeAgg &other);
};

/** Per-engine buffers, parallel to a registry snapshot's entries. */
struct ProbeBuffers
{
    std::vector<ProbeAgg> aggs;

    void merge(const ProbeBuffers &other);
};

/**
 * The attached probe set plus merged totals; thread-safe. Attach
 * returns a stable id; snapshots are copy-on-write so engines read
 * the spec set lock-free while the serving layer mutates it between
 * jobs (in-flight jobs keep their snapshot and fold into whatever is
 * still attached when they complete).
 */
class ProbeRegistry
{
  public:
    struct Entry
    {
        std::uint32_t id = 0;
        ProbeSpec spec;
    };
    using Snapshot = std::shared_ptr<const std::vector<Entry>>;

    /** Attach a parsed spec; returns its id. */
    std::uint32_t attach(ProbeSpec spec);

    /** Detach by id; false when no such probe is attached. Its
     *  accumulated totals are dropped with it. */
    bool detach(std::uint32_t id);

    bool active() const;
    std::size_t attachedCount() const;

    /** The current spec set (never null; may be empty). */
    Snapshot snapshot() const;

    /** Fold an engine's buffers into the totals. Buffers index the
     *  snapshot the engine compiled; probes detached since then are
     *  skipped. */
    void fold(const Snapshot &snap, const ProbeBuffers &buffers);

    /** Attached entries with a copy of their merged totals, in
     *  attach order. */
    std::vector<std::pair<Entry, ProbeAgg>> read() const;

    /** The deterministic fpc-probes-v1 document. */
    void writeJson(std::ostream &os, const std::string &driver) const;

    /** Append "probe_<id>_hits" (and, for distribution actions,
     *  "probe_<id>_sum") gauges — the serving layer's telemetry
     *  mirror; exported OpenMetrics families become fpc_probe_*. */
    void gauges(std::vector<std::pair<std::string, double>> &out) const;

  private:
    mutable std::mutex mutex_;
    std::vector<Entry> entries_;           ///< attach order
    std::map<std::uint32_t, ProbeAgg> totals_;
    std::uint32_t nextId_ = 0;
};

/**
 * One machine's probe engine: compiles a registry snapshot against a
 * LoadedImage, implements ProbeSink, and aggregates into per-spec
 * buffers. Maintains its own POD shadow call stack with the
 * profiler's flush discipline (call-like pushes, RETURN pops,
 * Coroutine/ProcSwitch/Trap flush and re-root), which the depth /
 * caller / callstr predicates evaluate against.
 */
class ProbeEngine final : public ProbeSink
{
  public:
    ProbeEngine(ProbeRegistry::Snapshot snapshot,
                const LoadedImage &image, std::string tenant,
                std::uint32_t worker);

    /** Code ranges the Entry/Exit specs armed (for
     *  Machine::setProbeSink); empty when only kind-wide sites are
     *  attached. */
    std::vector<ProbeRange> armedRanges() const;

    const ProbeBuffers &buffers() const { return buffers_; }
    const ProbeRegistry::Snapshot &snapshot() const { return snap_; }

    /** Fold this engine's buffers into the registry and clear them
     *  (call after detaching from the machine). */
    void finishInto(ProbeRegistry &registry);

    /** @name ProbeSink. @{ */
    void onProbeXfer(XferKind kind, CountT refs, Tick cycles,
                     const Machine &machine) override;
    void onProbeFrameAlloc(unsigned fsi, bool fast,
                           const Machine &machine) override;
    void onProbeFrameFree(unsigned fsi, bool fast,
                          const Machine &machine) override;
    void onProbeTrap(Word code, const Machine &machine) override;
    /** @} */

  private:
    struct Compiled
    {
        const ProbeSpec *spec = nullptr;
        /** Entry/Exit sites: matching procedures' entry PCs. */
        std::vector<CodeByteAddr> entryPcs; ///< sorted
        /** Tenant predicates pre-evaluated (they cannot change
         *  mid-job). */
        bool tenantPass = true;
    };

    struct Frame
    {
        CodeByteAddr entry = 0;
        std::uint32_t proc = ~0u; ///< index into procs_, ~0u unknown
    };

    /** One event, normalized across the four hook flavors. */
    struct Event
    {
        CountT refs = 0;
        Tick cycles = 0;
        std::uint64_t depth = 0;
        std::uint64_t fsi = 0;
        bool fsiValid = false;
        /** caller/callstr evaluate against the shadow stack up to
         *  (and including) this index; ~0u disables them. */
        std::size_t topIndex = 0;
    };

    bool specMatchesPc(const Compiled &c, CodeByteAddr pc) const;
    bool predicatesPass(const Compiled &c, const Event &ev) const;
    std::uint64_t exprValue(const ProbeSpec &spec,
                            const Event &ev) const;
    void fire(std::size_t index, const Event &ev,
              const Machine &machine);
    void pushFrame(CodeByteAddr entry);
    void flushStack(const Machine &machine);
    std::string frameName(const Frame &frame) const;

    ProbeRegistry::Snapshot snap_;
    std::vector<Compiled> compiled_;
    ProbeBuffers buffers_;
    std::string tenant_;
    std::uint32_t worker_ = 0;
    std::uint64_t seq_ = 0; ///< capture sequence, all specs

    /** Procedure table from the image: entry PC -> index, plus name
     *  and static frame-size class for predicates/exprs. */
    struct Proc
    {
        CodeByteAddr entry = 0; ///< post-prologue landing PC
        CodeByteAddr begin = 0; ///< prologueAddr (range start)
        CodeByteAddr end = 0;   ///< one past the body's last byte
        unsigned fsi = 0;
        std::string name;
    };
    std::vector<Proc> procs_;
    std::unordered_map<CodeByteAddr, std::uint32_t> procByEntry_;
    std::vector<Frame> stack_;

    /** Any Entry/Exit spec attached (stack bookkeeping is only
     *  needed when name sites or context predicates exist — kept
     *  unconditional for simplicity; it is POD-cheap). */
    bool anyNameSite_ = false;
};

/** Parse a list of --probe= strings into registry attachments;
 *  returns false with a diagnosis naming the offending spec. */
bool attachProbeSpecs(ProbeRegistry &registry,
                      const std::vector<std::string> &specs,
                      std::string &err);

} // namespace fpc::obs

#endif // FPC_OBS_PROBES_HH
