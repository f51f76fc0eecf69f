/**
 * @file
 * Time-series telemetry: a deterministic gauge sampler clocked on
 * simulated cycles, with JSON ("fpc-metrics-v1") and OpenMetrics
 * text-exposition exporters.
 *
 * The paper's claims are steady-state behaviors — ~10% frame-heap
 * fragmentation (§5.3), IFU return-stack residency (§6), bank
 * occupancy (§7) — and end-of-run aggregates cannot show how those
 * gauges *evolve*. A Telemetry attaches to a Machine's CycleSampler
 * slot and snapshots every layer's gauges into a fixed-capacity,
 * drop-oldest ring each time simulated time crosses an interval
 * boundary.
 *
 * Because the clock is simulated cycles and every gauge read is
 * unaccounted (zero simulated cost), the series is byte-identical
 * across runs and across the host-acceleration switch. The one
 * exception — host cache hit rates, which legitimately differ — is
 * captured but only exported on explicit request, exactly like
 * --accel-stats in the fpc-stats-v1 document.
 */

#ifndef FPC_OBS_TELEMETRY_HH
#define FPC_OBS_TELEMETRY_HH

#include <functional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "machine/machine.hh"

namespace fpc::obs
{

/** One gauge snapshot, stamped with the simulated clock. */
struct MetricsSample
{
    Tick cycles = 0;
    std::uint64_t steps = 0;

    // Machine: cumulative per-kind transfer counts (rates fall out of
    // deltas between consecutive samples) and instantaneous depths.
    std::array<CountT, MachineStats::numXferKinds> xferCount{};
    CountT calls = 0;
    CountT returns = 0;
    CountT preemptions = 0;
    double fastCallReturnRate = 0.0;
    unsigned returnStackDepth = 0;
    unsigned banksResident = 0; ///< banks currently owning a frame

    // FrameHeap: live-frame census, fragmentation, AV occupancy.
    CountT liveFrames = 0;
    double fragmentation = 0.0;
    std::vector<unsigned> freeFrames; ///< per size class, index = fsi

    // Host-acceleration hit rates. Captured always, exported only on
    // request: the default export must stay byte-identical with
    // acceleration on or off, and these are the one thing that
    // legitimately differs.
    bool accelEnabled = false;
    double icacheHitRate = 0.0;
    double linkHitRate = 0.0;
    /** Threaded-backend internals (zero when the backend is off):
     *  chain-served block transitions per superblock execution, fused
     *  superinstruction executions, deferred-accounting folds. */
    double sblockChainRate = 0.0;
    CountT sblockFusionHits = 0;
    CountT deferredFlushes = 0;

    /** Extra gauges contributed by a provider (scheduler/runtime
     *  state the obs layer cannot name without a layering cycle). */
    std::vector<std::pair<std::string, double>> gauges;
};

/**
 * The sampler: attach with machine.setSampler(&telemetry, interval).
 * Samples land in a drop-oldest ring; drivers additionally bracket a
 * run with explicit sample() calls so even programs shorter than one
 * interval export a start and a final point.
 *
 * An exact telemetry (the default) runs the eager loop, so its series
 * is byte-identical across backends. A sampled one (exact = false)
 * keeps the threaded loop running, and its stamps obey the
 * CycleSampler slop contract instead.
 */
class Telemetry : public CycleSampler
{
  public:
    static constexpr std::size_t defaultCapacity = 4096;
    static constexpr Tick defaultInterval = 10000;

    explicit Telemetry(std::size_t capacity = defaultCapacity,
                       bool exact = true);

    /** Appends (name, value) gauges to every subsequent sample. The
     *  scheduler/runtime layers sit above fpc_obs, so their gauges
     *  enter through this hook instead of a direct dependency. */
    using GaugeProvider =
        std::function<void(std::vector<std::pair<std::string, double>> &)>;
    void setProvider(GaugeProvider provider);

    /** Cycle/step offsets added to sample stamps — a Runtime worker
     *  advances these between jobs so consecutive jobs lay out
     *  consecutively on its series and the exported counters stay
     *  monotone (same idea as Tracer::setBase). */
    void setBase(Tick cycle_base, std::uint64_t step_base = 0)
    {
        base_ = cycle_base;
        stepBase_ = step_base;
    }
    Tick base() const { return base_; }
    std::uint64_t stepBase() const { return stepBase_; }

    void onSample(const Machine &machine) override;
    bool exact() const override { return exact_; }

    /** Take a snapshot right now (run bracketing). */
    void sample(const Machine &machine);

    std::size_t capacity() const { return capacity_; }
    CountT recorded() const { return recorded_; }
    /** Samples discarded by the ring over the telemetry's lifetime. */
    CountT dropped() const { return dropped_; }

    /** Oldest-first snapshot of the retained samples. */
    std::vector<MetricsSample> samples() const;

    void clear();

  private:
    std::size_t capacity_;
    bool exact_;
    std::vector<MetricsSample> ring_;
    std::size_t head_ = 0; ///< next write slot once the ring is full
    CountT recorded_ = 0;
    CountT dropped_ = 0;
    Tick base_ = 0;
    std::uint64_t stepBase_ = 0;
    GaugeProvider provider_;
};

/** Document-level metadata for the metrics exporters. */
struct MetricsExport
{
    std::string driver; ///< "fpcvm" | "fpcrun" | test name
    std::string impl;   ///< implName() of the machine config
    Tick interval = Telemetry::defaultInterval;
    /** Export host-acceleration hit-rate gauges. Off by default: the
     *  default document must be byte-identical with acceleration on
     *  or off. */
    bool includeAccel = false;
};

/**
 * Write the append-only "fpc-metrics-v1" JSON time series: one series
 * per worker (a one-job batch exports exactly one), each an array of samples in
 * time order. Null tracks are skipped.
 */
void writeMetricsJson(std::ostream &os, const MetricsExport &meta,
                      const std::vector<const Telemetry *> &workers);

/**
 * Write the series in OpenMetrics text exposition format: one
 * `# TYPE`/`# HELP` header per metric family, `worker`/`impl` (and
 * where applicable `kind`/`fsi`) labels, counters suffixed `_total`,
 * each sample stamped with its simulated-cycle timestamp, and the
 * mandatory `# EOF` terminator.
 */
void writeOpenMetrics(std::ostream &os, const MetricsExport &meta,
                      const std::vector<const Telemetry *> &workers);

} // namespace fpc::obs

#endif // FPC_OBS_TELEMETRY_HH
