/**
 * @file
 * Layer 2 of the runtime: independent Machines on OS threads, one
 * reusable execution context per worker.
 *
 * The simulated processor is single-threaded by construction (one
 * Memory, one register file), so throughput comes from running many
 * of them: each worker owns a private Memory/LoadedImage/Machine per
 * job, executes it to completion, and folds its MachineStats and a
 * per-worker stat registry into the runtime's merged view at join.
 * Jobs are compiled MiniMesa programs (or generated synthetic ones);
 * with MachineConfig::timesliceSteps set, every worker also exercises
 * the in-VM preemption path, so the throughput numbers include the
 * process-switch overhead the paper's §7.1 fallback prescribes.
 *
 * Every driver runs its programs here: fpcvm and `fpcreplay record`
 * submit a one-job batch to one worker, so executeJob is the one place
 * that builds a Machine and attaches observers to it.
 */

#ifndef FPC_SCHED_RUNTIME_HH
#define FPC_SCHED_RUNTIME_HH

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "machine/machine.hh"
#include "obs/probes.hh"
#include "obs/profile.hh"
#include "obs/sampled_profile.hh"
#include "obs/spans.hh"
#include "obs/telemetry.hh"
#include "obs/trace.hh"
#include "program/loader.hh"
#include "program/module.hh"
#include "replay/record.hh"
#include "stats/stats.hh"

namespace fpc::sched
{

/** One unit of work: run modules' Mod.proc(args) to completion. The
 *  module list is shared — many jobs typically run one program. */
struct Job
{
    Job() = default;
    Job(std::shared_ptr<const std::vector<Module>> modules_,
        std::string module_, std::string proc_,
        std::vector<Word> args_, obs::SpanRef span_ = {})
        : modules(std::move(modules_)), module(std::move(module_)),
          proc(std::move(proc_)), args(std::move(args_)), span(span_)
    {
    }

    std::shared_ptr<const std::vector<Module>> modules;
    std::string module;
    std::string proc;
    std::vector<Word> args;

    /** Owning tenant; probe `tenant ==` predicates match against it.
     *  Batch jobs belong to "default", the tenant fpcserve gives a
     *  request that names none. */
    std::string tenant = "default";

    /** Span propagation context (see obs::SpanRef). When requestId is
     *  nonzero the serving layer owns the request/admission/queued/
     *  dispatch/reply brackets and the runtime only brackets execute
     *  (closing the open dispatch phase at execution start); when
     *  zero and RuntimeConfig::spans is set, the runtime synthesizes
     *  a request ⊃ queued ⊃ execute tree itself (batch mode). */
    obs::SpanRef span;
};

/** What became of one job. */
struct JobResult
{
    unsigned id = 0;
    unsigned worker = 0;
    bool ok = false;
    StopReason reason = StopReason::Running;
    Word value = 0;       ///< top-level return value, when ok
    std::vector<Word> output; ///< the words the program wrote with OUT
    std::string error;    ///< failure message, when !ok
    std::uint64_t steps = 0;
    Tick cycles = 0;

    /** Host steady-clock brackets of the execution itself
     *  (obs::SpanCollector::nowNs() epoch), stamped whether or not
     *  span collection is on; 0/0 for canceled jobs that never ran.
     *  The serving layer derives queue-wait/execute attribution from
     *  these without re-reading clocks. */
    std::int64_t execStartNs = 0;
    std::int64_t execEndNs = 0;
};

struct RuntimeConfig
{
    unsigned workers = 1;
    MachineConfig machine;
    LinkPlan plan;

    /** Cooperative cancellation: when non-null and set, workers stop
     *  starting jobs — anything not yet begun completes immediately
     *  as failed ("canceled: drain requested") — but every job still
     *  gets a result and the merged stats stay valid. Drivers point
     *  this at their SIGINT/SIGTERM flag. */
    const std::atomic<bool> *stopFlag = nullptr;

    /** Extra gauges appended to every worker's telemetry samples when
     *  metrics are on (the serving layer injects queue depth and
     *  tenant gauges this way). Called on worker threads, so it must
     *  be thread-safe. */
    obs::Telemetry::GaugeProvider gaugeProvider;

    /** Record per-worker XFER traces (see obs::Tracer). In batch
     *  run() this forces the static job-to-worker assignment (job i →
     *  worker i mod stride) so tracks are byte-identical across runs.
     *  Slot jobs record too, with a different determinism contract:
     *  a job's whole trace (and its spans) land on the track of the
     *  slot that executed it — JobResult::worker — so tracks are
     *  stable given the execution, not across executions. */
    bool trace = false;
    std::size_t traceCapacity = obs::Tracer::defaultCapacity;

    /** Span sink shared with the serving layer (may be null). Spans
     *  are host-time only: collection never touches the Machine, so
     *  simulated stats/metrics are byte-identical with spans on or
     *  off and span collection adds zero simulated cycles. */
    obs::SpanCollector *spans = nullptr;

    /** Attribute cycles to procedures (merged across all jobs). */
    bool profile = false;

    /** Sampled profiling: attribute cycle shares from boundary
     *  samples (see obs::SampledProfiler) instead of observing every
     *  XFER, so no per-transfer hook runs.
     *  Merged across all jobs; statistical, so it does not force the
     *  static assignment. */
    bool profileSampled = false;
    /** Simulated-cycle budget between profile samples. Prime by
     *  default so tight loops don't alias the sampling clock. */
    Tick sampleInterval = 9973;

    /** Record a per-worker metrics time series (see obs::Telemetry):
     *  each job is sampled every metricsInterval simulated cycles and
     *  bracketed with a start and end snapshot; consecutive jobs lay
     *  out consecutively on their worker's series. Forces the static
     *  job-to-worker assignment so the series are reproducible. */
    bool metrics = false;
    Tick metricsInterval = obs::Telemetry::defaultInterval;
    std::size_t metricsCapacity = obs::Telemetry::defaultCapacity;

    /** Clock the telemetry off boundary samples instead of the exact
     *  cycle sampler: sample stamps obey the bounded-slop contract
     *  (machine/machine.hh) and accelerated runs keep their fast
     *  paths. Ignored — exact forced — when record is set: replay
     *  needs the exact sampler chain. */
    bool metricsSampled = false;

    /** When nonempty, every failed job writes a postmortem bundle
     *  ("job-<id>-postmortem.json" + disassembly; "postmortem.json"
     *  in a one-job batch) into this directory, with the final
     *  telemetry sample when metrics are on. Forces the static
     *  assignment, like trace. */
    std::string postmortemDir;

    /** Record every job's execution history (scheduler decisions +
     *  periodic state digests on metricsInterval) into a
     *  replay::JobRecord, retrievable with jobRecords() after run().
     *  Forces the static assignment so job→worker mapping — part of
     *  the fpc-record-v1 header — is reproducible. */
    bool record = false;

    /** Dynamic probes (see obs/probes.hh). When non-null and active,
     *  every job compiles the registry's current snapshot against its
     *  image, attaches a ProbeEngine as one of the machine's observers
     *  (exact on the threaded loop, like every observer), and folds
     *  its aggregation buffers back
     *  at completion. Probes are host-time only — simulated stats /
     *  metrics / traces stay byte-identical with any probe set
     *  attached — but batch run() forces the static job-to-worker
     *  assignment while probes are attached so fpc-probes-v1 capture
     *  rings are reproducible. */
    obs::ProbeRegistry *probes = nullptr;

    /** Identity stamped into metrics/postmortem exports. */
    std::string driver = "runtime";
};

/**
 * The multi-worker runtime, usable two ways.
 *
 * Batch mode: submit() jobs, then run() once; results come back in
 * job order, and the merged statistics describe all workers
 * together.
 *
 * Slot mode (the serving shape): startSlots() gives each of
 * config.workers execution slots its reusable context, and
 * runInSlot(k, job) runs one job to completion on the caller's
 * thread in slot k. The caller owns the threads and decides which
 * one runs what; serve::Server's serving threads run the jobs they
 * read. stopSlots() folds the slots' counters into the merged view.
 * Each slot's context — the Memory allocation and Machine — survives
 * across jobs (the store is zeroed and the image reloaded, so
 * simulated behavior is identical to a fresh machine).
 */
class Runtime
{
  public:
    explicit Runtime(RuntimeConfig config);
    ~Runtime();

    /** Enqueue a job for batch mode; returns its id (results
     *  index). */
    unsigned submit(Job job);

    /** Run every submitted job across the workers; blocks until all
     *  are done. May be called once per Runtime (guarded — reuse
     *  panics; long-lived callers use the slot API instead). */
    std::vector<JobResult> run();

    /** @name Slot mode
     * @{ */

    /** Give each of config.workers slots its context, trace track and
     *  metrics series. Panics after run(), when called twice, or with
     *  record on (a recording needs batch run()'s static stride). */
    void startSlots();

    /** Run job to completion on the calling thread in slot `slot`
     *  (< workers()); JobResult::worker is `slot`. At most one thread
     *  may be inside a given slot at a time. Honors
     *  RuntimeConfig::stopFlag like run(). */
    JobResult runInSlot(unsigned slot, const Job &job);

    /** Fold every slot's counters into the merged view. No job may be
     *  running. Idempotent; also run by the destructor. */
    void stopSlots();
    /** @} */

    /** The worker threads the batch ran: min(workers, jobs) after
     *  run(), the slot count after startSlots() (same as
     *  stride()). */
    unsigned workers() const { return stride(); }

    /** Per-worker machine counters summed at join (valid after
     *  run()). */
    const MachineStats &machineStats() const { return merged_; }

    /** Host-acceleration counters summed across all workers (valid
     *  after run(); all zero when acceleration is off). */
    const AccelStats &accelStats() const { return mergedAccel_; }

    /** Storage references and frame-heap counters summed across all
     *  jobs (valid after run()). */
    const MemoryStats &memoryStats() const { return mergedMemory_; }
    const FrameHeapStats &heapStats() const { return mergedHeap_; }

    /** The merged "fpc_runtime" stat registry: job counts, per-job
     *  step/cycle distributions (valid after run()). */
    const stats::StatGroup &stats() const { return group_; }

    /** Merged per-procedure profile (valid after run() when
     *  RuntimeConfig::profile was set). */
    const obs::ProfileData &profile() const { return profile_; }

    /** Merged sampled profile (valid after run() or stopSlots() when
     *  RuntimeConfig::profileSampled was set). */
    const obs::SampledProfile &sampledProfile() const
    {
        return sampledProfile_;
    }

    /** Host-acceleration counters folded per completed job, readable
     *  mid-run (accelStats() only folds at join): the serving layer's
     *  live scrape reads accel gauges from here. */
    AccelStats liveAccelStats() const;

    /** Write the multi-worker Chrome trace — one track per worker
     *  (valid after run() or stopSlots() when RuntimeConfig::trace was
     *  set). */
    void writeTrace(std::ostream &os) const;

    /** The per-worker XFER tracers themselves (empty unless trace is
     *  on), for embedding into combined span/XFER documents. */
    std::vector<const obs::Tracer *> tracers() const;

    /** Write the fpc-metrics-v1 document — one series per worker
     *  (valid after run() when RuntimeConfig::metrics was set). */
    void writeMetricsJson(std::ostream &os) const;

    /** Same series in OpenMetrics text exposition format. */
    void writeOpenMetrics(std::ostream &os) const;

    /** Per-job recorded histories, indexed by job id (valid after
     *  run() when RuntimeConfig::record was set). */
    const std::vector<replay::JobRecord> &jobRecords() const
    {
        return jobRecords_;
    }

    /** The static-assignment stride actually used (min(workers,
     *  jobs)); the fpc-record-v1 header's "stride". */
    unsigned stride() const
    {
        return static_cast<unsigned>(stride_);
    }

    /** The recorded image hash (valid after run() with record on). */
    std::uint64_t recordedImageHash() const
    {
        return recordedImageHash_.load(std::memory_order_relaxed);
    }

    /** A worker's reusable simulated machine. The Memory allocation
     *  persists across jobs; prepareContext() resets the store and
     *  reloads the image, so each job still sees a pristine machine
     *  and the simulated numbers are identical to building everything
     *  fresh. */
    struct ExecContext
    {
        SystemLayout layout;
        std::unique_ptr<Memory> mem;
        std::optional<LoadedImage> image;
        std::optional<Machine> machine;
        std::uint64_t builds = 0; ///< fresh Memory allocations
        std::uint64_t reuses = 0; ///< jobs that recycled the Memory
    };

    /** Make ctx ready for job: drop the previous job's Machine, then
     *  allocate the store or reset it (Memory::clear, resetStats),
     *  then load the job's image under plan. Afterwards the store is
     *  word-for-word a fresh Memory with the image loaded. */
    static void prepareContext(ExecContext &ctx, const Job &job,
                               const LinkPlan &plan);

  private:

    /** One worker's state — a batch thread's or a slot's: its
     *  reusable context, the observers it records into, and the
     *  counters it folds into the merged view. */
    struct Worker
    {
        Worker(Runtime &rt, unsigned id);

        unsigned id;
        ExecContext ctx;
        MachineStats machine;
        AccelStats accel;
        MemoryStats memory;
        FrameHeapStats heap;
        obs::ProfileData profile;
        obs::SampledProfile sampled;
        obs::Tracer *tracer = nullptr;
        obs::Telemetry *telemetry = nullptr;
        stats::StatGroup group{"fpc_runtime"};
        stats::Counter &jobsCompleted;
        stats::Counter &jobsFailed;
        stats::Distribution &jobSteps;
        stats::Distribution &jobCycles;
        stats::Counter &contextBuilds;
        stats::Counter &contextReuses;
        /** This worker's job progress, a gauge in its samples. */
        double jobsDone = 0;
        double jobsAssigned = 0;
    };

    /** A batch thread: the static stride when next is null, else the
     *  next unstarted job from the shared index. */
    void workerMain(unsigned worker_id, std::atomic<std::size_t> *next);
    /** Set the stride to n and give each of n workers its trace track
     *  and metrics series (when configured). */
    void buildTracks(unsigned n);
    /** Open request ⊃ queued for a job no serving layer owns. */
    void beginBatchSpans(const Job &job, std::uint64_t sid,
                         std::uint32_t track);
    JobResult runJob(Worker &w, const Job &job, unsigned id);
    JobResult executeJob(const Job &job, unsigned id, Worker &w);
    void fold(Worker &w);
    void closeSpansOnAbort(const Job &job, unsigned id,
                           unsigned worker_id);
    bool stopRequested() const
    {
        return config_.stopFlag != nullptr &&
               config_.stopFlag->load(std::memory_order_relaxed);
    }

    /** Reproducible observation wants the static job-to-worker
     *  stride instead of the shared index. */
    bool staticAssignment() const
    {
        return config_.trace || config_.metrics || config_.record ||
               !config_.postmortemDir.empty() ||
               (config_.probes != nullptr && config_.probes->active());
    }
    obs::MetricsExport metricsMeta() const;

    RuntimeConfig config_;
    std::vector<Job> jobs_;
    std::vector<JobResult> results_;
    std::mutex mergeMutex_;
    MachineStats merged_;
    AccelStats mergedAccel_;
    MemoryStats mergedMemory_;
    FrameHeapStats mergedHeap_;
    stats::StatGroup group_{"fpc_runtime"};
    obs::ProfileData profile_;
    obs::SampledProfile sampledProfile_;
    mutable std::mutex liveMutex_;
    AccelStats liveAccel_;
    std::vector<std::unique_ptr<obs::Tracer>> tracers_;
    std::vector<std::unique_ptr<obs::Telemetry>> telemetry_;
    std::vector<replay::JobRecord> jobRecords_;
    std::atomic<std::uint64_t> recordedImageHash_{0};
    std::size_t stride_ = 0; ///< stride for the static assignment
    bool ran_ = false;

    // Slot mode.
    std::vector<std::unique_ptr<Worker>> slots_;
    std::atomic<unsigned> nextSlotJobId_{0};
    bool slotsStarted_ = false;
};

} // namespace fpc::sched

#endif // FPC_SCHED_RUNTIME_HH
