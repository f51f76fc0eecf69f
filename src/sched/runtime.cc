#include "sched/runtime.hh"

#include <algorithm>
#include <exception>
#include <optional>
#include <thread>

#include "common/logging.hh"
#include "frames/size_classes.hh"
#include "obs/fanout.hh"
#include "obs/postmortem.hh"
#include "replay/recorder.hh"

namespace fpc::sched
{

Runtime::Runtime(RuntimeConfig config) : config_(std::move(config))
{
    if (config_.workers == 0)
        config_.workers = 1;
}

Runtime::~Runtime()
{
    stopSlots();
}

unsigned
Runtime::submit(Job job)
{
    if (ran_)
        panic("Runtime::submit after run()");
    if (!job.modules || job.modules->empty())
        panic("Runtime::submit: job has no modules");
    const auto id = static_cast<unsigned>(jobs_.size());
    jobs_.push_back(std::move(job));
    return id;
}

void
Runtime::prepareContext(ExecContext &ctx, const Job &job,
                        const LinkPlan &plan)
{
    // Tear down the previous job's machine before touching the
    // memory and image it references.
    ctx.machine.reset();
    if (!ctx.mem) {
        ctx.mem = std::make_unique<Memory>(ctx.layout.memWords);
        ++ctx.builds;
    } else {
        // Reuse keeps the allocation but nothing else: clearing the
        // store and reloading the image below leaves simulated state
        // byte-identical to a fresh Memory, so results, stats and
        // replay digests don't depend on which jobs shared a context.
        ctx.mem->clear();
        ctx.mem->resetStats();
        ++ctx.reuses;
    }
    Loader loader{ctx.layout, SizeClasses::standard()};
    for (const Module &m : *job.modules)
        loader.add(m);
    ctx.image.emplace(loader.load(*ctx.mem, plan));
}

/**
 * A job that will never execute (canceled) or died mid-execution (an
 * exception out of executeJob) must not leave spans open: close
 * whatever phase (and step) is open as failed, and for batch jobs
 * (which have no serving layer to do it) the request span too.
 */
void
Runtime::closeSpansOnAbort(const Job &job, unsigned id,
                           unsigned worker_id)
{
    if (config_.spans == nullptr)
        return;
    const std::uint64_t sid =
        job.span.requestId != 0 ? job.span.requestId
                                : static_cast<std::uint64_t>(id) + 1;
    const std::int64_t t = obs::SpanCollector::nowNs();
    config_.spans->endPhase(sid, t, false, obs::SpanTrack::Worker,
                            worker_id);
    if (job.span.requestId == 0)
        config_.spans->endRequestIfOpen(sid, t, false,
                                        obs::SpanTrack::Worker,
                                        worker_id);
}

Runtime::Worker::Worker(Runtime &rt, unsigned id_)
    : id(id_),
      jobsCompleted(group.counter("jobs_completed",
                                  "jobs that finished ok")),
      jobsFailed(group.counter("jobs_failed",
                               "jobs that stopped on an error")),
      jobSteps(group.distribution("job_steps", "instructions per job")),
      jobCycles(group.distribution("job_cycles",
                                   "simulated cycles per job")),
      contextBuilds(group.counter("context_builds",
                                  "fresh per-worker machine contexts")),
      contextReuses(group.counter("context_reuses",
                                  "jobs that recycled a worker context"))
{
    // A job's trace and series land on the track of the worker that
    // executes it (matching JobResult::worker and the job's spans).
    if (rt.config_.trace && id < rt.tracers_.size())
        tracer = rt.tracers_[id].get();
    if (rt.config_.metrics && id < rt.telemetry_.size())
        telemetry = rt.telemetry_[id].get();
    if (telemetry != nullptr) {
        telemetry->setProvider(
            [this, &rt](std::vector<std::pair<std::string, double>> &g) {
                g.emplace_back("worker_jobs_done", jobsDone);
                g.emplace_back("worker_jobs_assigned", jobsAssigned);
                if (rt.config_.gaugeProvider)
                    rt.config_.gaugeProvider(g);
            });
    }
}

JobResult
Runtime::runJob(Worker &w, const Job &job, unsigned id)
{
    ++w.jobsAssigned;
    JobResult r;
    std::string failure;
    if (stopRequested()) {
        failure = "canceled: drain requested";
    } else {
        try {
            r = executeJob(job, id, w);
        } catch (const std::exception &err) {
            failure = err.what();
        }
    }
    if (!failure.empty()) {
        // Canceled, or died mid-execution: a failed result, and no
        // span left open.
        r.id = id;
        r.worker = w.id;
        r.reason = StopReason::Error;
        r.error = std::move(failure);
        closeSpansOnAbort(job, id, w.id);
    }
    if (r.ok)
        ++w.jobsCompleted;
    else
        ++w.jobsFailed;
    w.jobSteps.sample(static_cast<double>(r.steps));
    w.jobCycles.sample(static_cast<double>(r.cycles));
    ++w.jobsDone;
    return r;
}

JobResult
Runtime::executeJob(const Job &job, unsigned id, Worker &w)
{
    JobResult out;
    out.id = id;
    out.worker = w.id;

    // Host-time execution bracket, stamped unconditionally (two clock
    // reads per job) so the serving layer can attribute queue-wait vs
    // execute without span collection on. When a collector is wired,
    // this closes the open phase (serve: dispatch; batch: queued) and
    // opens execute and its prepare step — re-homed to *this*
    // worker's track, whichever track the job's tree began on (span
    // tracks always match JobResult::worker).
    obs::SpanCollector *spans = config_.spans;
    const std::uint64_t sid =
        job.span.requestId != 0 ? job.span.requestId
                                : static_cast<std::uint64_t>(id) + 1;
    out.execStartNs = obs::SpanCollector::nowNs();
    if (spans != nullptr) {
        spans->endPhase(sid, out.execStartNs, true,
                        obs::SpanTrack::Worker, w.id);
        for (const auto kind :
             {obs::SpanKind::Execute, obs::SpanKind::Prepare})
            spans->begin(kind, sid, obs::SpanTrack::Worker, w.id,
                         job.span.tenant, out.execStartNs,
                         job.span.traceId);
    }

    // Each job sees a pristine simulated machine — its own memory,
    // image and processor — but the worker's context (the Memory
    // allocation) persists across jobs. Workers share nothing but
    // the job list, and scale with host cores.
    prepareContext(w.ctx, job, config_.plan);
    Memory &mem = *w.ctx.mem;
    const LoadedImage &image = *w.ctx.image;
    if (config_.record) {
        // Hash before the Machine exists: its FrameHeap constructor
        // rewrites the AV, and replay hashes at this same point.
        recordedImageHash_.store(replay::imageHash(mem, image),
                                 std::memory_order_relaxed);
    }

    w.ctx.machine.emplace(mem, image, config_.machine);
    Machine &machine = *w.ctx.machine;
    if (spans != nullptr) {
        // Prepare is the store reset, the image load and the Machine
        // build; run is everything after, observers included.
        const std::int64_t t = obs::SpanCollector::nowNs();
        spans->end(obs::SpanKind::Prepare, sid, t, true);
        spans->begin(obs::SpanKind::Run, sid, obs::SpanTrack::Worker,
                     w.id, job.span.tenant, t, job.span.traceId);
    }
    obs::Telemetry *telemetry = w.telemetry;

    // Observers and samplers are per-job: the ProcMap indexes this
    // job's image, and the tracer interns names at record time, so
    // nothing here has to outlive the job. One fanout takes both of
    // the machine's slots; each sampler keeps its own interval.
    obs::ProcMap procMap;
    obs::Fanout fanout;
    std::optional<obs::Profiler> profiler;
    if (w.tracer != nullptr || config_.profile)
        procMap = obs::ProcMap(image);
    if (w.tracer != nullptr) {
        w.tracer->setProcMap(&procMap);
        fanout.add(w.tracer);
    }
    if (config_.profile) {
        profiler.emplace(image);
        fanout.add(&*profiler);
    }
    std::optional<obs::FlightRecorder> recorder;
    if (!config_.postmortemDir.empty()) {
        recorder.emplace();
        fanout.add(&*recorder);
    }

    replay::Recorder replayRec;
    if (config_.record) {
        replayRec.beginJob(id, w.id);
        fanout.add(&replayRec, config_.metricsInterval);
    }
    fanout.add(telemetry, config_.metricsInterval);
    std::optional<obs::SampledProfiler> sampledProfiler;
    if (config_.profileSampled) {
        sampledProfiler.emplace(image);
        fanout.add(&*sampledProfiler, config_.sampleInterval);
    }

    // Dynamic probes: compile the registry's current snapshot against
    // this job's image.
    std::optional<obs::ProbeEngine> probeEngine;
    if (config_.probes != nullptr) {
        obs::ProbeRegistry::Snapshot snap = config_.probes->snapshot();
        if (!snap->empty()) {
            probeEngine.emplace(std::move(snap), image, job.tenant,
                                w.id);
            fanout.add(&*probeEngine);
        }
    }
    fanout.attach(machine);

    if (config_.machine.timesliceSteps > 0) {
        // A single-process workload still takes the full ProcSwitch
        // XFER on every timeslice: the scheduler hook hands back the
        // current context and the engine pays the fallback.
        Machine::Scheduler policy =
            [](Machine &m) { return m.currentFrameContext(); };
        if (config_.record)
            policy = replayRec.wrapPolicy(std::move(policy));
        machine.setScheduler(std::move(policy));
    }

    machine.start(job.module, job.proc, job.args);
    // Bracket the run: even jobs shorter than one interval export a
    // start and a final point.
    if (config_.record)
        replayRec.sample(machine);
    if (telemetry != nullptr)
        telemetry->sample(machine);
    const RunResult result = machine.run();
    if (config_.record) {
        replayRec.finish(machine, result);
        jobRecords_[id] = replayRec.takeJob(); // distinct slot: no lock
    }
    if (telemetry != nullptr)
        telemetry->sample(machine);

    out.reason = result.reason;
    out.steps = machine.stats().steps;
    out.cycles = machine.stats().cycles;
    out.output = machine.output();
    if (result.reason == StopReason::TopReturn) {
        out.ok = true;
        out.value = machine.popValue();
    } else if (result.reason == StopReason::Halted) {
        out.ok = true;
    } else {
        out.error = result.message;
    }
    w.machine.merge(machine.stats());
    w.accel.merge(machine.accelStats());
    w.memory.merge(mem.stats());
    w.heap.merge(machine.heap().stats());
    {
        // Fold per job so a live scrape (serving) can surface accel
        // gauges mid-run: mergedAccel_ only folds at join.
        std::lock_guard<std::mutex> lock(liveMutex_);
        liveAccel_.merge(machine.accelStats());
    }

    out.execEndNs = obs::SpanCollector::nowNs();
    if (spans != nullptr) {
        spans->end(obs::SpanKind::Run, sid, out.execEndNs, out.ok);
        spans->end(obs::SpanKind::Execute, sid, out.execEndNs, out.ok);
        if (job.span.requestId == 0) {
            // Batch jobs have no serving layer to close the request:
            // the tree is request ⊃ queued ⊃ execute ⊃ prepare, run,
            // all ending here, re-homed to the executing worker.
            spans->end(obs::SpanKind::Request, sid, out.execEndNs,
                       out.ok, obs::SpanTrack::Worker, w.id);
        }
    }

    if (!out.ok && recorder) {
        obs::PostmortemConfig pm;
        pm.dir = config_.postmortemDir;
        // A one-job batch is a single run: its bundle needs no job id.
        if (jobs_.size() != 1)
            pm.filePrefix = "job-" + std::to_string(id) + "-";
        pm.driver = config_.driver;
        pm.impl = implName(config_.machine.impl);
        if (obs::writePostmortem(pm, machine, result, image, *recorder,
                                 telemetry))
            inform("{}: postmortem bundle written to {}", config_.driver,
                   config_.postmortemDir);
    }

    if (telemetry != nullptr) {
        // As with the tracer: consecutive jobs lay out consecutively
        // on this worker's series, and the counters stay monotone.
        telemetry->setBase(telemetry->base() + machine.stats().cycles,
                           telemetry->stepBase() +
                               machine.stats().steps);
    }
    if (w.tracer != nullptr) {
        // Lay consecutive jobs out consecutively on this worker's
        // track; the ProcMap dies with this job.
        w.tracer->setBase(w.tracer->base() + machine.stats().cycles);
        w.tracer->setProcMap(nullptr);
    }
    if (profiler)
        w.profile.merge(profiler->finish(machine));
    if (sampledProfiler)
        w.sampled.merge(sampledProfiler->finish());

    // The machine outlives this call inside the worker's context, but
    // every observer above is a stack local: detach them so nothing
    // dangles between jobs.
    machine.setObserver(nullptr);
    machine.setSampler(nullptr, 0);
    machine.setScheduler(nullptr);
    if (probeEngine)
        probeEngine->finishInto(*config_.probes);

    return out;
}

void
Runtime::fold(Worker &w)
{
    w.contextBuilds += w.ctx.builds;
    w.contextReuses += w.ctx.reuses;
    std::lock_guard<std::mutex> lock(mergeMutex_);
    merged_.merge(w.machine);
    mergedAccel_.merge(w.accel);
    mergedMemory_.merge(w.memory);
    mergedHeap_.merge(w.heap);
    group_.mergeFrom(w.group);
    if (config_.profile)
        profile_.merge(w.profile);
    if (config_.profileSampled)
        sampledProfile_.merge(w.sampled);
}

void
Runtime::workerMain(unsigned worker_id, std::atomic<std::size_t> *next)
{
    // Reproducible observation: jobs stride statically (job i runs on
    // worker i mod n), so tracks and series are the same every run.
    // Otherwise each worker takes the next job nobody has started.
    Worker w(*this, worker_id);
    auto take = [&](std::size_t i) {
        return next != nullptr ? next->fetch_add(1) : i;
    };
    for (std::size_t i = take(worker_id); i < jobs_.size();
         i = take(i + stride_))
        results_[i] = runJob(w, jobs_[i], static_cast<unsigned>(i));
    fold(w);
}

AccelStats
Runtime::liveAccelStats() const
{
    std::lock_guard<std::mutex> lock(liveMutex_);
    return liveAccel_;
}

void
Runtime::buildTracks(unsigned n)
{
    stride_ = n;
    for (std::size_t w = tracers_.size(); config_.trace && w < n; ++w)
        tracers_.push_back(
            std::make_unique<obs::Tracer>(config_.traceCapacity));
    // Sampled telemetry keeps the threaded loop; a recording needs
    // exact digests anyway, so its telemetry is exact too.
    const bool exact = !config_.metricsSampled || config_.record;
    for (std::size_t w = telemetry_.size(); config_.metrics && w < n;
         ++w)
        telemetry_.push_back(std::make_unique<obs::Telemetry>(
            config_.metricsCapacity, exact));
}

void
Runtime::beginBatchSpans(const Job &job, std::uint64_t sid,
                         std::uint32_t track)
{
    // No serving layer owns this job's tree: synthesize
    // request ⊃ queued here (execute and the closes happen in
    // executeJob, re-homed to the executing worker's track). Ids are
    // job id + 1 — distinct from serve request ids only because
    // drivers use one style per process.
    const std::int64_t t = obs::SpanCollector::nowNs();
    for (const auto kind : {obs::SpanKind::Request, obs::SpanKind::Queued})
        config_.spans->begin(kind, sid, obs::SpanTrack::Worker, track,
                             job.span.tenant, t, job.span.traceId);
}

void
Runtime::startSlots()
{
    if (ran_)
        panic("Runtime::startSlots after run()");
    if (slotsStarted_)
        panic("Runtime::startSlots called twice");
    if (config_.record) {
        panic("Runtime slot mode does not support record; batch "
              "run() provides the reproducible static assignment "
              "a recording's job→worker header needs");
    }
    slotsStarted_ = true;
    buildTracks(config_.workers);
    for (unsigned k = 0; k < config_.workers; ++k)
        slots_.push_back(std::make_unique<Worker>(*this, k));
}

JobResult
Runtime::runInSlot(unsigned slot, const Job &job)
{
    if (slot >= slots_.size())
        panic("Runtime::runInSlot: no slot {} (startSlots opened {})",
              slot, slots_.size());
    if (!job.modules || job.modules->empty())
        panic("Runtime::runInSlot: job has no modules");
    const unsigned id = nextSlotJobId_.fetch_add(1);
    if (config_.spans != nullptr && job.span.requestId == 0)
        beginBatchSpans(job, static_cast<std::uint64_t>(id) + 1, slot);
    return runJob(*slots_[slot], job, id);
}

void
Runtime::stopSlots()
{
    for (const auto &w : slots_)
        fold(*w);
    slots_.clear();
}

std::vector<JobResult>
Runtime::run()
{
    if (ran_)
        panic("Runtime::run called twice");
    if (slotsStarted_)
        panic("Runtime::run after startSlots()");
    ran_ = true;
    results_.resize(jobs_.size());
    if (config_.record)
        jobRecords_.resize(jobs_.size());

    const unsigned n =
        std::min<unsigned>(config_.workers,
                           std::max<std::size_t>(1, jobs_.size()));
    buildTracks(n);
    if (config_.spans != nullptr) {
        // Batch request ⊃ queued spans all begin at submission time
        // (run() entry); queue-wait is time until a worker reaches
        // the job.
        for (std::size_t i = 0; i < jobs_.size(); ++i)
            if (jobs_[i].span.requestId == 0)
                beginBatchSpans(jobs_[i], i + 1,
                                static_cast<std::uint32_t>(i % n));
    }
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> *shared =
        staticAssignment() ? nullptr : &next;
    std::vector<std::thread> threads;
    threads.reserve(n);
    for (unsigned w = 0; w < n; ++w)
        threads.emplace_back([this, w, shared] { workerMain(w, shared); });
    for (std::thread &t : threads)
        t.join();

    return results_;
}

void
Runtime::writeTrace(std::ostream &os) const
{
    obs::writeChromeTrace(os, tracers());
    for (const auto &t : tracers_)
        if (t->dropped() > 0)
            warn("{}: trace ring dropped {} of {} events (raise "
                 "--trace-capacity)",
                 config_.driver, t->dropped(), t->recorded());
}

std::vector<const obs::Tracer *>
Runtime::tracers() const
{
    std::vector<const obs::Tracer *> tracks;
    tracks.reserve(tracers_.size());
    for (const auto &t : tracers_)
        tracks.push_back(t.get());
    return tracks;
}

obs::MetricsExport
Runtime::metricsMeta() const
{
    obs::MetricsExport meta;
    meta.driver = config_.driver;
    meta.impl = implName(config_.machine.impl);
    meta.interval = config_.metricsInterval;
    // Sampled series are not byte-identical across the accel switch
    // anyway (their purpose is observing accelerated runs), so they
    // carry the accel gauges; exact series keep the byte-identity
    // contract and never do, whatever else the driver reports.
    meta.includeAccel = config_.metricsSampled && !config_.record;
    return meta;
}

void
Runtime::writeMetricsJson(std::ostream &os) const
{
    std::vector<const obs::Telemetry *> series;
    series.reserve(telemetry_.size());
    for (const auto &t : telemetry_) {
        series.push_back(t.get());
        if (t->dropped() > 0)
            warn("{}: metrics ring dropped {} of {} samples (raise "
                 "--metrics-capacity)",
                 config_.driver, t->dropped(), t->recorded());
    }
    obs::writeMetricsJson(os, metricsMeta(), series);
}

void
Runtime::writeOpenMetrics(std::ostream &os) const
{
    std::vector<const obs::Telemetry *> series;
    series.reserve(telemetry_.size());
    for (const auto &t : telemetry_)
        series.push_back(t.get());
    obs::writeOpenMetrics(os, metricsMeta(), series);
}

} // namespace fpc::sched
