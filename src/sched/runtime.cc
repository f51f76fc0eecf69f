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
    stopPool();
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
Runtime::prepareContext(ExecContext &ctx, const Job &job)
{
    // Tear down the previous job's machine before touching the
    // memory and image it references.
    ctx.machine.reset();
    if (!ctx.mem) {
        ctx.mem = std::make_unique<Memory>(ctx.layout.memWords);
        ++ctx.builds;
    } else {
        // Reuse keeps the allocation (and its first-touch cost) but
        // nothing else: zeroing the store and reloading the image
        // below leaves simulated state byte-identical to a fresh
        // Memory, so results, stats and replay digests don't depend
        // on which jobs shared a context.
        ctx.mem->clear();
        ctx.mem->resetStats();
        ++ctx.reuses;
    }
    Loader loader{ctx.layout, SizeClasses::standard()};
    for (const Module &m : *job.modules)
        loader.add(m);
    ctx.image.emplace(loader.load(*ctx.mem, config_.plan));
}

/**
 * A job that will never execute (canceled) or died mid-execution (an
 * exception out of executeJob) must not leave spans open: close
 * whatever phase is open as failed, and for batch jobs (which have no
 * serving layer to do it) the request span too.
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

JobResult
Runtime::canceledResult(unsigned id, unsigned worker_id) const
{
    JobResult r;
    r.id = id;
    r.worker = worker_id;
    r.ok = false;
    r.reason = StopReason::Error;
    r.error = "canceled: drain requested";
    return r;
}

JobResult
Runtime::executeJob(const Job &job, unsigned id, unsigned worker_id,
                    ExecContext &ctx, MachineStats &acc,
                    AccelStats &accel_acc, obs::Tracer *tracer,
                    obs::ProfileData *profile_acc,
                    obs::SampledProfile *sampled_acc,
                    obs::Telemetry *telemetry)
{
    JobResult out;
    out.id = id;
    out.worker = worker_id;

    // Host-time execution bracket, stamped unconditionally (two clock
    // reads per job) so the serving layer can attribute queue-wait vs
    // execute without span collection on. When a collector is wired,
    // this closes the open phase (serve: dispatch; batch: queued) and
    // opens execute — re-homed to *this* worker's track, which under
    // work stealing is the stealing worker, deterministically
    // (span tracks always match JobResult::worker).
    obs::SpanCollector *spans = config_.spans;
    const std::uint64_t sid =
        job.span.requestId != 0 ? job.span.requestId
                                : static_cast<std::uint64_t>(id) + 1;
    out.execStartNs = obs::SpanCollector::nowNs();
    if (spans != nullptr) {
        spans->endPhase(sid, out.execStartNs, true,
                        obs::SpanTrack::Worker, worker_id);
        spans->begin(obs::SpanKind::Execute, sid,
                     obs::SpanTrack::Worker, worker_id, job.span.tenant,
                     out.execStartNs, job.span.traceId);
    }

    // Each job sees a pristine simulated machine — its own memory,
    // image and processor — but the worker's context (the Memory
    // allocation) persists across jobs. Workers share nothing but
    // the job queue, and scale with host cores.
    prepareContext(ctx, job);
    Memory &mem = *ctx.mem;
    const LoadedImage &image = *ctx.image;
    if (config_.record) {
        // Hash before the Machine exists: its FrameHeap constructor
        // rewrites the AV, and replay hashes at this same point.
        recordedImageHash_.store(replay::imageHash(mem, image),
                                 std::memory_order_relaxed);
    }

    ctx.machine.emplace(mem, image, config_.machine);
    Machine &machine = *ctx.machine;

    // Observers are per-job: the ProcMap indexes this job's image, and
    // the tracer interns names at record time, so nothing here has to
    // outlive the job.
    obs::ProcMap procMap;
    obs::Fanout fanout;
    std::optional<obs::Profiler> profiler;
    if (tracer != nullptr || profile_acc != nullptr)
        procMap = obs::ProcMap(image);
    if (tracer != nullptr) {
        tracer->setProcMap(&procMap);
        fanout.add(tracer);
    }
    if (profile_acc != nullptr) {
        profiler.emplace(image);
        fanout.add(&*profiler);
    }
    std::optional<obs::FlightRecorder> recorder;
    if (!config_.postmortemDir.empty()) {
        recorder.emplace();
        fanout.add(&*recorder);
    }
    if (!fanout.empty())
        machine.setObserver(&fanout);

    // Record/replay capture: the replay recorder takes the machine's
    // one sampler slot and chains a telemetry sampler behind it, so
    // both fire on the same simulated-cycle boundaries.
    replay::Recorder replayRec;
    const bool sampledMetrics =
        config_.metricsSampled && !config_.record;
    if (config_.record) {
        replayRec.beginJob(id, worker_id);
        replayRec.setNext(telemetry);
        machine.setSampler(&replayRec, config_.metricsInterval);
    } else if (telemetry != nullptr && !sampledMetrics) {
        machine.setSampler(telemetry, config_.metricsInterval);
    }

    // Sampled (accel-safe) observability rides the boundary-sample
    // slot instead: the fast paths keep running and the stamps obey
    // the bounded-slop contract. The fanout lets the sampled profiler
    // and sampled telemetry share the one slot on distinct budgets.
    std::optional<obs::SampledProfiler> sampledProfiler;
    obs::BoundaryFanout boundaryFan;
    if (sampled_acc != nullptr) {
        sampledProfiler.emplace(image);
        boundaryFan.add(&*sampledProfiler, config_.sampleInterval);
    }
    if (sampledMetrics && telemetry != nullptr)
        boundaryFan.add(telemetry, config_.metricsInterval);
    if (!boundaryFan.empty())
        machine.setBoundarySampler(&boundaryFan,
                                   boundaryFan.machineInterval());

    // Dynamic probes: compile the registry's current snapshot against
    // this job's image and attach as the machine's probe sink.
    // Entry/exit sites arm their procedures' code ranges, so the
    // threaded backend deoptimizes only the superblocks containing
    // probed PCs; everything else keeps full speed.
    std::optional<obs::ProbeEngine> probeEngine;
    if (config_.probes != nullptr) {
        obs::ProbeRegistry::Snapshot snap = config_.probes->snapshot();
        if (!snap->empty()) {
            probeEngine.emplace(std::move(snap), image, job.tenant,
                                worker_id);
            machine.setProbeSink(&*probeEngine,
                                 probeEngine->armedRanges());
        }
    }

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
    if (result.reason == StopReason::TopReturn) {
        out.ok = true;
        out.value = machine.popValue();
    } else if (result.reason == StopReason::Halted) {
        out.ok = true;
    } else {
        out.error = result.message;
    }
    acc.merge(machine.stats());
    accel_acc.merge(machine.accelStats());
    {
        // Fold per job so a live scrape (serving) can surface accel
        // gauges mid-run: mergedAccel_ only folds at join.
        std::lock_guard<std::mutex> lock(liveMutex_);
        liveAccel_.merge(machine.accelStats());
    }

    out.execEndNs = obs::SpanCollector::nowNs();
    if (spans != nullptr) {
        spans->end(obs::SpanKind::Execute, sid, out.execEndNs, out.ok);
        if (job.span.requestId == 0) {
            // Batch jobs have no serving layer to close the request:
            // the tree is request ⊃ queued ⊃ execute, all ending here,
            // re-homed to the executing worker.
            spans->end(obs::SpanKind::Request, sid, out.execEndNs,
                       out.ok, obs::SpanTrack::Worker, worker_id);
        }
    }

    if (!out.ok && recorder) {
        obs::PostmortemConfig pm;
        pm.dir = config_.postmortemDir;
        pm.filePrefix = "job-" + std::to_string(id) + "-";
        pm.driver = config_.driver;
        pm.impl = implName(config_.machine.impl);
        obs::writePostmortem(pm, machine, result, image, *recorder,
                             telemetry);
    }

    if (telemetry != nullptr) {
        // As with the tracer: consecutive jobs lay out consecutively
        // on this worker's series, and the counters stay monotone.
        telemetry->setBase(telemetry->base() + machine.stats().cycles,
                           telemetry->stepBase() +
                               machine.stats().steps);
    }
    if (tracer != nullptr) {
        // Lay consecutive jobs out consecutively on this worker's
        // track; the ProcMap dies with this job.
        tracer->setBase(tracer->base() + machine.stats().cycles);
        tracer->setProcMap(nullptr);
    }
    if (profiler)
        profile_acc->merge(profiler->finish(machine.stats().cycles));
    if (sampledProfiler)
        sampled_acc->merge(sampledProfiler->finish());

    if (probeEngine) {
        machine.setProbeSink(nullptr);
        probeEngine->finishInto(*config_.probes);
    }

    // The machine outlives this call inside the worker's context, but
    // every observer above is a stack local: detach them so nothing
    // dangles between jobs.
    machine.setObserver(nullptr);
    machine.setSampler(nullptr, 0);
    machine.setBoundarySampler(nullptr, 0);
    machine.setScheduler(nullptr);

    return out;
}

void
Runtime::workerMain(unsigned worker_id)
{
    MachineStats acc;
    AccelStats accelAcc;
    stats::StatGroup local("fpc_runtime");
    auto &jobs_completed =
        local.counter("jobs_completed", "jobs that finished ok");
    auto &jobs_failed =
        local.counter("jobs_failed", "jobs that stopped on an error");
    auto &job_steps =
        local.distribution("job_steps", "instructions per job");
    auto &job_cycles =
        local.distribution("job_cycles", "simulated cycles per job");
    auto &context_builds = local.counter(
        "context_builds", "fresh per-worker machine contexts");
    auto &context_reuses = local.counter(
        "context_reuses", "jobs that recycled a worker context");

    obs::Tracer *tracer =
        config_.trace ? tracers_[worker_id].get() : nullptr;
    obs::ProfileData profile_acc;
    obs::ProfileData *profile_ptr =
        config_.profile ? &profile_acc : nullptr;
    obs::SampledProfile sampled_acc;
    obs::SampledProfile *sampled_ptr =
        config_.profileSampled ? &sampled_acc : nullptr;
    obs::Telemetry *telemetry =
        config_.metrics ? telemetry_[worker_id].get() : nullptr;
    ExecContext ctx;

    // This worker's job progress, visible in every sample it takes.
    // Deterministic because metrics force the static assignment.
    double jobs_done = 0;
    double jobs_assigned = 0;
    if (telemetry != nullptr) {
        telemetry->setProvider(
            [this, &jobs_done, &jobs_assigned](
                std::vector<std::pair<std::string, double>> &g) {
                g.emplace_back("worker_jobs_done", jobs_done);
                g.emplace_back("worker_jobs_assigned", jobs_assigned);
                if (config_.gaugeProvider)
                    config_.gaugeProvider(g);
            });
    }

    // The dynamic queue is fast but nondeterministic: which worker
    // claims which job depends on thread timing. With observation on
    // (tracing, metrics, postmortems) we want reproducible tracks, so
    // jobs stride statically instead (job i runs on worker i mod n).
    const std::size_t stride = poolSize_;
    std::size_t strided = worker_id;

    while (true) {
        std::size_t i;
        if (staticAssignment()) {
            i = strided;
            strided += stride;
        } else {
            i = next_.fetch_add(1, std::memory_order_relaxed);
        }
        if (i >= jobs_.size())
            break;
        ++jobs_assigned;
        JobResult r;
        if (stopRequested()) {
            r = canceledResult(static_cast<unsigned>(i), worker_id);
            closeSpansOnAbort(jobs_[i], static_cast<unsigned>(i),
                              worker_id);
        } else {
            try {
                r = executeJob(jobs_[i], static_cast<unsigned>(i),
                               worker_id, ctx, acc, accelAcc, tracer,
                               profile_ptr, sampled_ptr, telemetry);
            } catch (const std::exception &err) {
                r.id = static_cast<unsigned>(i);
                r.worker = worker_id;
                r.ok = false;
                r.reason = StopReason::Error;
                r.error = err.what();
                closeSpansOnAbort(jobs_[i], static_cast<unsigned>(i),
                                  worker_id);
            }
        }
        if (r.ok)
            ++jobs_completed;
        else
            ++jobs_failed;
        job_steps.sample(static_cast<double>(r.steps));
        job_cycles.sample(static_cast<double>(r.cycles));
        ++jobs_done;
        results_[i] = std::move(r); // distinct slot per job: no lock
    }
    context_builds += ctx.builds;
    context_reuses += ctx.reuses;

    // Per-worker stats fold into the runtime's registries at join.
    std::lock_guard<std::mutex> lock(mergeMutex_);
    merged_.merge(acc);
    mergedAccel_.merge(accelAcc);
    group_.mergeFrom(local);
    if (profile_ptr != nullptr)
        profile_.merge(profile_acc);
    if (sampled_ptr != nullptr)
        sampledProfile_.merge(sampled_acc);
}

void
Runtime::poolWorkerMain(unsigned worker_id)
{
    MachineStats acc;
    AccelStats accelAcc;
    stats::StatGroup local("fpc_runtime");
    auto &jobs_completed =
        local.counter("jobs_completed", "jobs that finished ok");
    auto &jobs_failed =
        local.counter("jobs_failed", "jobs that stopped on an error");
    auto &job_steps =
        local.distribution("job_steps", "instructions per job");
    auto &job_cycles =
        local.distribution("job_cycles", "simulated cycles per job");
    auto &context_builds = local.counter(
        "context_builds", "fresh per-worker machine contexts");
    auto &context_reuses = local.counter(
        "context_reuses", "jobs that recycled a worker context");
    auto &jobs_stolen = local.counter(
        "jobs_stolen", "jobs taken from another worker's deque");

    // Pool-mode tracing: this worker's track records every job it
    // executes — including stolen ones, which thereby re-home to the
    // thief's track (matching JobResult::worker and the job's spans).
    obs::Tracer *tracer =
        config_.trace && worker_id < tracers_.size()
            ? tracers_[worker_id].get()
            : nullptr;
    obs::ProfileData profile_acc;
    obs::ProfileData *profile_ptr =
        config_.profile ? &profile_acc : nullptr;
    obs::SampledProfile sampled_acc;
    obs::SampledProfile *sampled_ptr =
        config_.profileSampled ? &sampled_acc : nullptr;
    obs::Telemetry *telemetry =
        config_.metrics && worker_id < telemetry_.size()
            ? telemetry_[worker_id].get()
            : nullptr;
    ExecContext ctx;

    double jobs_done = 0;
    double jobs_assigned = 0;
    if (telemetry != nullptr) {
        telemetry->setProvider(
            [this, &jobs_done, &jobs_assigned](
                std::vector<std::pair<std::string, double>> &g) {
                g.emplace_back("worker_jobs_done", jobs_done);
                g.emplace_back("worker_jobs_assigned", jobs_assigned);
                if (config_.gaugeProvider)
                    config_.gaugeProvider(g);
            });
    }

    PoolTask task;
    bool stolen = false;
    while (takeTask(worker_id, task, stolen)) {
        ++jobs_assigned;
        if (stolen)
            ++jobs_stolen;
        JobResult r;
        if (stopRequested()) {
            r = canceledResult(task.id, worker_id);
            closeSpansOnAbort(task.job, task.id, worker_id);
        } else {
            try {
                r = executeJob(task.job, task.id, worker_id, ctx, acc,
                               accelAcc, tracer, profile_ptr,
                               sampled_ptr, telemetry);
            } catch (const std::exception &err) {
                r.id = task.id;
                r.worker = worker_id;
                r.ok = false;
                r.reason = StopReason::Error;
                r.error = err.what();
                closeSpansOnAbort(task.job, task.id, worker_id);
            }
        }
        if (r.ok)
            ++jobs_completed;
        else
            ++jobs_failed;
        job_steps.sample(static_cast<double>(r.steps));
        job_cycles.sample(static_cast<double>(r.cycles));
        ++jobs_done;

        // Completion fires before this job stops counting as running,
        // so a drain that began while it ran cannot observe an idle
        // pool until after the callback (which may chain more work)
        // has returned. No pool lock is held: completions may call
        // enqueue().
        if (task.done) {
            JobCompletion done = std::move(task.done);
            done(std::move(r));
        }
        task = PoolTask{}; // drop the job's module refs promptly
        {
            std::lock_guard<std::mutex> lock(poolMutex_);
            running_.fetch_sub(1);
        }
        idleCv_.notify_all();
    }
    context_builds += ctx.builds;
    context_reuses += ctx.reuses;

    // Per-worker stats fold into the runtime's registries at join.
    std::lock_guard<std::mutex> lock(mergeMutex_);
    merged_.merge(acc);
    mergedAccel_.merge(accelAcc);
    group_.mergeFrom(local);
    if (profile_ptr != nullptr)
        profile_.merge(profile_acc);
    if (sampled_ptr != nullptr)
        sampledProfile_.merge(sampled_acc);
}

AccelStats
Runtime::liveAccelStats() const
{
    std::lock_guard<std::mutex> lock(liveMutex_);
    return liveAccel_;
}

bool
Runtime::takeTask(unsigned worker_id, PoolTask &out, bool &stolen)
{
    const std::size_t n = deques_.size();
    while (true) {
        // Own deque first: the owner takes the newest entry (the
        // front ages toward thieves).
        {
            WorkerDeque &own = *deques_[worker_id];
            std::lock_guard<std::mutex> lock(own.m);
            if (!own.dq.empty()) {
                out = std::move(own.dq.back());
                own.dq.pop_back();
                running_.fetch_add(1);
                queued_.fetch_sub(1);
                stolen = false;
                return true;
            }
        }
        // Steal oldest-first from the other workers.
        for (std::size_t off = 1; off < n; ++off) {
            WorkerDeque &victim = *deques_[(worker_id + off) % n];
            std::lock_guard<std::mutex> lock(victim.m);
            if (!victim.dq.empty()) {
                out = std::move(victim.dq.front());
                victim.dq.pop_front();
                running_.fetch_add(1);
                queued_.fetch_sub(1);
                stolen = true;
                return true;
            }
        }
        std::unique_lock<std::mutex> lock(poolMutex_);
        if (queued_.load() > 0)
            continue; // raced an in-flight enqueue; rescan
        if (poolStopping_)
            return false;
        workCv_.wait(lock, [this] {
            return queued_.load() > 0 || poolStopping_;
        });
        if (poolStopping_ && queued_.load() == 0)
            return false;
    }
}

void
Runtime::startPoolWorkers(unsigned n)
{
    poolStarted_ = true;
    deques_.clear();
    deques_.reserve(n);
    for (unsigned w = 0; w < n; ++w)
        deques_.push_back(std::make_unique<WorkerDeque>());
    poolThreads_.reserve(n);
    for (unsigned w = 0; w < n; ++w)
        poolThreads_.emplace_back([this, w] { poolWorkerMain(w); });
}

void
Runtime::startPool()
{
    if (ran_)
        panic("Runtime::startPool after run()");
    if (poolStarted_)
        panic("Runtime::startPool called twice");
    if (config_.record) {
        panic("Runtime pool mode does not support record; batch "
              "run() provides the reproducible static assignment "
              "a recording's job→worker header needs");
    }
    const unsigned n = config_.workers;
    poolSize_ = n;
    if (config_.trace && tracers_.empty()) {
        tracers_.reserve(n);
        for (unsigned w = 0; w < n; ++w) {
            tracers_.push_back(
                std::make_unique<obs::Tracer>(config_.traceCapacity));
        }
    }
    if (config_.metrics && telemetry_.empty()) {
        telemetry_.reserve(n);
        for (unsigned w = 0; w < n; ++w) {
            telemetry_.push_back(std::make_unique<obs::Telemetry>(
                config_.metricsCapacity));
        }
    }
    startPoolWorkers(n);
}

unsigned
Runtime::enqueue(Job job, JobCompletion done)
{
    if (!poolStarted_)
        panic("Runtime::enqueue without startPool()");
    if (!job.modules || job.modules->empty())
        panic("Runtime::enqueue: job has no modules");
    const unsigned id = nextPoolId_.fetch_add(1);
    const auto w = static_cast<std::size_t>(enqueueRr_.fetch_add(1)) %
                   deques_.size();
    if (config_.spans != nullptr && job.span.requestId == 0) {
        // No serving layer owns this job's tree: synthesize
        // request ⊃ queued here (execute and the closes happen in
        // executeJob). Ids are job id + 1 — distinct from serve
        // request ids only because drivers use one style per process.
        const std::uint64_t sid = static_cast<std::uint64_t>(id) + 1;
        const std::int64_t t = obs::SpanCollector::nowNs();
        const auto track = static_cast<std::uint32_t>(w);
        config_.spans->begin(obs::SpanKind::Request, sid,
                             obs::SpanTrack::Worker, track,
                             job.span.tenant, t, job.span.traceId);
        config_.spans->begin(obs::SpanKind::Queued, sid,
                             obs::SpanTrack::Worker, track,
                             job.span.tenant, t, job.span.traceId);
    }
    // Count the job as queued before it becomes claimable: a worker
    // can never drive queued_ through zero while a task is in flight
    // between the deque and the running count, so drainPool's
    // "queued == 0 && running == 0" condition is exact.
    {
        std::lock_guard<std::mutex> lock(poolMutex_);
        queued_.fetch_add(1);
    }
    {
        std::lock_guard<std::mutex> lock(deques_[w]->m);
        deques_[w]->dq.push_back(
            PoolTask{id, std::move(job), std::move(done)});
    }
    workCv_.notify_one();
    return id;
}

void
Runtime::drainPool()
{
    std::unique_lock<std::mutex> lock(poolMutex_);
    idleCv_.wait(lock, [this] {
        return queued_.load() == 0 && running_.load() == 0;
    });
}

void
Runtime::stopPool()
{
    if (!poolStarted_)
        return;
    {
        std::lock_guard<std::mutex> lock(poolMutex_);
        poolStopping_ = true;
    }
    workCv_.notify_all();
    for (std::thread &t : poolThreads_)
        t.join();
    poolThreads_.clear();
    deques_.clear();
    {
        std::lock_guard<std::mutex> lock(poolMutex_);
        poolStopping_ = false;
    }
    poolStarted_ = false;
}

std::vector<JobResult>
Runtime::run()
{
    if (ran_)
        panic("Runtime::run called twice");
    if (poolStarted_)
        panic("Runtime::run after startPool()");
    ran_ = true;
    results_.resize(jobs_.size());
    if (config_.record)
        jobRecords_.resize(jobs_.size());

    const unsigned n =
        std::min<unsigned>(config_.workers,
                           std::max<std::size_t>(1, jobs_.size()));
    poolSize_ = n;
    if (config_.trace) {
        tracers_.reserve(n);
        for (unsigned w = 0; w < n; ++w) {
            tracers_.push_back(
                std::make_unique<obs::Tracer>(config_.traceCapacity));
        }
    }
    if (config_.metrics) {
        telemetry_.reserve(n);
        for (unsigned w = 0; w < n; ++w) {
            telemetry_.push_back(std::make_unique<obs::Telemetry>(
                config_.metricsCapacity));
        }
    }
    if (staticAssignment()) {
        if (config_.spans != nullptr) {
            // Batch request ⊃ queued spans all begin at submission
            // time (run() entry); queue-wait is time until a worker
            // reaches the job in its stride.
            const std::int64_t t = obs::SpanCollector::nowNs();
            for (std::size_t i = 0; i < jobs_.size(); ++i) {
                if (jobs_[i].span.requestId != 0)
                    continue;
                const std::uint64_t sid = i + 1;
                const auto track = static_cast<std::uint32_t>(i % n);
                config_.spans->begin(obs::SpanKind::Request, sid,
                                     obs::SpanTrack::Worker, track,
                                     jobs_[i].span.tenant, t,
                                     jobs_[i].span.traceId);
                config_.spans->begin(obs::SpanKind::Queued, sid,
                                     obs::SpanTrack::Worker, track,
                                     jobs_[i].span.tenant, t,
                                     jobs_[i].span.traceId);
            }
        }
        std::vector<std::thread> pool;
        pool.reserve(n);
        for (unsigned w = 0; w < n; ++w)
            pool.emplace_back([this, w] { workerMain(w); });
        for (std::thread &t : pool)
            t.join();
    } else {
        // The dynamic batch path rides the same pool machinery the
        // serving layer uses: bring workers up, enqueue everything
        // with completions that land results in their slots, drain
        // and join.
        startPoolWorkers(n);
        for (std::size_t i = 0; i < jobs_.size(); ++i) {
            enqueue(jobs_[i], [this, i](JobResult r) {
                r.id = static_cast<unsigned>(i);
                results_[i] = std::move(r); // distinct slot: no lock
            });
        }
        stopPool();
    }

    return results_;
}

void
Runtime::writeTrace(std::ostream &os) const
{
    obs::writeChromeTrace(os, tracers());
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
    // anyway (their purpose is observing accelerated runs), so the
    // accel gauges flow by default; exact mode keeps the strict
    // byte-identity contract and exports them only on request.
    meta.includeAccel = config_.metricsSampled && !config_.record;
    return meta;
}

void
Runtime::writeMetricsJson(std::ostream &os) const
{
    std::vector<const obs::Telemetry *> series;
    series.reserve(telemetry_.size());
    for (const auto &t : telemetry_)
        series.push_back(t.get());
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
