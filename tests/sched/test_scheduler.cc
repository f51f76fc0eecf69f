/**
 * @file
 * Tests for the fpc_sched library: the in-VM preemptive scheduler
 * (round-robin fairness, priority dispatch, blocking, preemption
 * through the real ProcSwitch fallback paths, determinism) and the
 * multi-worker Runtime (job correctness, failure isolation, merged
 * statistics).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "obs/json.hh"
#include "obs/spans.hh"

#include "common/logging.hh"
#include "lang/codegen.hh"
#include "machine/machine.hh"
#include "program/loader.hh"
#include "sched/runtime.hh"
#include "sched/scheduler.hh"

namespace fpc
{
namespace
{

struct Combo
{
    Impl impl;
    CallLowering lowering;
    bool shortCalls;
};

std::vector<Combo>
allCombos()
{
    return {
        {Impl::Simple, CallLowering::Fat, false},
        {Impl::Mesa, CallLowering::Mesa, false},
        {Impl::Ifu, CallLowering::Direct, true},
        {Impl::Banked, CallLowering::Direct, true},
    };
}

struct Rig
{
    SystemLayout layout;
    Memory mem;
    LoadedImage image;
    Machine machine;

    Rig(const std::vector<Module> &modules, const Combo &combo,
        std::uint64_t timeslice = 0, bool accel = true)
        : mem(layout.memWords),
          image(load(modules, combo)),
          machine(mem, image, config(combo, timeslice, accel))
    {
    }

  private:
    LoadedImage load(const std::vector<Module> &modules,
                     const Combo &combo)
    {
        Loader loader{layout, SizeClasses::standard()};
        for (const auto &m : modules)
            loader.add(m);
        LinkPlan plan;
        plan.lowering = combo.lowering;
        plan.shortCalls = combo.shortCalls;
        return loader.load(mem, plan);
    }

    static MachineConfig config(const Combo &combo,
                                std::uint64_t timeslice, bool accel)
    {
        MachineConfig c;
        c.impl = combo.impl;
        c.timesliceSteps = timeslice;
        c.accel.enabled = accel;
        return c;
    }
};

/** Three-pass worker: out id*10+i, yield, repeat (c7's shape). */
std::vector<Module>
yieldingWorkers()
{
    return lang::compile(R"(
        module Procs;
        proc worker(id) {
            var i;
            i = 0;
            while (i < 3) {
                out id * 10 + i;
                yield;
                i = i + 1;
            }
            return id;
        }
    )");
}

/** Recursion + output: exercises deep frame chains so a preemption's
 *  bank writeback / return-stack flush has state to get wrong. */
std::vector<Module>
fibTracer()
{
    return lang::compile(R"(
        module Fib;
        proc fib(n) {
            if (n < 2) { return n; }
            return fib(n - 1) + fib(n - 2);
        }
        proc main(n) {
            var i;
            i = 1;
            while (i <= n) {
                out fib(i);
                i = i + 1;
            }
            return fib(n);
        }
    )");
}

// ---------------------------------------------------------------------
// Layer 1: the in-VM scheduler.
// ---------------------------------------------------------------------

TEST(RoundRobin, FairInterleavingAcrossEngines)
{
    const std::vector<Word> want = {10, 20, 30, 11, 21, 31, 12, 22, 32};
    for (const Combo &combo : allCombos()) {
        Rig rig(yieldingWorkers(), combo);
        sched::Scheduler sched(rig.machine);
        sched.spawn("Procs", "worker", std::array<Word, 1>{Word{1}});
        sched.spawn("Procs", "worker", std::array<Word, 1>{Word{2}});
        sched.spawn("Procs", "worker", std::array<Word, 1>{Word{3}});

        const RunResult last = sched.runAll();
        EXPECT_EQ(last.reason, StopReason::TopReturn)
            << implName(combo.impl);
        EXPECT_EQ(rig.machine.output(), want) << implName(combo.impl);
        EXPECT_EQ(sched.liveCount(), 0u);
        EXPECT_EQ(sched.stats().completions, 3u);
        for (unsigned pid = 0; pid < 3; ++pid) {
            const sched::Process &p = sched.process(pid);
            EXPECT_EQ(p.state, sched::ProcState::Done);
            ASSERT_TRUE(p.result.has_value());
            EXPECT_EQ(*p.result, pid + 1);
            EXPECT_GT(p.stepsRun, 0u);
        }
        // 3 workers x 3 yields each; the final yield of each worker
        // also counts (it requeues and later resumes to return).
        EXPECT_EQ(sched.stats().yields, 9u) << implName(combo.impl);
    }
}

TEST(RoundRobin, StepAccountingSumsToMachineSteps)
{
    const Combo combo{Impl::Mesa, CallLowering::Mesa, false};
    Rig rig(yieldingWorkers(), combo);
    sched::Scheduler sched(rig.machine);
    sched.spawn("Procs", "worker", std::array<Word, 1>{Word{1}});
    sched.spawn("Procs", "worker", std::array<Word, 1>{Word{2}});
    sched.runAll();
    CountT attributed = 0;
    for (unsigned pid = 0; pid < 2; ++pid)
        attributed += sched.process(pid).stepsRun;
    EXPECT_EQ(attributed, rig.machine.stats().steps);
}

TEST(PriorityPolicy, HighestPriorityRunsToCompletionFirst)
{
    // Workers with priority == id. Under the priority policy a yield
    // requeues the yielder, but pickNext takes the max again, so the
    // priority-5 worker monopolizes the machine until it returns.
    const std::vector<Word> want = {50, 51, 52, 30, 31, 32,
                                    10, 11, 12};
    for (const Combo &combo : allCombos()) {
        Rig rig(yieldingWorkers(), combo);
        sched::Scheduler sched(rig.machine,
                               sched::Policy::Priority);
        sched.spawn("Procs", "worker", std::array<Word, 1>{Word{1}},
                    1);
        sched.spawn("Procs", "worker", std::array<Word, 1>{Word{5}},
                    5);
        sched.spawn("Procs", "worker", std::array<Word, 1>{Word{3}},
                    3);
        sched.runAll();
        EXPECT_EQ(rig.machine.output(), want) << implName(combo.impl);
    }
}

TEST(Blocking, BlockedProcessSkippedUntilSignalled)
{
    const Combo combo{Impl::Banked, CallLowering::Direct, true};
    Rig rig(yieldingWorkers(), combo);
    sched::Scheduler sched(rig.machine);
    const unsigned a =
        sched.spawn("Procs", "worker", std::array<Word, 1>{Word{1}});
    const unsigned b =
        sched.spawn("Procs", "worker", std::array<Word, 1>{Word{2}});
    const Word event = 77;
    sched.block(b, event);
    EXPECT_EQ(sched.blockedCount(), 1u);

    sched.runAll();
    // Only worker 1 ran; worker 2 is still parked.
    EXPECT_EQ(rig.machine.output(),
              (std::vector<Word>{10, 11, 12}));
    EXPECT_EQ(sched.process(a).state, sched::ProcState::Done);
    EXPECT_EQ(sched.process(b).state, sched::ProcState::Blocked);
    EXPECT_EQ(sched.liveCount(), 1u);

    EXPECT_EQ(sched.signal(event), 1u);
    EXPECT_EQ(sched.signal(event), 0u); // idempotent
    sched.runAll();
    EXPECT_EQ(rig.machine.output(),
              (std::vector<Word>{10, 11, 12, 20, 21, 22}));
    EXPECT_EQ(sched.liveCount(), 0u);
}

TEST(Preemption, StateEquivalentToUnpreemptedRun)
{
    // The §7.1 fallback claim in executable form: preempting every 37
    // instructions — return stack flushed on I3, every bank written
    // back on I4 — must not change a single output word or the result.
    for (const Combo &combo : allCombos()) {
        Rig plain(fibTracer(), combo);
        plain.machine.start("Fib", "main",
                            std::array<Word, 1>{Word{10}});
        ASSERT_EQ(plain.machine.run().reason, StopReason::TopReturn);
        const Word plainResult = plain.machine.popValue();
        const std::vector<Word> plainOut = plain.machine.output();

        Rig sliced(fibTracer(), combo, /*timeslice=*/37);
        sched::Scheduler sched(sliced.machine);
        sched.spawn("Fib", "main", std::array<Word, 1>{Word{10}});
        ASSERT_EQ(sched.runAll().reason, StopReason::TopReturn)
            << implName(combo.impl);

        const sched::Process &p = sched.process(0);
        ASSERT_TRUE(p.result.has_value());
        EXPECT_EQ(*p.result, plainResult) << implName(combo.impl);
        EXPECT_EQ(sliced.machine.output(), plainOut)
            << implName(combo.impl);

        const MachineStats &s = sliced.machine.stats();
        EXPECT_GT(s.preemptions, 0u) << implName(combo.impl);
        EXPECT_EQ(s.preemptions, sched.stats().preemptions);
        if (combo.impl == Impl::Ifu) {
            EXPECT_GT(s.returnStackFlushes, 0u);
        }
        if (combo.impl == Impl::Banked) {
            EXPECT_GT(s.bankFlushWords, 0u);
        }
    }
}

TEST(Preemption, InterleavesProcessesWithoutYields)
{
    // No voluntary yields at all: two fib processes share the machine
    // purely via the timeslice trap, and both must finish correctly.
    const Combo combo{Impl::Banked, CallLowering::Direct, true};
    Rig rig(fibTracer(), combo, /*timeslice=*/50);
    sched::Scheduler sched(rig.machine);
    sched.spawn("Fib", "main", std::array<Word, 1>{Word{9}});
    sched.spawn("Fib", "main", std::array<Word, 1>{Word{9}});
    ASSERT_EQ(sched.runAll().reason, StopReason::TopReturn);
    EXPECT_EQ(sched.liveCount(), 0u);
    EXPECT_EQ(*sched.process(0).result, 34u); // fib(9)
    EXPECT_EQ(*sched.process(1).result, 34u);
    EXPECT_GT(sched.process(0).preemptions, 0u);
    EXPECT_GT(sched.process(1).preemptions, 0u);
    // Both processes' output streams interleave; sorting by value
    // must recover two copies of the unpreempted trace.
    Rig plain(fibTracer(), combo);
    plain.machine.start("Fib", "main", std::array<Word, 1>{Word{9}});
    plain.machine.run();
    auto got = rig.machine.output();
    auto want = plain.machine.output();
    want.insert(want.end(), plain.machine.output().begin(),
                plain.machine.output().end());
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want);
}

TEST(Preemption, DeterministicAcrossIdenticalRuns)
{
    const Combo combo{Impl::Ifu, CallLowering::Direct, true};
    auto run = [&](std::vector<Word> &out, CountT &steps) {
        Rig rig(fibTracer(), combo, /*timeslice=*/41);
        sched::Scheduler sched(rig.machine);
        sched.spawn("Fib", "main", std::array<Word, 1>{Word{11}});
        sched.spawn("Fib", "main", std::array<Word, 1>{Word{8}});
        ASSERT_EQ(sched.runAll().reason, StopReason::TopReturn);
        out = rig.machine.output();
        steps = rig.machine.stats().steps;
    };
    std::vector<Word> out1, out2;
    CountT steps1 = 0, steps2 = 0;
    run(out1, steps1);
    run(out2, steps2);
    EXPECT_EQ(out1, out2);
    EXPECT_EQ(steps1, steps2);
}

/** Every pick a scheduler makes, stamped with the machine's steps,
 *  then each process's steps, preemptions and yields, and the
 *  output: all of it must read the same on both backends. */
std::string
scheduleLog(const std::vector<Module> &modules, const Combo &combo,
            std::uint64_t timeslice, bool accel, AccelStats &accel_stats)
{
    Rig rig(modules, combo, timeslice, accel);
    sched::Scheduler sched(rig.machine);
    std::ostringstream log;
    sched.setPickHook([&log](std::uint64_t step, unsigned pid) {
        log << step << ":" << pid << " ";
    });
    const bool fib = timeslice != 0;
    for (const Word arg : {Word{1}, Word{2}})
        sched.spawn(fib ? "Fib" : "Procs", fib ? "main" : "worker",
                    std::array<Word, 1>{fib ? Word(arg + 7) : arg});
    EXPECT_EQ(sched.runAll().reason, StopReason::TopReturn);
    log << "| ";
    for (unsigned pid = 0; pid < 2; ++pid) {
        const sched::Process &p = sched.process(pid);
        log << p.stepsRun << "/" << p.preemptions << "/" << p.yields
            << " ";
    }
    for (const Word w : rig.machine.output())
        log << w << ",";
    accel_stats = rig.machine.accelStats();
    return log.str();
}

TEST(Preemption, PickStampsMatchEagerOnTheThreadedLoop)
{
    // A scheduler hook stamps its decisions with the machine's step
    // count (recordings do the same), so a YIELD's hook and a
    // timeslice switch must read eager steps while the threaded loop
    // runs superblocks around them.
    for (const Combo &combo : allCombos()) {
        for (const std::uint64_t timeslice : {0u, 37u}) {
            SCOPED_TRACE(std::string(implName(combo.impl)) +
                         " timeslice " + std::to_string(timeslice));
            const auto &modules =
                timeslice != 0 ? fibTracer() : yieldingWorkers();
            AccelStats eagerStats, threadedStats;
            const std::string eager = scheduleLog(
                modules, combo, timeslice, false, eagerStats);
            const std::string threaded = scheduleLog(
                modules, combo, timeslice, true, threadedStats);
            EXPECT_EQ(eager, threaded);
            EXPECT_GT(threadedStats.sblockExecs, 0u);
        }
    }
}

TEST(RetainedRoots, SchedulerReclaimsRootFramesExplicitly)
{
    // §4: root activations are retained frames — the worker's own
    // return must not free them (retainedSkips counts the skips);
    // complete() releases them, so nothing leaks by the end.
    const Combo combo{Impl::Mesa, CallLowering::Mesa, false};
    Rig rig(yieldingWorkers(), combo);
    sched::Scheduler sched(rig.machine);
    sched.spawn("Procs", "worker", std::array<Word, 1>{Word{1}});
    sched.spawn("Procs", "worker", std::array<Word, 1>{Word{2}});
    sched.runAll();
    const FrameHeapStats &h = rig.machine.heap().stats();
    EXPECT_GE(h.retainedSkips, 2u);
    EXPECT_EQ(h.allocs, h.frees);
}

// ---------------------------------------------------------------------
// Layer 2: the multi-worker Runtime.
// ---------------------------------------------------------------------

std::shared_ptr<const std::vector<Module>>
shared(std::vector<Module> m)
{
    return std::make_shared<const std::vector<Module>>(std::move(m));
}

TEST(Runtime, JobsCorrectAcrossWorkerCounts)
{
    // fib(10) == 55 regardless of which worker ran it or how many
    // workers there were; merged steps are worker-count invariant.
    const auto prog = shared(fibTracer());
    CountT steps1 = 0;
    for (const unsigned workers : {1u, 3u}) {
        sched::RuntimeConfig rc;
        rc.workers = workers;
        rc.machine.impl = Impl::Banked;
        rc.plan.lowering = CallLowering::Direct;
        rc.plan.shortCalls = true;
        sched::Runtime runtime(rc);
        for (unsigned j = 0; j < 6; ++j)
            runtime.submit({prog, "Fib", "main", {10}});
        const auto results = runtime.run();
        ASSERT_EQ(results.size(), 6u);
        for (const sched::JobResult &r : results) {
            EXPECT_TRUE(r.ok) << r.error;
            EXPECT_EQ(r.value, 55u);
            EXPECT_GT(r.steps, 0u);
        }
        EXPECT_EQ(
            runtime.stats().findCounter("jobs_completed").value(),
            6u);
        EXPECT_EQ(runtime.stats().findCounter("jobs_failed").value(),
                  0u);
        EXPECT_EQ(
            runtime.stats().findDistribution("job_steps").count(),
            6u);
        if (workers == 1)
            steps1 = runtime.machineStats().steps;
        else
            EXPECT_EQ(runtime.machineStats().steps, steps1);
    }
}

TEST(Runtime, FailingJobIsIsolated)
{
    const auto bad = shared(lang::compile(R"(
        module Oops;
        proc main(n) { return 100 / n; }
    )"));
    sched::RuntimeConfig rc;
    rc.workers = 2;
    sched::Runtime runtime(rc);
    runtime.submit({bad, "Oops", "main", {4}});  // fine: 25
    runtime.submit({bad, "Oops", "main", {0}});  // divide by zero
    runtime.submit({bad, "Oops", "main", {10}}); // fine: 10
    const auto results = runtime.run();
    ASSERT_EQ(results.size(), 3u);
    EXPECT_TRUE(results[0].ok);
    EXPECT_EQ(results[0].value, 25u);
    EXPECT_FALSE(results[1].ok);
    EXPECT_FALSE(results[1].error.empty());
    EXPECT_TRUE(results[2].ok);
    EXPECT_EQ(results[2].value, 10u);
    EXPECT_EQ(runtime.stats().findCounter("jobs_completed").value(),
              2u);
    EXPECT_EQ(runtime.stats().findCounter("jobs_failed").value(), 1u);
}

TEST(Runtime, PostmortemFinalSampleIsTheJobsOwn)
{
    // A worker's metrics series lays its jobs end to end; a bundle's
    // finalSample must still give the failing job's own cycles and
    // steps, not the worker's running totals.
    const auto trap = shared(lang::compile(R"(
        module Main;
        proc div(a, b) { return a / b; }
        proc main(n) { return div(100, n); }
    )"));
    const std::filesystem::path dir =
        std::filesystem::path(testing::TempDir()) / "fpc_runtime_pm";
    std::filesystem::remove_all(dir);
    sched::RuntimeConfig rc;
    rc.workers = 2;
    rc.metrics = true;
    rc.postmortemDir = dir.string();
    sched::Runtime runtime(rc);
    for (unsigned j = 0; j < 4; ++j)
        runtime.submit({trap, "Main", "main", {0}});
    const auto results = runtime.run();
    ASSERT_EQ(results.size(), 4u);
    for (const sched::JobResult &r : results) {
        ASSERT_FALSE(r.ok);
        std::ifstream js(dir / ("job-" + std::to_string(r.id) +
                                "-postmortem.json"));
        ASSERT_TRUE(js.good()) << "job " << r.id;
        std::stringstream buf;
        buf << js.rdbuf();
        const std::string json = buf.str();
        const std::string sample =
            json.substr(json.find("\"finalSample\""));
        EXPECT_NE(sample.find("\"cycles\": " + std::to_string(r.cycles) +
                              ","),
                  std::string::npos)
            << "job " << r.id << ": " << sample;
        EXPECT_NE(sample.find("\"steps\": " + std::to_string(r.steps) +
                              ","),
                  std::string::npos)
            << "job " << r.id << ": " << sample;
    }
    std::filesystem::remove_all(dir);
}

TEST(Runtime, WorkersCountsTheThreadsTheBatchRan)
{
    // Four configured workers run a one-job batch on one thread and a
    // three-job batch on three; that is what workers() reports.
    const auto prog = shared(fibTracer());
    for (const unsigned jobs : {1u, 3u, 6u}) {
        sched::RuntimeConfig rc;
        rc.workers = 4;
        sched::Runtime runtime(rc);
        for (unsigned j = 0; j < jobs; ++j)
            runtime.submit({prog, "Fib", "main", {5}});
        runtime.run();
        EXPECT_EQ(runtime.workers(), std::min(jobs, 4u));
        EXPECT_EQ(runtime.workers(), runtime.stride());
    }
}

/** The stats document's machine, memory and heap sections. */
std::string
statsDoc(const MachineStats &machine, const MemoryStats &memory,
         const FrameHeapStats &heap)
{
    obs::StatsExport exp;
    exp.driver = "test_scheduler";
    exp.machine = &machine;
    exp.memory = &memory;
    exp.heap = &heap;
    std::ostringstream os;
    obs::writeStatsJson(os, exp);
    return os.str();
}

TEST(Runtime, OneJobBatchMatchesADirectMachine)
{
    // fpcvm runs its program as a one-job batch: on every engine that
    // must be indistinguishable from building and running the Machine
    // directly, for a program that returns and for one that traps.
    const auto oops = lang::compile(R"(
        module Oops;
        proc main(n) { out n; return 100 / n; }
    )");
    const struct
    {
        std::vector<Module> modules;
        const char *module;
        Word arg;
    } programs[] = {{fibTracer(), "Fib", 10}, {oops, "Oops", 0}};
    for (const Combo &combo : allCombos()) {
        for (const auto &prog : programs) {
            SCOPED_TRACE(std::string(implName(combo.impl)) + " " +
                         prog.module);
            const std::vector<Word> args{prog.arg};
            Rig rig(prog.modules, combo);
            rig.machine.start(prog.module, "main", args);
            const RunResult direct = rig.machine.run();
            const Word value = direct.reason == StopReason::TopReturn
                                   ? rig.machine.popValue()
                                   : 0;

            sched::RuntimeConfig rc;
            rc.machine.impl = combo.impl;
            rc.plan.lowering = combo.lowering;
            rc.plan.shortCalls = combo.shortCalls;
            sched::Runtime runtime(rc);
            runtime.submit(
                {shared(prog.modules), prog.module, "main", args});
            const sched::JobResult r = runtime.run().front();

            EXPECT_EQ(r.reason, direct.reason);
            EXPECT_EQ(r.ok, direct.reason == StopReason::TopReturn);
            EXPECT_EQ(r.value, value);
            EXPECT_EQ(r.output, rig.machine.output());
            EXPECT_FALSE(r.output.empty());
            EXPECT_EQ(r.steps, rig.machine.stats().steps);
            EXPECT_EQ(statsDoc(runtime.machineStats(),
                               runtime.memoryStats(),
                               runtime.heapStats()),
                      statsDoc(rig.machine.stats(), rig.mem.stats(),
                               rig.machine.heap().stats()));
        }
    }
}

TEST(Runtime, RunTwicePanics)
{
    const auto prog = shared(fibTracer());
    sched::RuntimeConfig rc;
    rc.workers = 1;
    sched::Runtime runtime(rc);
    runtime.submit({prog, "Fib", "main", {5}});
    runtime.run();
    EXPECT_THROW(runtime.run(), PanicError);
    EXPECT_THROW(runtime.submit({prog, "Fib", "main", {5}}),
                 PanicError);
}

TEST(Runtime, RunAndSlotModesAreExclusive)
{
    const auto prog = shared(fibTracer());
    const sched::Job job{prog, "Fib", "main", {5}};
    {
        sched::RuntimeConfig rc;
        rc.workers = 1;
        sched::Runtime runtime(rc);
        runtime.startSlots();
        EXPECT_THROW(runtime.run(), PanicError);
        EXPECT_THROW(runtime.startSlots(), PanicError);
        EXPECT_THROW(runtime.runInSlot(1, job), PanicError);
        EXPECT_TRUE(runtime.runInSlot(0, job).ok);
        runtime.stopSlots();
    }
    {
        sched::RuntimeConfig rc;
        rc.workers = 1;
        sched::Runtime runtime(rc);
        runtime.submit(job);
        runtime.run();
        EXPECT_THROW(runtime.startSlots(), PanicError);
    }
    {
        sched::RuntimeConfig rc;
        rc.workers = 1;
        sched::Runtime runtime(rc);
        EXPECT_THROW(runtime.runInSlot(0, job), PanicError);
    }
    {
        // A recording's header names each job's worker, which only
        // batch run()'s static stride makes reproducible.
        sched::RuntimeConfig rc;
        rc.record = true;
        sched::Runtime runtime(rc);
        EXPECT_THROW(runtime.startSlots(), PanicError);
    }
}

TEST(Runtime, SlotsRunJobsFromConcurrentThreads)
{
    // Two callers, each in its own slot: every job completes on the
    // caller's slot, and the folded counters cover all of them.
    const auto prog = shared(fibTracer());
    sched::RuntimeConfig rc;
    rc.workers = 2;
    rc.machine.impl = Impl::Banked;
    rc.plan.lowering = CallLowering::Direct;
    rc.plan.shortCalls = true;
    sched::Runtime runtime(rc);
    runtime.startSlots();
    EXPECT_EQ(runtime.workers(), 2u);

    std::vector<sched::JobResult> results[2];
    std::vector<std::thread> callers;
    for (unsigned k = 0; k < 2; ++k)
        callers.emplace_back([&, k] {
            for (unsigned j = 0; j < 6; ++j)
                results[k].push_back(
                    runtime.runInSlot(k, {prog, "Fib", "main", {10}}));
        });
    for (std::thread &t : callers)
        t.join();
    runtime.stopSlots();

    std::set<unsigned> ids;
    for (unsigned k = 0; k < 2; ++k) {
        ASSERT_EQ(results[k].size(), 6u);
        for (const sched::JobResult &r : results[k]) {
            EXPECT_TRUE(r.ok) << r.error;
            EXPECT_EQ(r.value, 55u);
            EXPECT_EQ(r.worker, k);
            EXPECT_GT(r.execEndNs, r.execStartNs);
            ids.insert(r.id);
        }
    }
    EXPECT_EQ(ids.size(), 12u); // job ids are per job
    EXPECT_EQ(runtime.stats().findCounter("jobs_completed").value(),
              12u);
    EXPECT_EQ(runtime.stats().findCounter("jobs_failed").value(), 0u);
    EXPECT_FALSE(runtime.stats().hasCounter("jobs_stolen"));
}

TEST(Runtime, SlotReusesItsContextDeterministically)
{
    // One slot, four identical jobs: the first builds the context,
    // the rest recycle it — and recycling must be invisible to the
    // simulated outcome (same value, same step count every time).
    const auto prog = shared(fibTracer());
    sched::RuntimeConfig rc;
    rc.workers = 1;
    sched::Runtime runtime(rc);
    runtime.startSlots();
    std::vector<sched::JobResult> results;
    for (unsigned j = 0; j < 4; ++j)
        results.push_back(runtime.runInSlot(0, {prog, "Fib", "main", {9}}));
    runtime.stopSlots();
    runtime.stopSlots(); // idempotent: folds once
    for (const sched::JobResult &r : results) {
        EXPECT_TRUE(r.ok) << r.error;
        EXPECT_EQ(r.value, results[0].value);
        EXPECT_EQ(r.steps, results[0].steps);
    }
    EXPECT_EQ(runtime.stats().findCounter("context_builds").value(),
              1u);
    EXPECT_EQ(runtime.stats().findCounter("context_reuses").value(),
              3u);
}

TEST(Runtime, StopFlagCancelsRemainingJobs)
{
    // With the drain flag already raised, every job comes back
    // canceled — the path fpcrun takes on SIGINT/SIGTERM.
    const auto prog = shared(fibTracer());
    std::atomic<bool> stop{true};
    sched::RuntimeConfig rc;
    rc.workers = 2;
    rc.stopFlag = &stop;
    sched::Runtime runtime(rc);
    for (unsigned j = 0; j < 4; ++j)
        runtime.submit({prog, "Fib", "main", {10}});
    const auto results = runtime.run();
    ASSERT_EQ(results.size(), 4u);
    for (const sched::JobResult &r : results) {
        EXPECT_FALSE(r.ok);
        EXPECT_NE(r.error.find("canceled"), std::string::npos)
            << r.error;
    }
}

/** Jobs for the context-reuse test: a small image, one with a much
 *  larger code span, a store at the last data word, a trap. */
struct ReuseJob
{
    const char *name;
    std::shared_ptr<const std::vector<Module>> modules;
    const char *module;
    Word arg;
};

std::vector<ReuseJob>
reuseJobs()
{
    std::string big = "module Big;\n";
    for (int i = 0; i < 60; ++i)
        big += "proc p" + std::to_string(i) +
               "(x) { var a; a = x * 3 + " + std::to_string(i) +
               "; if (a > 100) { a = a - 7; } return a + x; }\n";
    big += "proc main(n) { return p0(n) + p59(n); }\n";
    const auto small = shared(fibTracer());
    return {
        {"A", small, "Fib", 7},
        {"B", shared(lang::compile(big)), "Big", 5},
        {"A again", small, "Fib", 7},
        {"store at 0xFFFF", shared(lang::compile(R"(
            module Top;
            proc main(n) { var p; p = 65535; *p = n; return *p; }
        )")), "Top", 41},
        {"trap", shared(lang::compile(R"(
            module Oops;
            proc f(n) { var a, b, c; a = n; b = n; c = n; return 1 / n; }
            proc main(n) { out n; return f(n); }
        )")), "Oops", 0},
    };
}

TEST(Runtime, ReusedContextMatchesFreshMemory)
{
    // One context over jobs from different images, back to back:
    // after each prepareContext the store must be word-for-word a
    // fresh Memory with the job's image loaded — including the words
    // a larger earlier image or an earlier job's stores left behind —
    // and each job's stats document a fresh run's.
    const std::vector<ReuseJob> jobs = reuseJobs();
    for (const Combo &combo : allCombos()) {
        for (const bool accel : {false, true}) {
            SCOPED_TRACE(std::string(implName(combo.impl)) +
                         (accel ? " threaded" : " off"));
            LinkPlan plan;
            plan.lowering = combo.lowering;
            plan.shortCalls = combo.shortCalls;
            MachineConfig config;
            config.impl = combo.impl;
            config.accel.enabled = accel;
            sched::Runtime::ExecContext ctx;
            for (const ReuseJob &j : jobs) {
                SCOPED_TRACE(j.name);
                const std::vector<Word> args{j.arg};
                const sched::Job job{j.modules, j.module, "main", args};
                sched::Runtime::prepareContext(ctx, job, plan);

                Memory fresh(ctx.layout.memWords);
                Loader loader{ctx.layout, SizeClasses::standard()};
                for (const Module &m : *j.modules)
                    loader.add(m);
                const LoadedImage image = loader.load(fresh, plan);
                ASSERT_EQ(ctx.mem->size(), fresh.size());
                const Word *got = ctx.mem->raw();
                const Word *want = fresh.raw();
                const auto diff =
                    std::mismatch(got, got + fresh.size(), want);
                EXPECT_EQ(diff.first, got + fresh.size())
                    << "first differing word "
                    << (diff.first - got) << ": " << *diff.first
                    << " vs " << *diff.second;

                Machine reused(*ctx.mem, *ctx.image, config);
                reused.start(j.module, "main", args);
                const RunResult r = reused.run();
                Machine direct(fresh, image, config);
                direct.start(j.module, "main", args);
                const RunResult d = direct.run();
                EXPECT_EQ(r.reason, d.reason);
                EXPECT_EQ(r.message, d.message);
                EXPECT_EQ(reused.output(), direct.output());
                EXPECT_EQ(statsDoc(reused.stats(), ctx.mem->stats(),
                                   reused.heap().stats()),
                          statsDoc(direct.stats(), fresh.stats(),
                                   direct.heap().stats()));
            }
        }
    }
}

TEST(Runtime, ReusedWorkerMatchesFreshRunsAcrossCancel)
{
    // The same jobs through one slot, with one job canceled between
    // them: every result is the one a fresh one-job batch gives.
    std::vector<ReuseJob> jobs = reuseJobs();
    jobs.push_back(jobs[0]); // canceled
    jobs.push_back(jobs[0]);
    const std::size_t canceled = jobs.size() - 2;
    for (const Combo &combo : allCombos()) {
        for (const bool accel : {false, true}) {
            SCOPED_TRACE(std::string(implName(combo.impl)) +
                         (accel ? " threaded" : " off"));
            std::atomic<bool> stop{false};
            sched::RuntimeConfig rc;
            rc.workers = 1;
            rc.machine.impl = combo.impl;
            rc.machine.accel.enabled = accel;
            rc.plan.lowering = combo.lowering;
            rc.plan.shortCalls = combo.shortCalls;
            rc.stopFlag = &stop;
            sched::Runtime runtime(rc);
            runtime.startSlots();
            // The drain flag is up for exactly one of the jobs.
            std::vector<sched::JobResult> results;
            for (std::size_t i = 0; i < jobs.size(); ++i) {
                stop = i == canceled;
                results.push_back(runtime.runInSlot(
                    0, {jobs[i].modules, jobs[i].module, "main",
                        {jobs[i].arg}}));
            }
            runtime.stopSlots();
            for (std::size_t i = 0; i < jobs.size(); ++i) {
                SCOPED_TRACE(jobs[i].name);
                if (i == canceled) {
                    EXPECT_NE(results[i].error.find("canceled"),
                              std::string::npos);
                    continue;
                }
                rc.stopFlag = nullptr;
                rc.workers = 1;
                sched::Runtime alone(rc);
                alone.submit({jobs[i].modules, jobs[i].module, "main",
                              {jobs[i].arg}});
                const sched::JobResult want = alone.run().front();
                const sched::JobResult &got = results[i];
                EXPECT_EQ(got.reason, want.reason);
                EXPECT_EQ(got.value, want.value);
                EXPECT_EQ(got.error, want.error);
                EXPECT_EQ(got.output, want.output);
                EXPECT_EQ(got.steps, want.steps);
                EXPECT_EQ(got.cycles, want.cycles);
            }
        }
    }
}

TEST(Runtime, TimeslicedJobsPreemptAndStillAgree)
{
    const auto prog = shared(fibTracer());
    sched::RuntimeConfig rc;
    rc.workers = 2;
    rc.machine.impl = Impl::Banked;
    rc.machine.timesliceSteps = 64;
    rc.plan.lowering = CallLowering::Direct;
    rc.plan.shortCalls = true;
    sched::Runtime runtime(rc);
    for (unsigned j = 0; j < 4; ++j)
        runtime.submit({prog, "Fib", "main", {10}});
    const auto results = runtime.run();
    for (const sched::JobResult &r : results) {
        EXPECT_TRUE(r.ok) << r.error;
        EXPECT_EQ(r.value, 55u);
    }
    EXPECT_GT(runtime.machineStats().preemptions, 0u);
}

// ---------------------------------------------------------------------
// Mergeable statistics (the plumbing the Runtime relies on).
// ---------------------------------------------------------------------

TEST(StatsMerge, DistributionMergesMoments)
{
    stats::Distribution a, b;
    a.sample(1);
    a.sample(2);
    a.sample(3);
    b.sample(4);
    b.sample(5);
    a.merge(b);
    EXPECT_EQ(a.count(), 5u);
    EXPECT_DOUBLE_EQ(a.mean(), 3.0);
    EXPECT_DOUBLE_EQ(a.min(), 1.0);
    EXPECT_DOUBLE_EQ(a.max(), 5.0);

    stats::Distribution empty;
    a.merge(empty); // merging an empty distribution is a no-op
    EXPECT_EQ(a.count(), 5u);
    EXPECT_DOUBLE_EQ(a.min(), 1.0);
}

TEST(StatsMerge, StatGroupMergesByNameAndAdopts)
{
    stats::StatGroup a("g"), b("g");
    a.counter("hits") += 2;
    b.counter("hits") += 3;
    b.counter("misses") += 7; // absent in a: adopted on merge
    b.distribution("lat").sample(4);
    a.mergeFrom(b);
    EXPECT_EQ(a.findCounter("hits").value(), 5u);
    EXPECT_EQ(a.findCounter("misses").value(), 7u);
    EXPECT_EQ(a.findDistribution("lat").count(), 1u);
}

TEST(StatsMerge, MachineStatsSumAcrossRuns)
{
    const Combo combo{Impl::Banked, CallLowering::Direct, true};
    auto runOne = [&](Word n, MachineStats &into) {
        Rig rig(fibTracer(), combo);
        rig.machine.start("Fib", "main", std::array<Word, 1>{n});
        EXPECT_EQ(rig.machine.run().reason, StopReason::TopReturn);
        into.merge(rig.machine.stats());
        return rig.machine.stats().steps;
    };
    MachineStats merged;
    const CountT s1 = runOne(8, merged);
    const CountT s2 = runOne(10, merged);
    EXPECT_EQ(merged.steps, s1 + s2);
    EXPECT_GT(merged.calls() + merged.returns(), 0u);
    const double rate = merged.fastCallReturnRate();
    EXPECT_GE(rate, 0.0);
    EXPECT_LE(rate, 1.0);
}

// ---------------------------------------------------------------------
// Span tracing through the Runtime (src/obs/spans wired into slot and
// batch execution).
// ---------------------------------------------------------------------

TEST(RuntimeSpans, BatchRunSynthesizesSpanTreesPerJob)
{
    const auto prog = shared(fibTracer());
    obs::SpanCollector sc;
    sched::RuntimeConfig rc;
    rc.workers = 2;
    rc.trace = true; // static assignment: job i -> worker i mod stride
    rc.spans = &sc;
    sched::Runtime runtime(rc);
    for (unsigned j = 0; j < 4; ++j)
        runtime.submit({prog, "Fib", "main", {8}});
    const auto results = runtime.run();
    ASSERT_EQ(results.size(), 4u);

    const auto faults = obs::checkSpans(sc);
    EXPECT_TRUE(faults.empty())
        << (faults.empty() ? "" : faults.front().what);
    // request + queued + execute ⊃ prepare, run per job, no
    // serve-side phases.
    EXPECT_EQ(sc.recorded(), 20u);
    std::map<std::uint64_t, std::vector<obs::Span>> trees;
    for (const obs::Span &s : sc.spans())
        trees[s.id].push_back(s);
    ASSERT_EQ(trees.size(), 4u);
    for (std::size_t i = 0; i < results.size(); ++i) {
        const std::uint64_t sid = i + 1; // batch span id = job idx + 1
        ASSERT_EQ(trees.count(sid), 1u);
        const std::vector<obs::Span> &tree = trees[sid];
        ASSERT_EQ(tree.size(), 5u);
        std::map<obs::SpanKind, obs::Span> kinds;
        for (const obs::Span &s : tree) {
            kinds[s.kind] = s;
            EXPECT_EQ(s.trackKind, obs::SpanTrack::Worker);
            EXPECT_EQ(s.track, results[i].worker)
                << obs::spanKindName(s.kind) << " of job " << i;
            if (s.kind == obs::SpanKind::Execute) {
                // The span brackets exactly the stamped exec window.
                EXPECT_EQ(s.startNs, results[i].execStartNs);
                EXPECT_EQ(s.endNs, results[i].execEndNs);
            }
        }
        EXPECT_EQ(kinds.count(obs::SpanKind::Request), 1u);
        EXPECT_EQ(kinds.count(obs::SpanKind::Queued), 1u);
        ASSERT_EQ(kinds.count(obs::SpanKind::Execute), 1u);
        ASSERT_EQ(kinds.count(obs::SpanKind::Prepare), 1u);
        ASSERT_EQ(kinds.count(obs::SpanKind::Run), 1u);
        // Prepare then run tile the execute window.
        EXPECT_EQ(kinds[obs::SpanKind::Prepare].startNs,
                  results[i].execStartNs);
        EXPECT_EQ(kinds[obs::SpanKind::Prepare].endNs,
                  kinds[obs::SpanKind::Run].startNs);
        EXPECT_EQ(kinds[obs::SpanKind::Run].endNs, results[i].execEndNs);
    }
}

TEST(RuntimeSpans, SlotJobsLandOnTheirSlotsTrack)
{
    // Slot-mode tracing determinism: a job's spans — the request ⊃
    // queued tree the runtime synthesizes, and execute ⊃ prepare, run
    // — land on the track of the slot that executed it,
    // JobResult::worker, whichever thread called in.
    const auto prog = shared(fibTracer());
    constexpr unsigned perSlot = 4;
    obs::SpanCollector sc;
    sched::RuntimeConfig rc;
    rc.workers = 2;
    rc.spans = &sc;
    sched::Runtime runtime(rc);
    runtime.startSlots();
    std::mutex mu;
    std::map<unsigned, unsigned> workerOf; // job id -> slot
    std::vector<std::thread> callers;
    for (unsigned k = 0; k < 2; ++k)
        callers.emplace_back([&, k] {
            for (unsigned j = 0; j < perSlot; ++j) {
                const sched::JobResult r =
                    runtime.runInSlot(k, {prog, "Fib", "main", {8}});
                std::lock_guard<std::mutex> lock(mu);
                EXPECT_EQ(r.worker, k);
                workerOf[r.id] = r.worker;
            }
        });
    for (std::thread &t : callers)
        t.join();
    runtime.stopSlots();

    ASSERT_EQ(workerOf.size(), 2 * perSlot);
    const auto faults = obs::checkSpans(sc);
    EXPECT_TRUE(faults.empty())
        << (faults.empty() ? "" : faults.front().what);
    EXPECT_EQ(sc.recorded(), 5u * 2 * perSlot); // 5 spans per job
    for (const obs::Span &s : sc.spans()) {
        ASSERT_GE(s.id, 1u);
        const auto id = static_cast<unsigned>(s.id - 1);
        ASSERT_EQ(workerOf.count(id), 1u);
        EXPECT_EQ(s.trackKind, obs::SpanTrack::Worker);
        EXPECT_EQ(s.track, workerOf[id])
            << obs::spanKindName(s.kind) << " of job " << id;
    }
}

TEST(RuntimeSpans, SpanCollectionLeavesStatsJsonByteIdentical)
{
    // Spans are host-time observability only: the exported simulated
    // stats document must be byte-for-byte the same with the
    // collector attached or absent.
    const auto prog = shared(fibTracer());
    const auto statsDoc = [&](obs::SpanCollector *sc) {
        sched::RuntimeConfig rc;
        rc.workers = 2;
        rc.trace = true; // static assignment: deterministic merge
        rc.spans = sc;
        sched::Runtime runtime(rc);
        for (unsigned j = 0; j < 4; ++j)
            runtime.submit({prog, "Fib", "main", {8}});
        runtime.run();
        obs::StatsExport exp;
        exp.driver = "test_scheduler";
        exp.impl = implName(rc.machine.impl);
        exp.workers = runtime.workers();
        exp.machine = &runtime.machineStats();
        exp.groups.push_back(&runtime.stats());
        std::ostringstream os;
        obs::writeStatsJson(os, exp);
        return os.str();
    };
    obs::SpanCollector sc;
    const std::string withSpans = statsDoc(&sc);
    const std::string without = statsDoc(nullptr);
    EXPECT_GT(sc.recorded(), 0u);
    EXPECT_EQ(withSpans, without);
}

} // namespace
} // namespace fpc
