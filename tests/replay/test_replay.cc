/**
 * @file
 * Tests for the fpc_replay library: fpc-record-v1 round-tripping,
 * record/verify on every engine, the accel on/off determinism
 * contract, seeded fault injection (a corrupted digest must be
 * pinpointed to the right interval and produce a divergence bundle),
 * forced scheduler decisions, runtime batch recording, and the
 * cross-engine diverge check.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "lang/codegen.hh"
#include "machine/digest.hh"
#include "machine/machine.hh"
#include "program/loader.hh"
#include "replay/record.hh"
#include "replay/recorder.hh"
#include "replay/replayer.hh"
#include "sched/runtime.hh"
#include "sched/scheduler.hh"

namespace fpc
{
namespace
{

const char *const kFibSource = R"(
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
)";

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

/** Record `source` exactly the way the fpcreplay/fpcvm drivers do:
 *  image hash before the Machine exists, bracket sample after
 *  start(), finish before any popValue. */
replay::RecordLog
recordProgram(const std::string &source, const Combo &combo,
              std::vector<Word> args, std::uint64_t timeslice = 0,
              Tick interval = 1000, bool accel = true,
              AccelStats *accel_stats = nullptr)
{
    const auto modules = lang::compile(source);

    SystemLayout layout;
    Memory mem(layout.memWords);
    Loader loader{layout, SizeClasses::standard()};
    for (const auto &m : modules)
        loader.add(m);
    LinkPlan plan;
    plan.lowering = combo.lowering;
    plan.shortCalls = combo.shortCalls;
    const LoadedImage image = loader.load(mem, plan);

    replay::RecordLog log;
    log.impl = combo.impl;
    log.lowering = combo.lowering;
    log.shortCalls = combo.shortCalls;
    log.timeslice = timeslice;
    log.accel = accel;
    log.interval = interval;
    log.imageHash = replay::imageHash(mem, image);
    log.entryModule = modules.front().name;
    log.entryProc = "main";
    log.args = args;
    log.source = source;

    MachineConfig config;
    config.impl = combo.impl;
    config.timesliceSteps = timeslice;
    config.accel.enabled = accel;
    Machine machine(mem, image, config);

    replay::Recorder recorder;
    recorder.beginJob(0, 0);
    machine.setSampler(&recorder, interval);
    if (timeslice > 0) {
        machine.setScheduler(recorder.wrapPolicy(
            [](Machine &m) { return m.currentFrameContext(); }));
    }
    machine.start(log.entryModule, log.entryProc, log.args);
    recorder.sample(machine);
    const RunResult result = machine.run();
    recorder.finish(machine, result);
    log.jobs.push_back(recorder.takeJob());
    if (accel_stats != nullptr)
        *accel_stats = machine.accelStats();
    return log;
}

std::string
serialize(const replay::RecordLog &log)
{
    std::ostringstream os;
    replay::writeRecord(os, log);
    return os.str();
}

replay::RecordLog
parse(const std::string &text)
{
    std::istringstream is(text);
    return replay::parseRecord(is);
}

TEST(RecordFormat, RoundTripsEveryField)
{
    const replay::RecordLog log = recordProgram(
        kFibSource, {Impl::Banked, CallLowering::Direct, true}, {6},
        /*timeslice=*/50);
    const replay::RecordLog back = parse(serialize(log));

    EXPECT_EQ(back.impl, log.impl);
    EXPECT_EQ(back.lowering, log.lowering);
    EXPECT_EQ(back.shortCalls, log.shortCalls);
    EXPECT_EQ(back.banks, log.banks);
    EXPECT_EQ(back.timeslice, log.timeslice);
    EXPECT_EQ(back.accel, log.accel);
    EXPECT_EQ(back.interval, log.interval);
    EXPECT_EQ(back.imageHash, log.imageHash);
    EXPECT_EQ(back.entryModule, log.entryModule);
    EXPECT_EQ(back.entryProc, log.entryProc);
    EXPECT_EQ(back.args, log.args);
    EXPECT_EQ(back.source, log.source);

    ASSERT_EQ(back.jobs.size(), 1u);
    const replay::JobRecord &a = log.jobs.front();
    const replay::JobRecord &b = back.jobs.front();
    EXPECT_EQ(b.id, a.id);
    EXPECT_EQ(b.worker, a.worker);
    ASSERT_EQ(b.samples.size(), a.samples.size());
    for (std::size_t i = 0; i < a.samples.size(); ++i) {
        EXPECT_EQ(b.samples[i].steps, a.samples[i].steps);
        EXPECT_EQ(b.samples[i].cycles, a.samples[i].cycles);
        EXPECT_EQ(b.samples[i].digest, a.samples[i].digest);
    }
    ASSERT_EQ(b.decisions.size(), a.decisions.size());
    for (std::size_t i = 0; i < a.decisions.size(); ++i) {
        EXPECT_EQ(b.decisions[i].step, a.decisions[i].step);
        EXPECT_EQ(b.decisions[i].ctx, a.decisions[i].ctx);
    }
    EXPECT_EQ(b.final.reason, a.final.reason);
    EXPECT_EQ(b.final.steps, a.final.steps);
    EXPECT_EQ(b.final.cycles, a.final.cycles);
    EXPECT_EQ(b.final.digest, a.final.digest);
    EXPECT_EQ(b.final.value, a.final.value);
    EXPECT_EQ(b.final.pc, a.final.pc);
    EXPECT_EQ(b.final.heapAllocs, a.final.heapAllocs);
}

TEST(RecordFormat, RejectsTruncatedLog)
{
    const replay::RecordLog log = recordProgram(
        kFibSource, {Impl::Mesa, CallLowering::Mesa, false}, {5});
    std::string text = serialize(log);
    text.resize(text.size() / 2); // drop the eof terminator
    EXPECT_THROW(parse(text), FatalError);
}

TEST(Verify, PassesOnEveryEngine)
{
    for (const Combo &combo : allCombos()) {
        const replay::RecordLog log =
            recordProgram(kFibSource, combo, {7});
        replay::Replayer replayer(parse(serialize(log)));
        const replay::VerifyResult r = replayer.verify({});
        EXPECT_TRUE(r.ok) << implName(combo.impl);
        EXPECT_FALSE(r.divergence.has_value()) << implName(combo.impl);
        EXPECT_GE(r.samplesChecked, 2u) << implName(combo.impl);
    }
}

TEST(Verify, PassesWithTimesliceDecisions)
{
    for (const Combo &combo : allCombos()) {
        const replay::RecordLog log = recordProgram(
            kFibSource, combo, {7}, /*timeslice=*/64);
        ASSERT_FALSE(log.jobs.front().decisions.empty())
            << implName(combo.impl);
        replay::Replayer replayer(parse(serialize(log)));
        const replay::VerifyResult r = replayer.verify({});
        EXPECT_TRUE(r.ok) << implName(combo.impl);
        EXPECT_FALSE(r.decisionOverrun) << implName(combo.impl);
    }
}

TEST(Verify, AccelOverrideIsInvisible)
{
    // The determinism contract: simulated numbers are byte-identical
    // with host acceleration on or off, so a recording taken with
    // accel on must verify with accel forced off — and vice versa.
    AccelStats onStats;
    const replay::RecordLog onLog = recordProgram(
        kFibSource, {Impl::Banked, CallLowering::Direct, true}, {7},
        0, 1000, /*accel=*/true, &onStats);
    // The recorder, an exact sampler, rides the superblocks.
    EXPECT_GT(onStats.sblockExecs, 0u);
    replay::Replayer onReplayer(parse(serialize(onLog)));
    replay::VerifyOptions forceOff;
    forceOff.accelOverride = false;
    EXPECT_TRUE(onReplayer.verify(forceOff).ok);

    const replay::RecordLog offLog = recordProgram(
        kFibSource, {Impl::Banked, CallLowering::Direct, true}, {7},
        0, 1000, /*accel=*/false);
    replay::Replayer offReplayer(parse(serialize(offLog)));
    replay::VerifyOptions forceOn;
    forceOn.accelOverride = true;
    EXPECT_TRUE(offReplayer.verify(forceOn).ok);

    // Both recordings hold the same digests, bar the backend they
    // name.
    replay::RecordLog offAsOn = offLog;
    offAsOn.accel = true;
    EXPECT_EQ(serialize(offAsOn), serialize(onLog));
}

TEST(Verify, CorruptDigestPinpointsIntervalAndWritesBundle)
{
    const replay::RecordLog log = recordProgram(
        kFibSource, {Impl::Mesa, CallLowering::Mesa, false}, {8});
    ASSERT_GE(log.jobs.front().samples.size(), 3u);
    std::string text = serialize(log);

    // Seeded fault: flip one digest byte in the third sample line.
    std::istringstream is(text);
    std::ostringstream os;
    std::string line;
    unsigned sampleNo = 0;
    while (std::getline(is, line)) {
        if (line.rfind("sample ", 0) == 0 && ++sampleNo == 3) {
            const auto pos = line.find_last_of(' ') + 1;
            line[pos] = line[pos] == 'f' ? '0' : 'f';
        }
        os << line << "\n";
    }
    ASSERT_GE(sampleNo, 3u);

    const auto dir = std::filesystem::temp_directory_path() /
                     "fpc_replay_divergence_test";
    std::filesystem::remove_all(dir);

    replay::Replayer replayer(parse(os.str()));
    replay::VerifyOptions vo;
    vo.divergenceDir = dir.string();
    const replay::VerifyResult r = replayer.verify(vo);

    ASSERT_FALSE(r.ok);
    ASSERT_TRUE(r.divergence.has_value());
    const replay::Divergence &d = *r.divergence;
    // Sample index 2 is the third sample — exactly where the fault
    // was seeded — and its window starts after the second sample.
    EXPECT_EQ(d.job, 0u);
    EXPECT_EQ(d.sampleIndex, 2u);
    EXPECT_FALSE(d.finalMismatch);
    EXPECT_EQ(d.windowBeginStep,
              log.jobs.front().samples[1].steps + 1);
    EXPECT_EQ(d.windowEndStep, log.jobs.front().samples[2].steps);
    // The replay itself is deterministic, so bisection must conclude
    // the recording side is the corrupt one.
    EXPECT_TRUE(d.bisected);
    EXPECT_TRUE(d.selfConsistent);

    ASSERT_FALSE(d.bundlePath.empty());
    std::ifstream bundle(d.bundlePath);
    ASSERT_TRUE(bundle.good());
    std::stringstream buffer;
    buffer << bundle.rdbuf();
    const std::string json = buffer.str();
    EXPECT_NE(json.find("\"fpc-postmortem-v1\""), std::string::npos);
    EXPECT_NE(json.find("\"replay-divergence\""), std::string::npos);
    EXPECT_NE(json.find("\"sampleIndex\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"selfConsistent\": true"),
              std::string::npos);
    EXPECT_NE(json.find("\"recordedFinal\""), std::string::npos);
    EXPECT_NE(json.find("\"replayedFinal\""), std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(Verify, CorruptFinalValueIsAFinalMismatch)
{
    const replay::RecordLog log = recordProgram(
        kFibSource, {Impl::Mesa, CallLowering::Mesa, false}, {6});
    replay::RecordLog bad = parse(serialize(log));
    bad.jobs.front().final.value ^= 1;
    replay::Replayer replayer(std::move(bad));
    const replay::VerifyResult r = replayer.verify({});
    ASSERT_FALSE(r.ok);
    ASSERT_TRUE(r.divergence.has_value());
    EXPECT_TRUE(r.divergence->finalMismatch);
}

TEST(Verify, WrongImageHashIsReported)
{
    const replay::RecordLog log = recordProgram(
        kFibSource, {Impl::Mesa, CallLowering::Mesa, false}, {5});
    replay::RecordLog bad = parse(serialize(log));
    bad.imageHash ^= 0xdeadbeef;
    replay::Replayer replayer(std::move(bad));
    const replay::VerifyResult r = replayer.verify({});
    ASSERT_FALSE(r.ok);
    ASSERT_TRUE(r.divergence.has_value());
    EXPECT_NE(r.divergence->detail.find("image hash"),
              std::string::npos);
}

TEST(Diverge, EnginesAgreeOnArchitecturalDigests)
{
    const replay::RecordLog log = recordProgram(
        kFibSource, {Impl::Mesa, CallLowering::Mesa, false}, {7});
    replay::Replayer replayer(parse(serialize(log)));
    for (const Impl other :
         {Impl::Simple, Impl::Ifu, Impl::Banked}) {
        const replay::DivergeResult r = replayer.diverge(other);
        EXPECT_TRUE(r.equivalent) << implName(other);
        EXPECT_GT(r.xfersCompared, 0u) << implName(other);
    }
}

TEST(SchedulerReplay, ForcedDecisionsReproduceDispatchOrder)
{
    const auto modules = lang::compile(R"(
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

    auto run = [&](sched::Policy policy, auto configure) {
        SystemLayout layout;
        Memory mem(layout.memWords);
        Loader loader{layout, SizeClasses::standard()};
        for (const auto &m : modules)
            loader.add(m);
        LinkPlan plan;
        const LoadedImage image = loader.load(mem, plan);
        MachineConfig config;
        Machine machine(mem, image, config);
        sched::Scheduler sched(machine, policy);
        configure(sched);
        sched.spawn("Procs", "worker", std::array<Word, 1>{Word{1}},
                    1);
        sched.spawn("Procs", "worker", std::array<Word, 1>{Word{2}},
                    5);
        sched.spawn("Procs", "worker", std::array<Word, 1>{Word{3}},
                    3);
        sched.runAll();
        return machine.output();
    };

    // Record the priority policy's dispatch sequence...
    std::vector<replay::Decision> picks;
    const auto recorded =
        run(sched::Policy::Priority, [&](sched::Scheduler &s) {
            s.setPickHook([&picks](std::uint64_t step, unsigned pid) {
                picks.push_back({step, static_cast<Word>(pid)});
            });
        });
    ASSERT_FALSE(picks.empty());

    // ...then force it onto a round-robin scheduler. The forced
    // decisions must win and reproduce the exact output order.
    std::size_t cursor = 0;
    const auto replayed =
        run(sched::Policy::RoundRobin, [&](sched::Scheduler &s) {
            s.setPickOverride(
                [&picks, &cursor](std::uint64_t, int) -> int {
                    if (cursor >= picks.size())
                        return -1;
                    return static_cast<int>(picks[cursor++].ctx);
                });
        });
    EXPECT_EQ(cursor, picks.size());
    EXPECT_EQ(replayed, recorded);

    // Control: round-robin left to its own devices picks a different
    // dispatch order for these priorities.
    const auto freeRun =
        run(sched::Policy::RoundRobin, [](sched::Scheduler &) {});
    EXPECT_NE(freeRun, recorded);
}

TEST(RuntimeRecord, BatchRecordingVerifies)
{
    const auto modules = std::make_shared<const std::vector<Module>>(
        lang::compile(kFibSource));

    sched::RuntimeConfig rc;
    rc.workers = 2;
    rc.record = true;
    rc.machine.timesliceSteps = 100;
    rc.metricsInterval = 500;
    sched::Runtime runtime(rc);
    // One arg list for the whole batch: the fpc-record-v1 header
    // carries a single entry/args, so recordable batches are
    // homogeneous (exactly what fpcrun submits).
    for (unsigned j = 0; j < 4; ++j) {
        sched::Job job;
        job.modules = modules;
        job.module = "Fib";
        job.proc = "main";
        job.args = {Word{6}};
        runtime.submit(job);
    }
    const auto results = runtime.run();
    for (const auto &r : results)
        EXPECT_TRUE(r.ok);

    replay::RecordLog log;
    log.timeslice = rc.machine.timesliceSteps;
    log.interval = rc.metricsInterval;
    log.workers = runtime.workers();
    log.stride = runtime.stride();
    log.imageHash = runtime.recordedImageHash();
    log.entryModule = "Fib";
    log.entryProc = "main";
    log.args = {Word{6}};
    log.source = kFibSource;
    log.jobs = runtime.jobRecords();
    ASSERT_EQ(log.jobs.size(), 4u);
    // Static assignment: job i runs on worker i mod stride.
    for (unsigned j = 0; j < 4; ++j) {
        EXPECT_EQ(log.jobs[j].id, j);
        EXPECT_EQ(log.jobs[j].worker, j % runtime.stride());
    }

    replay::Replayer replayer(parse(serialize(log)));
    const replay::VerifyResult r = replayer.verify({});
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.jobsChecked, 4u);
}

TEST(Digest, ScopesBehaveAsDocumented)
{
    const auto modules = lang::compile(kFibSource);
    SystemLayout layout;
    Memory mem(layout.memWords);
    Loader loader{layout, SizeClasses::standard()};
    for (const auto &m : modules)
        loader.add(m);
    LinkPlan plan;
    const LoadedImage image = loader.load(mem, plan);
    MachineConfig config;
    Machine machine(mem, image, config);
    machine.start("Fib", "main", std::array<Word, 1>{Word{5}});

    const std::uint64_t full0 =
        stateDigest(machine, DigestScope::Full);
    const std::uint64_t arch0 =
        stateDigest(machine, DigestScope::Arch);
    EXPECT_NE(full0, arch0); // scopes hash different sections

    // Digests are pure observers: reading state twice is identical
    // and costs no simulated time.
    const Tick before = machine.stats().cycles;
    EXPECT_EQ(stateDigest(machine, DigestScope::Full), full0);
    EXPECT_EQ(machine.stats().cycles, before);

    machine.run();
    EXPECT_NE(stateDigest(machine, DigestScope::Full), full0);
}

} // namespace
} // namespace fpc
