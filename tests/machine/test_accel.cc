/**
 * @file
 * Host-acceleration tests (docs/PERFORMANCE.md): the invariance
 * contract — every simulated number is bit-identical with
 * acceleration on or off — plus the invalidation hooks (code patches,
 * relocation) and the steady-state hit rates the C9 benchmark relies
 * on.
 */

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "asm/builder.hh"
#include "common/logging.hh"
#include "lang/codegen.hh"
#include "machine/machine.hh"
#include "machine/digest.hh"
#include "obs/fanout.hh"
#include "obs/json.hh"
#include "obs/postmortem.hh"
#include "obs/probes.hh"
#include "obs/profile.hh"
#include "obs/trace.hh"
#include "program/loader.hh"
#include "program/relocate.hh"

namespace fpc
{
namespace
{

/** The two host execution backends under test. */
enum class Mode
{
    Off,      ///< eager per-step loop
    Threaded, ///< computed-goto superblocks (the default)
};

void
applyMode(MachineConfig &config, Mode mode)
{
    config.accel.enabled = mode != Mode::Off;
}

/** A call-heavy program: main loops n times, each iteration calling
 *  bump(acc) = acc + 77 through a local call. */
Module
callLoopModule()
{
    ModuleBuilder b("M");
    auto &bump = b.proc("bump", 1, 1);
    bump.loadLocal(0).loadImm(77).op(isa::Op::ADD).ret();

    auto &main = b.proc("main", 1, 2);
    auto loop = main.newLabel();
    auto done = main.newLabel();
    main.loadImm(0).storeLocal(1);
    main.label(loop);
    main.loadLocal(0).jumpZero(done);
    main.loadLocal(1).callLocal("bump").storeLocal(1);
    main.loadLocal(0).loadImm(1).op(isa::Op::SUB).storeLocal(0);
    main.jump(loop);
    main.label(done);
    main.loadLocal(1).ret();
    return b.build();
}

/** A branch-heavy variant: each iteration compares the counter
 *  against a threshold and only calls bump below it, so compare +
 *  conditional-branch pairs (the threaded backend's fused CMPBR
 *  superinstruction) run hot in both directions, and the taken side
 *  leads straight into a call — on the banked engine the stack bank
 *  holding the compare's transient boolean gets renamed into the
 *  callee's frame bank, which is exactly the path where a fused
 *  compare that skipped the boolean's slot write would leak a wrong
 *  dirty word into a later flush. */
Module
compareLoopModule()
{
    ModuleBuilder b("M");
    auto &bump = b.proc("bump", 1, 1);
    bump.loadLocal(0).loadImm(77).op(isa::Op::ADD).ret();

    auto &main = b.proc("main", 1, 2);
    auto loop = main.newLabel();
    auto skip = main.newLabel();
    auto next = main.newLabel();
    auto done = main.newLabel();
    main.loadImm(0).storeLocal(1);
    main.label(loop);
    main.loadLocal(0).jumpZero(done);
    main.loadLocal(0).loadImm(100).op(isa::Op::LT).jumpZero(skip);
    main.loadLocal(1).callLocal("bump").storeLocal(1);
    main.jump(next);
    main.label(skip);
    main.label(next);
    main.loadLocal(0).loadImm(1).op(isa::Op::SUB).storeLocal(0);
    main.jump(loop);
    main.label(done);
    main.loadLocal(1).ret();
    return b.build();
}

struct EngineCombo
{
    Impl impl;
    CallLowering lowering;
};

const EngineCombo combos[] = {
    {Impl::Simple, CallLowering::Fat},
    {Impl::Mesa, CallLowering::Mesa},
    {Impl::Ifu, CallLowering::Direct},
    {Impl::Banked, CallLowering::Direct},
};

struct RunOut
{
    Word value = 0;
    std::string statsJson;
    std::string traceJson;
    StopReason reason = StopReason::Running;
    AccelStats accel;
};

/** One complete run on a fresh memory/image; exports the full
 *  simulated-stats document (and optionally an XFER trace). */
RunOut
runOnce(const EngineCombo &combo, Mode mode, Word n, bool with_trace,
        Module (*module)() = callLoopModule)
{
    const SystemLayout layout;
    Memory mem(layout.memWords);
    Loader loader{layout, SizeClasses::standard()};
    loader.add(module());
    LinkPlan plan;
    plan.lowering = combo.lowering;
    const LoadedImage image = loader.load(mem, plan);

    MachineConfig config;
    config.impl = combo.impl;
    applyMode(config, mode);
    Machine machine(mem, image, config);

    obs::Tracer tracer;
    if (with_trace)
        machine.setObserver(&tracer);

    machine.start("M", "main", std::array<Word, 1>{n});
    RunOut out;
    out.reason = machine.run().reason;
    if (out.reason == StopReason::TopReturn)
        out.value = machine.popValue();

    std::ostringstream stats;
    obs::StatsExport exp;
    exp.driver = "test_accel";
    exp.impl = implName(config.impl);
    exp.stopReason = stopReasonName(out.reason);
    exp.machine = &machine.stats();
    exp.memory = &mem.stats();
    exp.heap = &machine.heap().stats();
    exp.cache = machine.dataCache();
    obs::writeStatsJson(stats, exp);
    out.statsJson = stats.str();
    out.accel = machine.accelStats();

    if (with_trace) {
        std::ostringstream trace;
        obs::writeChromeTrace(trace, {&tracer});
        out.traceJson = trace.str();
    }
    return out;
}

// ---------------------------------------------------------------------
// The invariance contract
// ---------------------------------------------------------------------

TEST(AccelDeterminism, StatsJsonByteIdenticalOnEveryEngine)
{
    for (const EngineCombo &combo : combos) {
        const RunOut off = runOnce(combo, Mode::Off, 200, false);
        ASSERT_EQ(off.reason, StopReason::TopReturn)
            << implName(combo.impl);
        const RunOut out = runOnce(combo, Mode::Threaded, 200, false);
        EXPECT_EQ(off.value, out.value) << implName(combo.impl);
        EXPECT_EQ(off.statsJson, out.statsJson) << implName(combo.impl);
    }
}

TEST(AccelDeterminism, CompareBranchStatsIdenticalOnEveryEngine)
{
    // The compare-loop workload keeps the threaded backend's fused
    // compare+branch and load-pair superinstructions hot, with the
    // taken side calling through an XFER (the bank-rename path that
    // makes the compare's transient boolean slot write observable on
    // the banked engine).
    for (const EngineCombo &combo : combos) {
        const RunOut off =
            runOnce(combo, Mode::Off, 200, false, compareLoopModule);
        ASSERT_EQ(off.reason, StopReason::TopReturn)
            << implName(combo.impl);
        EXPECT_EQ(off.value, static_cast<Word>(99 * 77))
            << implName(combo.impl);
        const RunOut out =
            runOnce(combo, Mode::Threaded, 200, false, compareLoopModule);
        EXPECT_EQ(off.value, out.value) << implName(combo.impl);
        EXPECT_EQ(off.statsJson, out.statsJson) << implName(combo.impl);
    }
}

TEST(AccelDeterminism, TraceByteIdenticalWithObserverAttached)
{
    // The XFER records' absolute cycle/step stamps must come out
    // identical on the threaded loop and the eager one.
    for (const EngineCombo &combo : combos) {
        const RunOut off = runOnce(combo, Mode::Off, 100, true);
        const RunOut out = runOnce(combo, Mode::Threaded, 100, true);
        EXPECT_EQ(off.traceJson, out.traceJson) << implName(combo.impl);
        EXPECT_EQ(off.statsJson, out.statsJson) << implName(combo.impl);
    }
}

/** Everything each observer of src/obs (and the replay layer's
 *  per-XFER digester) produces from one run of the call loop, with
 *  the observers attached alone or all at once through a Fanout. */
struct ObservedOut
{
    std::string documents;
    AccelStats accel;
};

ObservedOut
runObserved(const EngineCombo &combo, Mode mode, int which)
{
    const SystemLayout layout;
    Memory mem(layout.memWords);
    Loader loader{layout, SizeClasses::standard()};
    loader.add(callLoopModule());
    LinkPlan plan;
    plan.lowering = combo.lowering;
    const LoadedImage image = loader.load(mem, plan);

    MachineConfig config;
    config.impl = combo.impl;
    applyMode(config, mode);
    Machine machine(mem, image, config);

    obs::ProbeRegistry registry;
    std::string err;
    EXPECT_TRUE(obs::attachProbeSpecs(
        registry,
        {"entry:M.bump -> capture(4)", "exit:M.* -> sum(cycles)",
         "xfer:localcall -> quantize(refs)",
         "xfer:fatcall -> sum(refs)", "xfer:return -> capture(3)", "alloc -> capture(2)",
         "free -> count"},
        err))
        << err;
    obs::Tracer tracer;
    obs::Profiler profiler(image);
    obs::FlightRecorder recorder(16);
    obs::ProbeEngine probes(registry.snapshot(), image, "", 0);
    XferDigester digester(DigestScope::Full);
    XferObserver *const all[] = {&tracer, &profiler, &recorder, &probes,
                                 &digester};
    obs::Fanout fanout;
    for (int i = 0; i < 5; ++i)
        if (which < 0 || which == i)
            fanout.add(all[i]);
    fanout.attach(machine);

    machine.start("M", "main", std::array<Word, 1>{Word{100}});
    EXPECT_EQ(machine.run().reason, StopReason::TopReturn);
    machine.setObserver(nullptr);

    std::ostringstream os;
    obs::writeChromeTrace(os, {&tracer});
    const obs::ProfileData profile = profiler.finish(machine);
    profile.writeFolded(os);
    profile.topTable().print(os);
    for (const XferRecord &r : recorder.records())
        os << r.start << " " << r.end << " " << r.step << " " << r.refs
           << "\n";
    probes.finishInto(registry);
    registry.writeJson(os, "test_accel");
    for (const XferDigester::Entry &e : digester.entries())
        os << e.step << ":" << e.digest << "\n";
    return {os.str(), machine.accelStats()};
}

TEST(AccelDeterminism, ObserverRunsThreaded)
{
    // Observers are exact on the threaded loop: every observer, alone
    // and all through one Fanout, leaves the run on superblocks and
    // produces what it produces on the eager loop, byte for byte.
    for (const EngineCombo &combo : combos) {
        for (int which = -1; which < 5; ++which) {
            SCOPED_TRACE(std::string(implName(combo.impl)) +
                         " observer " + std::to_string(which));
            const ObservedOut off = runObserved(combo, Mode::Off, which);
            const ObservedOut thr =
                runObserved(combo, Mode::Threaded, which);
            EXPECT_GT(thr.accel.sblockExecs, 0u);
            EXPECT_EQ(off.documents, thr.documents);
        }
        const RunOut off = runOnce(combo, Mode::Off, 100, true);
        const RunOut out = runOnce(combo, Mode::Threaded, 100, true);
        EXPECT_GT(out.accel.sblockExecs, 0u) << implName(combo.impl);
        EXPECT_EQ(off.traceJson, out.traceJson) << implName(combo.impl);
        EXPECT_EQ(off.statsJson, out.statsJson) << implName(combo.impl);
    }
}

TEST(AccelDeterminism, ThreadedFastPathActuallyEngages)
{
    // With no hook attached the workload runs through superblocks:
    // the baseline for the sblockExecs assertions of the hooked runs.
    const SystemLayout layout;
    Memory mem(layout.memWords);
    Loader loader{layout, SizeClasses::standard()};
    loader.add(callLoopModule());
    const LoadedImage image = loader.load(mem, LinkPlan{});

    MachineConfig config;
    applyMode(config, Mode::Threaded);
    Machine machine(mem, image, config);
    EXPECT_TRUE(machine.threadedActive());
    machine.start("M", "main", std::array<Word, 1>{Word{100}});
    ASSERT_EQ(machine.run().reason, StopReason::TopReturn);
    EXPECT_GT(machine.accelStats().sblockBuilds, 0u);
    EXPECT_GT(machine.accelStats().sblockExecs, 0u);
}

// ---------------------------------------------------------------------
// Call-heavy cases: the threaded backend's call-site target caches,
// host return prediction and deferred XFER sums must leave every
// simulated number where the eager loop puts it.
// ---------------------------------------------------------------------

std::vector<Module>
fibModules()
{
    return lang::compile(R"(
        module M;
        proc fib(n) {
            if (n < 2) { return n; }
            return fib(n - 1) + fib(n - 2);
        }
        proc main(n) { return fib(n); }
    )");
}

/** One call-heavy case: the program, its argument, and optional
 *  machine configuration and hooks. */
struct CallCase
{
    CallCase(std::vector<Module> program, Word argument)
        : modules(std::move(program)), arg(argument)
    {
    }

    std::vector<Module> modules;
    Word arg = 0;
    std::function<void(MachineConfig &)> configure;
    /** Attach a logging observer and a tracer. */
    bool observe = false;
    /** Rewrite one code byte with its own value from a sampler,
     *  moving the code epoch mid-run. */
    bool pokeMidRun = false;
    /** Install M.handler as the trap context. */
    bool trapHandler = false;
    /** Attach an exact BoundaryLog every this many cycles (0: none);
     *  through the observers' Fanout when observe is set. */
    Tick sampleEvery = 0;
};

/** Logs every event with the absolute stamps the machine shows it,
 *  which both backends must show identically. */
struct LoggingProbes : XferObserver
{
    std::ostringstream log;
    void
    onXfer(const XferRecord &record, const Machine &m) override
    {
        log << "x" << static_cast<unsigned>(record.kind) << ":"
            << record.refs << ":" << record.start << "-" << record.end
            << ":" << record.step;
        stamp(m);
    }
    void
    onFrameAlloc(unsigned fsi, bool fast, const Machine &m) override
    {
        log << "a" << fsi << fast;
        stamp(m);
    }
    void
    onFrameFree(unsigned fsi, bool fast, const Machine &m) override
    {
        log << "f" << fsi << fast;
        stamp(m);
    }
    void
    onTrap(Word code, const Machine &m) override
    {
        log << "t" << code;
        stamp(m);
    }
    void
    stamp(const Machine &m)
    {
        log << "@" << m.cycles() << "/" << m.stats().steps << "/"
            << m.memory().totalRefs() << "/"
            << m.memory().codeByteFetches() << "/" << m.pc() << "/"
            << m.lastInstStart() << "/" << m.stackDepth() << " ";
    }
};

/** An exact sampler that logs where each sample fires and what the
 *  machine reads there, which both backends must show identically. */
struct BoundaryLog : CycleSampler
{
    std::ostringstream log;
    void
    onSample(const Machine &m) override
    {
        log << m.cycles() << "/" << m.stats().steps << "/" << m.pc()
            << "/" << m.boundaryAnchorPc() << "/"
            << m.memory().totalRefs() << " ";
    }
};

/** Moves the code epoch at every sample without changing a byte of
 *  code. */
struct EpochPoker : CycleSampler
{
    Memory *mem = nullptr;
    CodeByteAddr at = 0;
    unsigned pokes = 0;
    bool exact() const override { return false; }
    void
    onSample(const Machine &) override
    {
        mem->pokeByte(at, mem->peekByte(at));
        ++pokes;
    }
};

struct CaseOut
{
    Word value = 0;
    StopReason reason = StopReason::Running;
    std::string statsJson;
    std::string probeLog;
    std::string traceJson;
    std::string sampleLog;
    AccelStats accel;
};

CaseOut
runCase(const CallCase &c, const EngineCombo &combo, Mode mode)
{
    const SystemLayout layout;
    Memory mem(layout.memWords);
    Loader loader{layout, SizeClasses::standard()};
    for (const Module &m : c.modules)
        loader.add(m);
    LinkPlan plan;
    plan.lowering = combo.lowering;
    const LoadedImage image = loader.load(mem, plan);

    MachineConfig config;
    config.impl = combo.impl;
    applyMode(config, mode);
    if (c.configure)
        c.configure(config);
    Machine machine(mem, image, config);

    const PlacedModule &pm = image.module("M");
    LoggingProbes probes;
    obs::Tracer tracer;
    obs::Fanout fanout;
    BoundaryLog boundaries;
    if (c.sampleEvery != 0 && !c.observe)
        machine.setSampler(&boundaries, c.sampleEvery);
    if (c.observe) {
        fanout.add(&probes);
        fanout.add(&tracer);
        if (c.sampleEvery != 0)
            fanout.add(&boundaries, c.sampleEvery);
        fanout.attach(machine);
    }
    EpochPoker poker;
    if (c.pokeMidRun) {
        poker.mem = &mem;
        poker.at = pm.procs.front().prologueAddr;
        machine.setSampler(&poker, 5000);
    }
    if (c.trapHandler)
        machine.setTrapContext(image.procDescriptor("M", "handler"));

    machine.start("M", "main", std::array<Word, 1>{c.arg});
    CaseOut out;
    out.reason = machine.run().reason;
    if (out.reason == StopReason::TopReturn)
        out.value = machine.popValue();
    if (c.pokeMidRun) {
        EXPECT_GT(poker.pokes, 0u);
    }

    std::ostringstream stats;
    obs::StatsExport exp;
    exp.driver = "test_accel";
    exp.impl = implName(config.impl);
    exp.stopReason = stopReasonName(out.reason);
    exp.machine = &machine.stats();
    exp.memory = &mem.stats();
    exp.heap = &machine.heap().stats();
    exp.cache = machine.dataCache();
    obs::writeStatsJson(stats, exp);
    out.statsJson = stats.str();
    out.probeLog = probes.log.str();
    std::ostringstream trace;
    obs::writeChromeTrace(trace, {&tracer});
    out.traceJson = trace.str();
    out.sampleLog = boundaries.log.str();
    out.accel = machine.accelStats();
    return out;
}

/** Every engine: the threaded backend matches the eager loop's
 *  value, stop reason, stats document, probe log and trace. Returns
 *  the threaded runs (one per engine) for case-specific checks. */
std::vector<CaseOut>
expectMatchesEager(const CallCase &c)
{
    std::vector<CaseOut> threaded;
    for (const EngineCombo &combo : combos) {
        const CaseOut off = runCase(c, combo, Mode::Off);
        CaseOut out = runCase(c, combo, Mode::Threaded);
        EXPECT_EQ(out.reason, off.reason) << implName(combo.impl);
        EXPECT_EQ(out.value, off.value) << implName(combo.impl);
        EXPECT_EQ(out.statsJson, off.statsJson) << implName(combo.impl);
        EXPECT_EQ(out.probeLog, off.probeLog) << implName(combo.impl);
        EXPECT_EQ(out.traceJson, off.traceJson) << implName(combo.impl);
        EXPECT_EQ(out.sampleLog, off.sampleLog) << implName(combo.impl);
        threaded.push_back(std::move(out));
    }
    return threaded;
}

/** The value of a "name": N, field in a stats document. */
std::uint64_t
statsField(const std::string &json, const std::string &name)
{
    const std::string key = "\"" + name + "\": ";
    const std::size_t at = json.find(key);
    EXPECT_NE(at, std::string::npos) << name;
    if (at == std::string::npos)
        return 0;
    return std::stoull(json.substr(at + key.size()));
}

TEST(AccelDeterminism, RecursionDeeperThanTheReturnStack)
{
    // fib(16) nests 16 deep against a 4-entry IFU return stack, so
    // I3 and I4 spill on every deep call.
    CallCase c{fibModules(), 16};
    c.configure = [](MachineConfig &config) {
        config.returnStackDepth = 4;
    };
    const std::vector<CaseOut> thr = expectMatchesEager(c);
    for (const CaseOut &out : thr) {
        EXPECT_EQ(out.value, 987);
        EXPECT_GT(out.accel.callSiteHits, 0u);
        EXPECT_GT(out.accel.returnPredHits, 0u);
    }
    EXPECT_GT(statsField(thr[2].statsJson, "spills"), 0u);
    EXPECT_GT(statsField(thr[3].statsJson, "spills"), 0u);
}

TEST(AccelDeterminism, BankOverflowAndUnderflow)
{
    // Two banks on I4: deep calls overflow, returns underflow.
    CallCase c{fibModules(), 14};
    c.configure = [](MachineConfig &config) { config.numBanks = 2; };
    const std::vector<CaseOut> thr = expectMatchesEager(c);
    EXPECT_EQ(thr[3].value, 377);
    EXPECT_GT(statsField(thr[3].statsJson, "overflows"), 0u);
    EXPECT_GT(statsField(thr[3].statsJson, "underflows"), 0u);
}

/** A coroutine ping-pong through raw XFERs: main starts gen through a
 *  procedure descriptor (LPD + XF), then resumes it through the frame
 *  context gen leaves in returnContext. Each of gen's turns calls
 *  bump and hands main a 5; main adds it and calls bump too, so calls
 *  and returns interleave with the coroutine transfers. */
std::vector<Module>
coroutineModules()
{
    ModuleBuilder b("M");
    const unsigned self = b.externRef("M", "gen");
    auto &bump = b.proc("bump", 1, 1);
    bump.loadLocal(0).loadImm(3).op(isa::Op::ADD).ret();

    auto &gen = b.proc("gen", 0, 1);
    auto top = gen.newLabel();
    gen.label(top);
    gen.op(isa::Op::LRC).storeLocal(0); // who resumed us
    gen.loadImm(2).callLocal("bump");   // 5 on the stack
    gen.loadLocal(0).op(isa::Op::XF);   // back to main with it
    gen.jump(top);

    auto &main = b.proc("main", 1, 3); // n, acc, co
    auto loop = main.newLabel();
    auto done = main.newLabel();
    main.loadImm(0).storeLocal(1);
    main.loadDescriptor(self).op(isa::Op::XF);
    main.op(isa::Op::LRC).storeLocal(2);
    main.loadLocal(1).op(isa::Op::ADD).storeLocal(1);
    main.label(loop);
    main.loadLocal(0).jumpZero(done);
    main.loadLocal(2).op(isa::Op::XF);
    main.op(isa::Op::LRC).storeLocal(2);
    main.loadLocal(1).op(isa::Op::ADD).storeLocal(1);
    main.loadLocal(1).callLocal("bump").storeLocal(1);
    main.loadLocal(0).loadImm(1).op(isa::Op::SUB).storeLocal(0);
    main.jump(loop);
    main.label(done);
    main.loadLocal(1).ret();
    return {b.build()};
}

TEST(AccelDeterminism, CoroutineAndDescriptorTransfers)
{
    CallCase c{coroutineModules(), 50};
    const std::vector<CaseOut> thr = expectMatchesEager(c);
    for (const CaseOut &out : thr) {
        EXPECT_EQ(out.reason, StopReason::TopReturn);
        EXPECT_EQ(out.value, 51 * 5 + 50 * 3);
    }
}

TEST(AccelDeterminism, TrapRaisedInsideACallee)
{
    // f BRKs on every call; the handler returns straight back into
    // f, which finishes normally.
    ModuleBuilder b("M");
    auto &handler = b.proc("handler", 1, 1);
    handler.ret();
    auto &f = b.proc("f", 1, 1);
    f.op(isa::Op::BRK).loadLocal(0).loadImm(1).op(isa::Op::ADD).ret();
    auto &main = b.proc("main", 1, 2);
    auto loop = main.newLabel();
    auto done = main.newLabel();
    main.loadImm(0).storeLocal(1);
    main.label(loop);
    main.loadLocal(0).jumpZero(done);
    main.loadLocal(0).callLocal("f");
    main.loadLocal(1).op(isa::Op::ADD).storeLocal(1);
    main.loadLocal(0).loadImm(1).op(isa::Op::SUB).storeLocal(0);
    main.jump(loop);
    main.label(done);
    main.loadLocal(1).ret();

    CallCase c{{b.build()}, 40};
    c.trapHandler = true;
    const std::vector<CaseOut> thr = expectMatchesEager(c);
    for (const CaseOut &out : thr) {
        EXPECT_EQ(out.reason, StopReason::TopReturn);
        EXPECT_EQ(out.value, 40 * 41 / 2 + 40);
    }
}

TEST(AccelDeterminism, StepBudgetExpiresMidRecursion)
{
    CallCase c{fibModules(), 20};
    c.configure = [](MachineConfig &config) { config.maxSteps = 100003; };
    const std::vector<CaseOut> thr = expectMatchesEager(c);
    for (const CaseOut &out : thr)
        EXPECT_EQ(out.reason, StopReason::StepLimit);
}

TEST(AccelDeterminism, CodePokeMidRunFlushesHostReturnStack)
{
    // Every boundary sample moves the code epoch mid-recursion: the
    // threaded loop drops its superblocks and, with them, the caller
    // blocks on its host return stack.
    CallCase c{fibModules(), 16};
    c.pokeMidRun = true;
    const std::vector<CaseOut> thr = expectMatchesEager(c);
    for (const CaseOut &out : thr) {
        EXPECT_EQ(out.value, 987);
        EXPECT_GT(out.accel.codeFlushes, 1u);
    }
}

TEST(AccelDeterminism, ObservedRecursionStaysExact)
{
    // An observed fib runs on superblocks, calling through its site
    // caches and the host return stack; every event's absolute stamps
    // must match the eager run.
    CallCase c{fibModules(), 12};
    c.observe = true;
    const std::vector<CaseOut> thr = expectMatchesEager(c);
    for (const CaseOut &out : thr) {
        EXPECT_EQ(out.value, 144);
        EXPECT_FALSE(out.probeLog.empty());
        EXPECT_GT(out.accel.sblockExecs, 0u);
        EXPECT_GT(out.accel.callSiteHits, 0u);
    }
}

/** An address-taken local in a callee: on I4 every call's LLA drops
 *  the callee's bank (§7.4), eleven dirty words and more, in the short
 *  block after a call — the costliest non-transfer there is. */
std::vector<Module>
addressTakenModules()
{
    return lang::compile(R"(
        module M;
        proc id(x) { return x; }
        proc fill(x) {
            var a, b, c, d, e, f, g, h, i, j, k;
            a = x; b = x; c = x; d = x; e = x; f = x;
            g = x; h = x; i = x; j = x; k = x;
            x = id(x);
            return *(@a + 10);
        }
        proc main(n) {
            var i, s;
            i = 0; s = 0;
            while (i < n) { s = s + fill(i); i = i + 1; }
            return s;
        }
    )");
}

TEST(AccelDeterminism, ExactSamplerRunsThreaded)
{
    // An exact sampler fires at instruction boundaries on the threaded
    // loop too: a block runs only when the deadline cannot fall inside
    // it, plain steps cover the rest, so every fire point, the machine
    // each one reads, its anchor and the stats document match the
    // eager loop — alone, through a Fanout beside observers, with a
    // data cache (the costliest data reference) and across I4 bank
    // drops. Below about a block's worth of cycles (intervals 1 and 7)
    // every block straddles a deadline and the run takes plain steps.
    for (const Tick every : {1, 7, 97, 1000, 9973}) {
        for (int variant = 0; variant < 4; ++variant) {
            SCOPED_TRACE("every " + std::to_string(every) + " variant " +
                         std::to_string(variant));
            CallCase c = variant == 3 ? CallCase{addressTakenModules(), 200}
                                      : CallCase{fibModules(), 12};
            c.sampleEvery = every;
            c.observe = variant == 1;
            if (variant == 2) {
                c.configure = [](MachineConfig &config) {
                    config.useDataCache = true;
                };
            }
            for (const CaseOut &out : expectMatchesEager(c)) {
                EXPECT_EQ(out.reason, StopReason::TopReturn);
                EXPECT_FALSE(out.sampleLog.empty());
                if (every >= 97) {
                    EXPECT_GT(out.accel.sblockExecs, 0u);
                }
            }
        }
    }
}

TEST(AccelDeterminism, StoragePanicAtObservedTerminalChargedOnce)
{
    // An XF through an unbound GFT entry panics inside the block
    // terminal's member code, after the terminal charged the block,
    // so the catch must charge nothing twice; the observer still sees
    // the aborted transfer, stamped as on the eager loop.
    ModuleBuilder b("M");
    auto &main = b.proc("main", 1, 2);
    main.loadLocal(0).loadImm(1).op(isa::Op::ADD).storeLocal(1);
    main.loadImm(packProcDesc(1000, 0))
        .op(isa::Op::XF);
    main.loadLocal(1).ret();
    CallCase c{{b.build()}, 5};
    c.observe = true;
    for (const CaseOut &out : expectMatchesEager(c)) {
        EXPECT_EQ(out.reason, StopReason::Error);
        EXPECT_GT(out.accel.sblockBuilds, 0u);
    }
}

TEST(AccelDeterminism, StoragePanicAfterAFrameMoveEndsTheRun)
{
    // An observed XF to frame context 0x7FFF names a frame past the
    // frame region; on I1-I3 the transfer points lf_ there before its
    // first frame read runs off the end of a small memory. The storage
    // panic unwinds through the transfer's probe, whose record cannot
    // pack lf_: it must name NIL rather than throw a second time, so
    // the run ends in an Error stop with the first panic's message,
    // the same on both backends.
    ModuleBuilder b("M");
    auto &main = b.proc("main", 0, 1);
    main.loadImm(0x7FFF).op(isa::Op::XF);
    main.loadImm(1).ret();
    const Module module = b.build();
    for (const EngineCombo &combo : combos) {
        std::string logs[2];
        for (const Mode mode : {Mode::Off, Mode::Threaded}) {
            SCOPED_TRACE(std::string(implName(combo.impl)) +
                         (mode == Mode::Off ? " off" : " threaded"));
            const SystemLayout layout;
            Memory mem(layout.codeRegionBase + 0x1000);
            Loader loader{layout, SizeClasses::standard()};
            loader.add(module);
            LinkPlan plan;
            plan.lowering = combo.lowering;
            const LoadedImage image = loader.load(mem, plan);
            MachineConfig config;
            config.impl = combo.impl;
            applyMode(config, mode);
            Machine machine(mem, image, config);
            LoggingProbes probes;
            machine.setObserver(&probes);
            machine.start("M", "main");
            const RunResult result = machine.run();
            EXPECT_EQ(result.reason, StopReason::Error);
            EXPECT_NE(result.message.find("memory reference out of range"),
                      std::string::npos)
                << result.message;
            logs[mode == Mode::Threaded] =
                probes.log.str() + result.message;
        }
        EXPECT_EQ(logs[0], logs[1]) << implName(combo.impl);
    }
}

// ---------------------------------------------------------------------
// Slow paths: a straight-line handler whose stack guard fails (or a
// DIV/MOD whose divisor is zero) runs the instruction's general
// definition, trap included, and must charge exactly what the eager
// loop charges for it.
// ---------------------------------------------------------------------

/** One slow-path case: main's body fragment, whether the stack
 *  starts it one short of full (else empty), and whether it traps. */
struct SlowCase
{
    const char *name;
    std::function<void(ProcBuilder &)> body;
    bool nearlyFull = false;
    bool traps = true;
};

/** main(n) runs a short prefix, the fragment, then returns 42; the
 *  trap handler's frame holds a full evaluation stack as its argument
 *  record and returns straight back into main. The NOOP keeps the
 *  fragment's last load from fusing with the epilogue's. */
std::vector<Module>
slowPathModules(const SlowCase &sc)
{
    ModuleBuilder b("M");
    b.globals(1);
    b.proc("handler", 1, 20).ret();
    auto &main = b.proc("main", 1, 4);
    main.loadLocal(0).storeLocal(1);
    if (sc.nearlyFull) {
        main.loadImm(0);
        for (int i = 0; i < 14; ++i)
            main.op(isa::Op::DUP);
    }
    sc.body(main);
    main.op(isa::Op::NOOP).loadImm(42).ret();
    return {b.build()};
}

TEST(AccelDeterminism, SlowPathsMatchEager)
{
    using isa::Op;
    using P = ProcBuilder;
    const SlowCase cases[] = {
        // Underflow: the body starts on an empty stack (EXCH, WR,
        // WRITEF, ADD and LT find one operand of two).
        {"DUP", [](P &p) { p.op(Op::DUP); }},
        {"DROP", [](P &p) { p.op(Op::DROP); }},
        {"EXCH", [](P &p) { p.loadImm(1).op(Op::EXCH); }},
        {"OUT", [](P &p) { p.op(Op::OUT); }},
        {"SL", [](P &p) { p.storeLocal(2); }},
        {"SG", [](P &p) { p.storeGlobal(0); }},
        {"RD", [](P &p) { p.op(Op::RD); }},
        {"WR", [](P &p) { p.loadLocalAddr(2).op(Op::WR); }},
        {"READF", [](P &p) { p.op(Op::READF, 1); }},
        {"WRITEF", [](P &p) { p.loadLocalAddr(2).op(Op::WRITEF, 1); }},
        {"ADD", [](P &p) { p.loadImm(1).op(Op::ADD); }},
        {"LT", [](P &p) { p.loadImm(1).op(Op::LT); }},
        {"LT+JZ",
         [](P &p) {
             const AsmLabel skip = p.newLabel();
             p.loadImm(1).op(Op::LT).jumpZero(skip);
             p.loadImm(7).op(Op::OUT).label(skip);
         }},
        {"JZ",
         [](P &p) {
             const AsmLabel skip = p.newLabel();
             p.jumpZero(skip).loadImm(7).op(Op::OUT).label(skip);
         }},
        {"JNZ",
         [](P &p) {
             const AsmLabel skip = p.newLabel();
             p.jumpNotZero(skip).loadImm(7).op(Op::OUT).label(skip);
         }},
        {"NEG", [](P &p) { p.op(Op::NEG); }},
        // Overflow: one free slot, so a fused load pair fails its
        // guard, runs its first load alone, and the second load
        // overflows in its own handler; the single pushes fill the
        // last slot with a DUP first.
        {"LL+LL", [](P &p) { p.loadLocal(0).loadLocal(1); }, true},
        {"LL+LI", [](P &p) { p.loadLocal(0).loadImm(3); }, true},
        {"LI+LL", [](P &p) { p.loadImm(3).loadLocal(0); }, true},
        {"LI+LI", [](P &p) { p.loadImm(3).loadImm(4); }, true},
        {"LI", [](P &p) { p.op(Op::DUP).loadImm(3); }, true},
        {"LG", [](P &p) { p.op(Op::DUP).loadGlobal(0); }, true},
        {"LRC", [](P &p) { p.op(Op::DUP).op(Op::LRC); }, true},
        {"DUP full", [](P &p) { p.op(Op::DUP).op(Op::DUP); }, true},
        // Division by zero.
        {"DIV", [](P &p) { p.loadImm(7).loadImm(0).op(Op::DIV); }},
        {"MOD", [](P &p) { p.loadImm(7).loadImm(0).op(Op::MOD); }},
        // No fast path: LLA (which drops the current bank on I4) and
        // the RD/WR that use its address.
        {"LLA+WR+RD",
         [](P &p) {
             p.loadImm(9).loadLocalAddr(2).op(Op::WR);
             p.loadLocalAddr(2).op(Op::RD).op(Op::OUT);
         },
         false, false},
    };
    for (const SlowCase &sc : cases) {
        for (const bool handler : {false, true}) {
            SCOPED_TRACE(std::string(sc.name) +
                         (handler ? " with handler" : ""));
            CallCase c{slowPathModules(sc), 5};
            c.trapHandler = handler;
            // The same 16-word evaluation stack on every engine.
            c.configure = [](MachineConfig &config) {
                config.bankWords = 16 + frame::varsOffset;
            };
            for (const CaseOut &out : expectMatchesEager(c)) {
                EXPECT_GT(out.accel.sblockBuilds, 0u);
                EXPECT_EQ(out.reason, sc.traps && !handler
                                          ? StopReason::Error
                                          : StopReason::TopReturn);
            }
        }
    }
}

TEST(AccelDeterminism, TracedMidBlockTrapsMatchEager)
{
    // A trap raised mid-block from h_slow (a stack underflow, a
    // division by zero) under a tracer: onTrap and the trap XFER's
    // record read the block charged through the trapping instruction,
    // with the register-held deltas spilled, exactly as on the eager
    // loop; the early exit then charges nothing twice.
    using isa::Op;
    using P = ProcBuilder;
    const SlowCase cases[] = {
        {"DROP", [](P &p) { p.loadLocal(0).op(Op::DROP).op(Op::DROP); }},
        {"DIV", [](P &p) { p.loadImm(7).loadImm(0).op(Op::DIV); }},
    };
    for (const SlowCase &sc : cases) {
        for (const bool handler : {false, true}) {
            SCOPED_TRACE(std::string(sc.name) +
                         (handler ? " with handler" : ""));
            CallCase c{slowPathModules(sc), 5};
            c.trapHandler = handler;
            c.observe = true;
            for (const CaseOut &out : expectMatchesEager(c)) {
                EXPECT_GT(out.accel.sblockBuilds, 0u);
                EXPECT_NE(out.probeLog.find("t"), std::string::npos);
                EXPECT_EQ(out.reason, handler ? StopReason::TopReturn
                                              : StopReason::Error);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Invalidation
// ---------------------------------------------------------------------

/** An exact sampler that patches bump's immediate (77 -> 5) through
 *  pokeByte at its first sample, mid-run, and notes how many
 *  superblocks had run by then. */
struct ImmediatePatcher : CycleSampler
{
    Memory *mem = nullptr;
    CodeByteAddr at = 0;
    bool patched = false;
    CountT execsBefore = 0;
    void
    onSample(const Machine &m) override
    {
        if (patched)
            return;
        mem->pokeByte(at, 5);
        patched = true;
        execsBefore = m.accelStats().sblockExecs;
    }
};

/** Run the call loop with the patch landing mid-run. Returns the
 *  final value. */
Word
patchMidRun(Mode mode, std::string *stats_json,
            CountT *execs_before = nullptr)
{
    const SystemLayout layout;
    Memory mem(layout.memWords);
    Loader loader{layout, SizeClasses::standard()};
    loader.add(callLoopModule());
    const LoadedImage image = loader.load(mem, LinkPlan{});

    MachineConfig config;
    applyMode(config, mode);
    Machine machine(mem, image, config);

    // The immediate 77 appears exactly once in bump's body bytes.
    const PlacedModule &pm = image.modules().front();
    const PlacedProc &bump = pm.procs.front();
    std::vector<CodeByteAddr> sites;
    for (unsigned i = 0; i < bump.bodyBytes; ++i) {
        const CodeByteAddr a = bump.prologueAddr + bump.prologueBytes + i;
        if (mem.peekByte(a) == 77)
            sites.push_back(a);
    }
    EXPECT_EQ(sites.size(), 1u);
    ImmediatePatcher patcher;
    patcher.mem = &mem;
    patcher.at = sites.front();
    // Far enough into the loop that bump's superblock is warm.
    machine.setSampler(&patcher, 1500);
    machine.start("M", "main", std::array<Word, 1>{Word{100}});

    const RunResult result = machine.run();
    EXPECT_EQ(result.reason, StopReason::TopReturn);
    EXPECT_TRUE(patcher.patched);
    if (execs_before != nullptr)
        *execs_before = patcher.execsBefore;
    const Word value = machine.popValue();
    if (stats_json != nullptr) {
        std::ostringstream os;
        obs::StatsExport exp;
        exp.driver = "test_accel";
        exp.impl = implName(config.impl);
        exp.stopReason = stopReasonName(result.reason);
        exp.machine = &machine.stats();
        exp.memory = &mem.stats();
        exp.heap = &machine.heap().stats();
        obs::writeStatsJson(os, exp);
        *stats_json = os.str();
    }
    return value;
}

TEST(AccelInvalidation, PokeByteMidRunDropsStaleDecode)
{
    std::string off_json;
    const Word off = patchMidRun(Mode::Off, &off_json);
    // The result must show a mix of old and new immediates, proving
    // the patch landed mid-run, not before or after.
    EXPECT_NE(off, static_cast<Word>(100 * 77));
    EXPECT_NE(off, static_cast<Word>(100 * 5));
    // The patch lands while bump's superblock is live, and must take
    // effect at once (a stale block would keep adding 77).
    std::string json;
    CountT execsBefore = 0;
    const Word value = patchMidRun(Mode::Threaded, &json, &execsBefore);
    EXPECT_GT(execsBefore, 0u);
    EXPECT_EQ(value, off);
    EXPECT_EQ(json, off_json);
}

TEST(AccelInvalidation, PokeByteInvalidatesWarmSuperblocks)
{
    // Warm the superblock cache over a complete threaded run, patch
    // bump's immediate through pokeByte, and rerun on the same
    // machine: the code-epoch move must flush every superblock before
    // the next entry, or the second run would keep executing the old
    // immediate out of the stale block.
    const SystemLayout layout;
    Memory mem(layout.memWords);
    Loader loader{layout, SizeClasses::standard()};
    loader.add(callLoopModule());
    const LoadedImage image = loader.load(mem, LinkPlan{});

    MachineConfig config;
    applyMode(config, Mode::Threaded);
    Machine machine(mem, image, config);
    machine.start("M", "main", std::array<Word, 1>{Word{50}});
    ASSERT_EQ(machine.run().reason, StopReason::TopReturn);
    EXPECT_EQ(machine.popValue(), static_cast<Word>(50 * 77));

    const PlacedModule &pm = image.modules().front();
    const PlacedProc &bump = pm.procs.front();
    std::vector<CodeByteAddr> sites;
    for (unsigned i = 0; i < bump.bodyBytes; ++i) {
        const CodeByteAddr a = bump.prologueAddr + bump.prologueBytes + i;
        if (mem.peekByte(a) == 77)
            sites.push_back(a);
    }
    ASSERT_EQ(sites.size(), 1u);
    mem.pokeByte(sites.front(), 5);

    machine.start("M", "main", std::array<Word, 1>{Word{50}});
    ASSERT_EQ(machine.run().reason, StopReason::TopReturn);
    EXPECT_EQ(machine.popValue(), static_cast<Word>(50 * 5));
    EXPECT_GE(machine.accelStats().codeFlushes, 1u);
}

TEST(AccelInvalidation, RelocationFlushesMemoizedEntryPoints)
{
    // Warm every cache over a full run, move the module's code
    // segment, and rerun on the same machine: the memoized entry PCs
    // point into the old segment and must not survive.
    const SystemLayout layout;
    Memory mem(layout.memWords);
    Loader loader{layout, SizeClasses::standard()};
    loader.add(callLoopModule());
    LoadedImage image = loader.load(mem, LinkPlan{});

    MachineConfig config;
    config.impl = Impl::Mesa; // relocation forbids direct linkage
    config.accel.enabled = true;
    Machine machine(mem, image, config);

    machine.start("M", "main", std::array<Word, 1>{Word{50}});
    ASSERT_EQ(machine.run().reason, StopReason::TopReturn);
    EXPECT_EQ(machine.popValue(), static_cast<Word>(50 * 77));

    const unsigned moved =
        relocateModule(mem, image, "M", imageCodeEnd(image));
    ASSERT_GT(moved, 0u);

    machine.start("M", "main", std::array<Word, 1>{Word{50}});
    ASSERT_EQ(machine.run().reason, StopReason::TopReturn);
    EXPECT_EQ(machine.popValue(), static_cast<Word>(50 * 77));
    EXPECT_GE(machine.accelStats().codeFlushes, 1u);
}

// ---------------------------------------------------------------------
// Steady-state behaviour and counters
// ---------------------------------------------------------------------

TEST(AccelCounters, HitRatesExceedNinetyPercentOnCallLoop)
{
    for (const EngineCombo &combo : combos) {
        const SystemLayout layout;
        Memory mem(layout.memWords);
        Loader loader{layout, SizeClasses::standard()};
        loader.add(callLoopModule());
        LinkPlan plan;
        plan.lowering = combo.lowering;
        const LoadedImage image = loader.load(mem, plan);

        MachineConfig config;
        config.impl = combo.impl;
        config.accel.enabled = true;
        Machine machine(mem, image, config);
        machine.start("M", "main", std::array<Word, 1>{Word{500}});
        ASSERT_EQ(machine.run().reason, StopReason::TopReturn)
            << implName(combo.impl);

        const AccelStats a = machine.accelStats();
        EXPECT_GT(a.icacheHitRate(), 0.9) << implName(combo.impl);
        EXPECT_GT(a.linkHitRate(), 0.9) << implName(combo.impl);
    }
}

TEST(AccelCounters, MergeSumsEveryField)
{
    AccelStats a;
    a.icacheHits = 10;
    a.icacheMisses = 2;
    a.extHits = 3;
    a.localHits = 4;
    a.directHits = 5;
    a.fatHits = 6;
    a.extMisses = 1;
    a.codeFlushes = 7;
    a.callSiteHits = 11;
    a.returnPredMisses = 12;
    AccelStats b;
    b.icacheHits = 100;
    b.localMisses = 9;
    b.tableFlushes = 8;
    b.callSiteHits = 100;
    b.callSiteMisses = 13;
    b.returnPredHits = 14;
    b.returnPredMisses = 15;

    a.merge(b);
    EXPECT_EQ(a.icacheHits, 110u);
    EXPECT_EQ(a.icacheMisses, 2u);
    EXPECT_EQ(a.linkHits(), 3u + 4u + 5u + 6u);
    EXPECT_EQ(a.linkMisses(), 1u + 9u);
    EXPECT_EQ(a.codeFlushes, 7u);
    EXPECT_EQ(a.tableFlushes, 8u);
    EXPECT_EQ(a.callSiteHits, 111u);
    EXPECT_EQ(a.callSiteMisses, 13u);
    EXPECT_EQ(a.returnPredHits, 14u);
    EXPECT_EQ(a.returnPredMisses, 27u);
}

TEST(AccelCounters, DisabledMachineReportsZeroes)
{
    const SystemLayout layout;
    Memory mem(layout.memWords);
    Loader loader{layout, SizeClasses::standard()};
    loader.add(callLoopModule());
    const LoadedImage image = loader.load(mem, LinkPlan{});

    MachineConfig config;
    config.accel.enabled = false;
    Machine machine(mem, image, config);
    machine.start("M", "main", std::array<Word, 1>{Word{10}});
    ASSERT_EQ(machine.run().reason, StopReason::TopReturn);
    EXPECT_FALSE(machine.accelEnabled());
    EXPECT_EQ(machine.accelStats().icacheHits, 0u);
    EXPECT_EQ(machine.accelStats().linkHits(), 0u);
}

} // namespace
} // namespace fpc
