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
#include "obs/json.hh"
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
};

/** One complete run on a fresh memory/image; exports the full
 *  simulated-stats document (and optionally an XFER trace, which
 *  forces the eager per-step loop even with acceleration on). */
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
    exp.memory = &mem;
    exp.heap = &machine.heap().stats();
    exp.cache = machine.dataCache();
    obs::writeStatsJson(stats, exp);
    out.statsJson = stats.str();

    if (with_trace) {
        std::ostringstream trace;
        obs::writeChromeTrace(trace, tracer);
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
    // An attached observer routes the accelerated machine through the
    // eager per-step loop; the XFER records' absolute cycle/step
    // stamps must come out identical.
    for (const EngineCombo &combo : combos) {
        const RunOut off = runOnce(combo, Mode::Off, 100, true);
        const RunOut out = runOnce(combo, Mode::Threaded, 100, true);
        EXPECT_EQ(off.traceJson, out.traceJson) << implName(combo.impl);
        EXPECT_EQ(off.statsJson, out.statsJson) << implName(combo.impl);
    }
}

TEST(AccelDeterminism, ObserverForcesEagerUnderThreaded)
{
    // With an observer attached the threaded machine must not run a
    // single superblock: the eager loop is the only path that can
    // deliver per-XFER records with exact absolute stamps.
    const SystemLayout layout;
    Memory mem(layout.memWords);
    Loader loader{layout, SizeClasses::standard()};
    loader.add(callLoopModule());
    const LoadedImage image = loader.load(mem, LinkPlan{});

    MachineConfig config;
    applyMode(config, Mode::Threaded);
    Machine machine(mem, image, config);
    obs::Tracer tracer;
    machine.setObserver(&tracer);
    machine.start("M", "main", std::array<Word, 1>{Word{100}});
    ASSERT_EQ(machine.run().reason, StopReason::TopReturn);
    EXPECT_EQ(machine.accelStats().sblockExecs, 0u);
    EXPECT_EQ(machine.accelStats().sblockBuilds, 0u);
}

/** A sampler that counts its sample points. */
struct CountingSampler : CycleSampler
{
    unsigned samples = 0;
    void onSample(const Machine &) override { ++samples; }
};

TEST(AccelDeterminism, SamplerForcesEagerUnderThreaded)
{
    // Same for a cycle sampler: sample points are defined at step
    // granularity, so the threaded machine falls back to the eager
    // loop and the sample count matches the unaccelerated run.
    unsigned counts[2] = {0, 0};
    std::string json[2];
    const Mode modes[2] = {Mode::Off, Mode::Threaded};
    for (int i = 0; i < 2; ++i) {
        const SystemLayout layout;
        Memory mem(layout.memWords);
        Loader loader{layout, SizeClasses::standard()};
        loader.add(callLoopModule());
        const LoadedImage image = loader.load(mem, LinkPlan{});

        MachineConfig config;
        applyMode(config, modes[i]);
        Machine machine(mem, image, config);
        CountingSampler sampler;
        machine.setSampler(&sampler, 1000);
        machine.start("M", "main", std::array<Word, 1>{Word{100}});
        ASSERT_EQ(machine.run().reason, StopReason::TopReturn);
        counts[i] = sampler.samples;
        if (modes[i] == Mode::Threaded) {
            EXPECT_EQ(machine.accelStats().sblockExecs, 0u);
        }
        std::ostringstream os;
        obs::StatsExport exp;
        exp.driver = "test_accel";
        exp.impl = implName(config.impl);
        exp.stopReason = stopReasonName(StopReason::TopReturn);
        exp.machine = &machine.stats();
        exp.memory = &mem;
        exp.heap = &machine.heap().stats();
        obs::writeStatsJson(os, exp);
        json[i] = os.str();
    }
    EXPECT_GT(counts[0], 0u);
    EXPECT_EQ(counts[0], counts[1]);
    EXPECT_EQ(json[0], json[1]);
}

TEST(AccelDeterminism, ThreadedFastPathActuallyEngages)
{
    // Sanity check on the force-eager tests above: with no observer
    // attached the same workload does run through superblocks, so a
    // zero sblockExecs there means "fell back", not "never built".
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
    /** Attach a logging probe sink armed on M.fib. */
    bool probeFib = false;
    /** Rewrite one code byte with its own value from a boundary
     *  sampler, moving the code epoch mid-run. */
    bool pokeMidRun = false;
    /** Install M.handler as the trap context. */
    bool trapHandler = false;
};

/** Logs every probe event's exact fields (the deltas, not absolute
 *  stamps, which may lag on the fast backends by contract). */
struct LoggingProbes : ProbeSink
{
    std::ostringstream log;
    void
    onProbeXfer(XferKind kind, CountT refs, Tick cycles,
                const Machine &) override
    {
        log << "x" << static_cast<unsigned>(kind) << ":" << refs << ":"
            << cycles << " ";
    }
    void
    onProbeFrameAlloc(unsigned fsi, bool fast, const Machine &) override
    {
        log << "a" << fsi << fast << " ";
    }
    void
    onProbeFrameFree(unsigned fsi, bool fast, const Machine &) override
    {
        log << "f" << fsi << fast << " ";
    }
    void
    onProbeTrap(Word code, const Machine &) override
    {
        log << "t" << code << " ";
    }
};

/** Moves the code epoch at every boundary sample without changing a
 *  byte of code. */
struct EpochPoker : BoundarySampler
{
    Memory *mem = nullptr;
    CodeByteAddr at = 0;
    unsigned pokes = 0;
    void
    onBoundarySample(const Machine &) override
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
    if (c.probeFib) {
        const PlacedProc &fib =
            pm.procs[static_cast<unsigned>(pm.src->procIndex("fib"))];
        const CodeByteAddr end =
            fib.prologueAddr + fib.prologueBytes + fib.bodyBytes;
        machine.setProbeSink(&probes, {{fib.prologueAddr, end}});
    }
    EpochPoker poker;
    if (c.pokeMidRun) {
        poker.mem = &mem;
        poker.at = pm.procs.front().prologueAddr;
        machine.setBoundarySampler(&poker, 5000);
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
    exp.memory = &mem;
    exp.heap = &machine.heap().stats();
    exp.cache = machine.dataCache();
    obs::writeStatsJson(stats, exp);
    out.statsJson = stats.str();
    out.probeLog = probes.log.str();
    out.accel = machine.accelStats();
    return out;
}

/** Every engine: the threaded backend matches the eager loop's
 *  value, stop reason, stats document and probe log. Returns the
 *  threaded runs (one per engine) for case-specific checks. */
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

TEST(AccelDeterminism, ProbeArmedOnCalleeStaysExact)
{
    // Probes on fib keep its blocks on the eager path while main's
    // block still calls through its site cache and pushes the host
    // return stack; every probe event must match the eager run.
    CallCase c{fibModules(), 12};
    c.probeFib = true;
    const std::vector<CaseOut> thr = expectMatchesEager(c);
    for (const CaseOut &out : thr) {
        EXPECT_EQ(out.value, 144);
        EXPECT_FALSE(out.probeLog.empty());
        EXPECT_GT(out.accel.probeEagerSteps, 0u);
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

// ---------------------------------------------------------------------
// Invalidation
// ---------------------------------------------------------------------

/** Drive a machine mid-run, patch bump's immediate (77 -> 5) through
 *  pokeByte, and finish. Returns the final value. */
Word
patchMidRun(Mode mode, std::string *stats_json)
{
    const SystemLayout layout;
    Memory mem(layout.memWords);
    Loader loader{layout, SizeClasses::standard()};
    loader.add(callLoopModule());
    const LoadedImage image = loader.load(mem, LinkPlan{});

    MachineConfig config;
    applyMode(config, mode);
    Machine machine(mem, image, config);
    machine.start("M", "main", std::array<Word, 1>{Word{100}});

    // Far enough that bump's decode is cached, mid-loop.
    for (int i = 0; i < 120; ++i)
        machine.step();

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
    mem.pokeByte(sites.front(), 5);

    const RunResult result = machine.run();
    EXPECT_EQ(result.reason, StopReason::TopReturn);
    const Word value = machine.popValue();
    if (stats_json != nullptr) {
        std::ostringstream os;
        obs::StatsExport exp;
        exp.driver = "test_accel";
        exp.impl = implName(config.impl);
        exp.stopReason = stopReasonName(result.reason);
        exp.machine = &machine.stats();
        exp.memory = &mem;
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
    // The patch must take effect under acceleration (a stale cached
    // decode of the old immediate would keep adding 77).
    std::string json;
    const Word value = patchMidRun(Mode::Threaded, &json);
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
