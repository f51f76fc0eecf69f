/**
 * @file
 * Property tests of the paper's central compatibility guarantee:
 * "with either linkage the program behaves identically (except for
 * space and speed)" (§6), extended across all four implementations.
 *
 * Random synthetic programs (different seeds and shapes) are run
 * under every (engine, linkage) combination; results, outputs and
 * global side effects must agree bit-for-bit. Each combination also
 * runs on both host backends, whose fpc-stats-v1 documents must be
 * byte-identical. Cost *orderings* the paper predicts are asserted as
 * invariants.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "asm/builder.hh"
#include "lang/codegen.hh"
#include "machine/digest.hh"
#include "machine/machine.hh"
#include "obs/fanout.hh"
#include "obs/json.hh"
#include "obs/postmortem.hh"
#include "obs/probes.hh"
#include "obs/profile.hh"
#include "obs/trace.hh"
#include "obs/telemetry.hh"
#include "program/loader.hh"
#include "replay/record.hh"
#include "replay/recorder.hh"
#include "workload/synthetic.hh"

namespace fpc
{
namespace
{

struct RunOutcome
{
    Word result = 0;
    std::vector<Word> output;
    std::vector<Word> globals; // entry module's globals
    Tick cycles = 0;
    CountT refs = 0;
    double fastRate = 0;
    std::string statsJson; ///< the fpc-stats-v1 document
};

/** One run; accel=false runs the eager reference loop, accel=true
 *  the default configuration (the threaded backend). */
RunOutcome
runWith(const std::vector<Module> &modules, const std::string &mod,
        const std::string &proc, std::vector<Word> args, Impl impl,
        CallLowering lowering, bool short_calls = false,
        bool accel = true)
{
    const SystemLayout layout;
    Memory mem(layout.memWords);
    Loader loader{layout, SizeClasses::standard()};
    for (const auto &m : modules)
        loader.add(m);
    LinkPlan plan;
    plan.lowering = lowering;
    plan.shortCalls = short_calls;
    const LoadedImage image = loader.load(mem, plan);

    MachineConfig config;
    config.impl = impl;
    if (!accel)
        config.accel.enabled = false;
    Machine machine(mem, image, config);
    EXPECT_EQ(machine.threadedActive(), accel);
    machine.start(mod, proc, args);
    const RunResult result = machine.run();
    EXPECT_EQ(result.reason, StopReason::TopReturn) << result.message;

    RunOutcome out;
    out.result = machine.popValue();
    out.output = machine.output();
    const PlacedInstance &inst = image.instance(mod);
    const Module &src = *image.module(mod).src;
    for (unsigned g = 0; g < src.numGlobals; ++g)
        out.globals.push_back(mem.peek(inst.gfAddr + 1 + g));
    out.cycles = machine.cycles();
    out.refs = mem.totalRefs();
    out.fastRate = machine.stats().fastCallReturnRate();

    std::ostringstream stats;
    obs::StatsExport exp;
    exp.driver = "test_equivalence";
    exp.impl = implName(config.impl);
    exp.stopReason = stopReasonName(result.reason);
    exp.machine = &machine.stats();
    exp.memory = &mem.stats();
    exp.heap = &machine.heap().stats();
    exp.cache = machine.dataCache();
    obs::writeStatsJson(stats, exp);
    out.statsJson = stats.str();
    return out;
}

class RandomPrograms : public testing::TestWithParam<std::uint64_t>
{};

/** The generated program's shape for one seed. */
ProgramConfig
shapeFor(std::uint64_t seed)
{
    ProgramConfig pc;
    pc.seed = seed;
    pc.modules = 2 + pc.seed % 4;
    pc.procsPerModule = 4 + pc.seed % 7;
    pc.callSitesPerProc = 2 + pc.seed % 3;
    pc.liveCallsPerProc = 1 + pc.seed % 2;
    pc.maxDepth = 6 + pc.seed % 4;
    pc.localCallFraction = 0.3 + 0.1 * (pc.seed % 5);
    return pc;
}

TEST_P(RandomPrograms, AllEnginesAgree)
{
    const ProgramConfig pc = shapeFor(GetParam());
    const auto modules = generateProgram(pc);
    const std::vector<Word> args = {
        static_cast<Word>(pc.maxDepth)};

    struct Combo
    {
        Impl impl;
        CallLowering lowering;
        bool shortCalls;
    };
    const std::vector<Combo> combos = {
        {Impl::Simple, CallLowering::Fat, false},
        {Impl::Mesa, CallLowering::Mesa, false},
        {Impl::Ifu, CallLowering::Direct, false},
        {Impl::Ifu, CallLowering::Direct, true},
        {Impl::Banked, CallLowering::Direct, true},
        {Impl::Banked, CallLowering::Fat, false},
        {Impl::Simple, CallLowering::Direct, false},
    };

    std::vector<RunOutcome> outcomes;
    for (const Combo &combo : combos) {
        outcomes.push_back(runWith(modules, generatedEntryModule(),
                                   generatedEntryProc(), args,
                                   combo.impl, combo.lowering,
                                   combo.shortCalls));
        // The backend contract: the eager reference loop produces the
        // same stats document, byte for byte.
        const RunOutcome eager = runWith(
            modules, generatedEntryModule(), generatedEntryProc(), args,
            combo.impl, combo.lowering, combo.shortCalls, false);
        EXPECT_EQ(eager.result, outcomes.back().result)
            << "combo " << outcomes.size() - 1;
        EXPECT_EQ(eager.statsJson, outcomes.back().statsJson)
            << "combo " << outcomes.size() - 1;
    }

    for (std::size_t i = 1; i < outcomes.size(); ++i) {
        EXPECT_EQ(outcomes[i].result, outcomes[0].result)
            << "combo " << i;
        EXPECT_EQ(outcomes[i].output, outcomes[0].output);
        EXPECT_EQ(outcomes[i].globals, outcomes[0].globals);
    }

    // Cost orderings the paper predicts, on matched linkages:
    // I4 <= I3 cycles (banks only remove work), and I3 direct is
    // cheaper than I2 mesa in storage references.
    const RunOutcome &i3 = outcomes[2];
    const RunOutcome &i4 = outcomes[4];
    EXPECT_LE(i4.cycles, i3.cycles);
    const RunOutcome &i2 = runWith(modules, generatedEntryModule(),
                                   generatedEntryProc(), args,
                                   Impl::Mesa, CallLowering::Mesa);
    EXPECT_LT(i3.refs, i2.refs);
    // Tiny programs (a handful of transfers) cannot amortize the
    // boot-time call; only assert the jump-speed rate when the run is
    // long enough to be meaningful.
    if (outcomes[0].output.size() + i4.cycles > 20000) {
        EXPECT_GT(i4.fastRate, 0.3);
    }
}

/**
 * The shadow-stack oracle: a test observer checks the machine's one
 * bracketing rule against the program's own transfers, on both
 * loops. Generated programs only call and return, so every return
 * must land in the frame under the entry it pops.
 */
struct BracketOracle : XferObserver
{
    unsigned calls = 0;
    unsigned returns = 0;
    std::vector<std::string> faults;

    void
    onXfer(const XferRecord &record, const Machine &machine) override
    {
        const std::vector<ShadowFrame> &stack = machine.shadowStack();
        if (callLike(record.kind)) {
            ++calls;
            if (stack.empty() || stack.back().frame != record.frame)
                faults.push_back("call did not push its callee");
            return;
        }
        if (record.kind != XferKind::Return) {
            faults.push_back("non-LIFO transfer");
            return;
        }
        ++returns;
        const Addr under =
            stack.size() >= 2 ? stack[stack.size() - 2].frame : nilAddr;
        if (stack.empty() || record.frame != under)
            faults.push_back("return " + std::to_string(returns) +
                             " landed in frame " +
                             std::to_string(record.frame) +
                             ", not the frame under the popped entry");
    }
};

TEST_P(RandomPrograms, ShadowStackIsWellBracketed)
{
    const auto modules = generateProgram(shapeFor(GetParam()));
    const std::vector<Word> args = {
        static_cast<Word>(shapeFor(GetParam()).maxDepth)};
    const struct
    {
        Impl impl;
        CallLowering lowering;
    } combos[] = {{Impl::Simple, CallLowering::Fat},
                  {Impl::Mesa, CallLowering::Mesa},
                  {Impl::Ifu, CallLowering::Direct},
                  {Impl::Banked, CallLowering::Direct}};
    for (const auto &combo : combos) {
        for (const bool accel : {false, true}) {
            SCOPED_TRACE(std::string(implName(combo.impl)) +
                         (accel ? " threaded" : " off"));
            const SystemLayout layout;
            Memory mem(layout.memWords);
            Loader loader{layout, SizeClasses::standard()};
            for (const auto &m : modules)
                loader.add(m);
            LinkPlan plan;
            plan.lowering = combo.lowering;
            const LoadedImage image = loader.load(mem, plan);
            MachineConfig config;
            config.impl = combo.impl;
            config.accel.enabled = accel;
            Machine machine(mem, image, config);

            BracketOracle oracle;
            machine.setObserver(&oracle);
            machine.start(generatedEntryModule(), generatedEntryProc(),
                          args);
            ASSERT_EQ(machine.run().reason, StopReason::TopReturn);
            EXPECT_TRUE(machine.shadowStack().empty());
            EXPECT_GT(oracle.calls, 1u);
            EXPECT_EQ(oracle.returns, oracle.calls);
            EXPECT_TRUE(oracle.faults.empty()) << oracle.faults.front();
            if (accel) {
                EXPECT_GT(machine.accelStats().sblockExecs, 0u);
            }
        }
    }
}

/** What the tracer, the exact profiler, the flight recorder, the
 *  per-XFER state digester and a probe engine on every XFER kind, trap
 *  and frame site produce from one observed run. */
std::string
observedDocuments(const std::vector<Module> &modules, Word arg,
                  Impl impl, CallLowering lowering, bool accel,
                  AccelStats &accel_stats)
{
    const SystemLayout layout;
    Memory mem(layout.memWords);
    Loader loader{layout, SizeClasses::standard()};
    for (const auto &m : modules)
        loader.add(m);
    LinkPlan plan;
    plan.lowering = lowering;
    const LoadedImage image = loader.load(mem, plan);
    MachineConfig config;
    config.impl = impl;
    config.accel.enabled = accel;
    Machine machine(mem, image, config);

    obs::ProbeRegistry registry;
    std::string err;
    EXPECT_TRUE(obs::attachProbeSpecs(
        registry,
        {"xfer:extcall -> capture(5)", "xfer:localcall -> sum(cycles)",
         "xfer:directcall -> quantize(refs)",
         "xfer:fatcall -> capture(5)", "xfer:return -> max(depth)",
         "xfer:coroutine", "xfer:procswitch", "xfer:trap",
         "trap -> capture(2)", "alloc -> capture(5)",
         "free -> quantize(fsi)"},
        err))
        << err;
    obs::Tracer tracer;
    obs::Profiler profiler(image);
    obs::ProbeEngine probes(registry.snapshot(), image, "", 0);
    obs::FlightRecorder recorder(32);
    XferDigester digester(DigestScope::Full);
    obs::Fanout fanout;
    fanout.add(&tracer);
    fanout.add(&profiler);
    fanout.add(&probes);
    fanout.add(&recorder);
    fanout.add(&digester);
    fanout.attach(machine);
    machine.start(generatedEntryModule(), generatedEntryProc(),
                  std::array<Word, 1>{arg});
    EXPECT_EQ(machine.run().reason, StopReason::TopReturn);
    machine.setObserver(nullptr);

    std::ostringstream os;
    obs::writeChromeTrace(os, {&tracer});
    const obs::ProfileData profile = profiler.finish(machine);
    profile.writeFolded(os);
    profile.topTable().print(os);
    probes.finishInto(registry);
    registry.writeJson(os, "test_equivalence");
    for (const XferRecord &r : recorder.records())
        os << r.start << " " << r.end << " " << r.step << " " << r.refs
           << " " << r.pc << "\n";
    for (const XferDigester::Entry &e : digester.entries())
        os << e.step << ":" << e.digest << "\n";
    accel_stats = machine.accelStats();
    return os.str();
}

TEST_P(RandomPrograms, ObservedDocumentsMatchAcrossBackends)
{
    // Observers are exact on the threaded loop: every observer's
    // output comes out byte-identical to the eager loop's, while the
    // threaded run stays on superblocks.
    const ProgramConfig pc = shapeFor(GetParam());
    const auto modules = generateProgram(pc);
    const Word arg = static_cast<Word>(pc.maxDepth);
    const struct
    {
        Impl impl;
        CallLowering lowering;
    } combos[] = {{Impl::Simple, CallLowering::Fat},
                  {Impl::Mesa, CallLowering::Mesa},
                  {Impl::Ifu, CallLowering::Direct},
                  {Impl::Banked, CallLowering::Direct}};
    for (const auto &combo : combos) {
        SCOPED_TRACE(implName(combo.impl));
        AccelStats eagerStats, threadedStats;
        const std::string eager =
            observedDocuments(modules, arg, combo.impl, combo.lowering,
                              false, eagerStats);
        const std::string threaded =
            observedDocuments(modules, arg, combo.impl, combo.lowering,
                              true, threadedStats);
        EXPECT_GT(threadedStats.sblockExecs, 0u);
        EXPECT_EQ(eager, threaded);
    }
}

/** What the exact samplers and the timeslice produce from one
 *  generated run, preempted every 37 steps with the switches recorded
 *  as fpcvm --record-out does: the exact telemetry series, the
 *  recording (digests and scheduler decisions) and the stats
 *  document. */
std::string
sampledDocuments(const std::vector<Module> &modules, Word arg, Impl impl,
                 CallLowering lowering, bool accel, AccelStats &accel_stats)
{
    const SystemLayout layout;
    Memory mem(layout.memWords);
    Loader loader{layout, SizeClasses::standard()};
    for (const auto &m : modules)
        loader.add(m);
    LinkPlan plan;
    plan.lowering = lowering;
    const LoadedImage image = loader.load(mem, plan);
    MachineConfig config;
    config.impl = impl;
    config.timesliceSteps = 37;
    config.accel.enabled = accel;
    Machine machine(mem, image, config);

    obs::Telemetry telemetry;
    replay::Recorder recorder;
    recorder.beginJob(0, 0);
    obs::Fanout fanout;
    fanout.add(&telemetry, 997);
    fanout.add(&recorder, 1000);
    fanout.attach(machine);
    machine.setScheduler(recorder.wrapPolicy(
        [](Machine &m) { return m.currentFrameContext(); }));
    machine.start(generatedEntryModule(), generatedEntryProc(),
                  std::array<Word, 1>{arg});
    const RunResult result = machine.run();
    EXPECT_EQ(result.reason, StopReason::TopReturn);
    EXPECT_GT(machine.stats().preemptions, 0u);
    recorder.finish(machine, result);

    std::ostringstream os;
    obs::MetricsExport meta;
    meta.driver = "test_equivalence";
    meta.impl = implName(impl);
    meta.interval = 997;
    obs::writeMetricsJson(os, meta, {&telemetry});
    replay::RecordLog log;
    log.impl = impl;
    log.lowering = lowering;
    log.timeslice = config.timesliceSteps;
    log.jobs.push_back(recorder.takeJob());
    replay::writeRecord(os, log);
    obs::StatsExport exp;
    exp.driver = "test_equivalence";
    exp.impl = implName(impl);
    exp.stopReason = stopReasonName(result.reason);
    exp.machine = &machine.stats();
    exp.memory = &mem.stats();
    exp.heap = &machine.heap().stats();
    obs::writeStatsJson(os, exp);
    accel_stats = machine.accelStats();
    return os.str();
}

TEST_P(RandomPrograms, SampledAndSlicedDocumentsMatchAcrossBackends)
{
    // Exact samplers and preemption run on the threaded loop, taking
    // plain steps only around their boundary events: the series, the
    // recording and the stats come out byte-identical to the eager
    // loop's, while the threaded run stays on superblocks.
    const ProgramConfig pc = shapeFor(GetParam());
    const auto modules = generateProgram(pc);
    const Word arg = static_cast<Word>(pc.maxDepth);
    const struct
    {
        Impl impl;
        CallLowering lowering;
    } combos[] = {{Impl::Simple, CallLowering::Fat},
                  {Impl::Mesa, CallLowering::Mesa},
                  {Impl::Ifu, CallLowering::Direct},
                  {Impl::Banked, CallLowering::Direct}};
    for (const auto &combo : combos) {
        SCOPED_TRACE(implName(combo.impl));
        AccelStats eagerStats, threadedStats;
        const std::string eager =
            sampledDocuments(modules, arg, combo.impl, combo.lowering,
                             false, eagerStats);
        const std::string threaded =
            sampledDocuments(modules, arg, combo.impl, combo.lowering,
                             true, threadedStats);
        EXPECT_GT(threadedStats.sblockExecs, 0u);
        EXPECT_EQ(eager, threaded);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPrograms,
                         testing::Values(1, 2, 3, 5, 8, 13, 21, 34,
                                         55, 89));

TEST(MultiInstance, InstancesKeepSeparateGlobals)
{
    // Two instances of a counting module: calls routed to instance 1
    // must not disturb instance 0 (the F2 multiple-instance story).
    const auto counted = lang::compile(R"(
        module Count;
        var n;
        proc bump() { n = n + 1; return n; }
    )");

    ModuleBuilder b("Main");
    const unsigned bump0 = b.externRef("Count", "bump", 0);
    const unsigned bump1 = b.externRef("Count", "bump", 1);
    auto &main = b.proc("main", 0, 1);
    main.callExtern(bump0).op(isa::Op::DROP);
    main.callExtern(bump1).op(isa::Op::DROP);
    main.callExtern(bump1).op(isa::Op::DROP);
    main.callExtern(bump1).ret();

    const SystemLayout layout;
    Memory mem(layout.memWords);
    Loader loader{layout, SizeClasses::standard()};
    loader.add(counted.front());
    loader.add(b.build());
    loader.addInstance("Count");
    const LoadedImage image = loader.load(mem, LinkPlan{});

    Machine machine(mem, image, MachineConfig{});
    machine.start("Main", "main");
    ASSERT_EQ(machine.run().reason, StopReason::TopReturn);
    EXPECT_EQ(machine.popValue(), 3); // instance 1 bumped thrice
    EXPECT_EQ(mem.peek(image.gfAddr("Count", 0) + 1), 1);
    EXPECT_EQ(mem.peek(image.gfAddr("Count", 1) + 1), 3);
}

TEST(ProcedureVariables, LpdPlusXfCallsThroughADescriptor)
{
    // F3: a context value is first-class; LPD pushes a descriptor
    // from the link vector and XF transfers to it — a call through a
    // procedure variable.
    ModuleBuilder lib("Lib");
    auto &sq = lib.proc("square", 1, 1);
    sq.loadLocal(0).loadLocal(0).op(isa::Op::MUL).ret();

    ModuleBuilder b("Main");
    const unsigned ext = b.externRef("Lib", "square");
    auto &main = b.proc("main", 1, 1);
    main.loadLocal(0);      // argument
    main.loadDescriptor(ext); // the procedure descriptor
    main.op(isa::Op::XF);     // XFER[descriptor]
    main.ret();

    const SystemLayout layout;
    Memory mem(layout.memWords);
    Loader loader{layout, SizeClasses::standard()};
    loader.add(lib.build());
    loader.add(b.build());
    const LoadedImage image = loader.load(mem, LinkPlan{});

    for (const Impl impl :
         {Impl::Simple, Impl::Mesa, Impl::Ifu, Impl::Banked}) {
        MachineConfig config;
        config.impl = impl;
        Machine machine(mem, image, config);
        machine.start("Main", "main", std::array<Word, 1>{Word{9}});
        ASSERT_EQ(machine.run().reason, StopReason::TopReturn)
            << implName(impl);
        EXPECT_EQ(machine.popValue(), 81) << implName(impl);
    }
}

TEST(DeepRecursion, HundredsOfLiveFramesWork)
{
    const auto modules = lang::compile(R"(
        module Deep;
        proc down(n) {
            if (n == 0) { return 0; }
            return down(n - 1) + 1;
        }
        proc main(n) { return down(n); }
    )");
    for (const Impl impl : {Impl::Mesa, Impl::Banked}) {
        const SystemLayout layout;
        Memory mem(layout.memWords);
        Loader loader{layout, SizeClasses::standard()};
        for (const auto &m : modules)
            loader.add(m);
        const LoadedImage image = loader.load(mem, LinkPlan{});
        MachineConfig config;
        config.impl = impl;
        Machine machine(mem, image, config);
        machine.start("Deep", "main", std::array<Word, 1>{Word{500}});
        ASSERT_EQ(machine.run().reason, StopReason::TopReturn)
            << implName(impl);
        EXPECT_EQ(machine.popValue(), 500);
    }
}

} // namespace
} // namespace fpc
