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
#include "machine/machine.hh"
#include "obs/json.hh"
#include "program/loader.hh"
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
    exp.memory = &mem;
    exp.heap = &machine.heap().stats();
    exp.cache = machine.dataCache();
    obs::writeStatsJson(stats, exp);
    out.statsJson = stats.str();
    return out;
}

class RandomPrograms : public testing::TestWithParam<std::uint64_t>
{};

TEST_P(RandomPrograms, AllEnginesAgree)
{
    ProgramConfig pc;
    pc.seed = GetParam();
    pc.modules = 2 + pc.seed % 4;
    pc.procsPerModule = 4 + pc.seed % 7;
    pc.callSitesPerProc = 2 + pc.seed % 3;
    pc.liveCallsPerProc = 1 + pc.seed % 2;
    pc.maxDepth = 6 + pc.seed % 4;
    pc.localCallFraction = 0.3 + 0.1 * (pc.seed % 5);
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
