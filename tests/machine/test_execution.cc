/**
 * @file
 * End-to-end execution tests: the same programs must compute the same
 * results under every implementation (I1-I4) and every linkage plan,
 * which is the paper's core compatibility claim ("with either linkage
 * the program behaves identically (except for space and speed)").
 */

#include <gtest/gtest.h>

#include "asm/builder.hh"
#include "machine/machine.hh"
#include "program/loader.hh"

namespace fpc
{
namespace
{

/** A Math module: recursive fib, add, and an iterative summation. */
Module
fibModule()
{
    ModuleBuilder b("Math");
    b.globals(2);

    auto &fib = b.proc("fib", 1, 2);
    auto recurse = fib.newLabel();
    fib.loadLocal(0).loadImm(2).op(isa::Op::LT);
    fib.jumpZero(recurse);
    fib.loadLocal(0).ret();
    fib.label(recurse);
    fib.loadLocal(0).loadImm(1).op(isa::Op::SUB).callLocal("fib");
    fib.storeLocal(1);
    fib.loadLocal(0).loadImm(2).op(isa::Op::SUB).callLocal("fib");
    fib.loadLocal(1).op(isa::Op::ADD).ret();

    auto &add = b.proc("add", 2, 2);
    add.loadLocal(0).loadLocal(1).op(isa::Op::ADD).ret();

    auto &sumTo = b.proc("sumTo", 1, 3);
    // sum 1..n iteratively: var i=1, acc=0
    auto loop = sumTo.newLabel();
    auto done = sumTo.newLabel();
    sumTo.loadImm(1).storeLocal(1);
    sumTo.loadImm(0).storeLocal(2);
    sumTo.label(loop);
    sumTo.loadLocal(1).loadLocal(0).op(isa::Op::GT);
    sumTo.jumpNotZero(done);
    sumTo.loadLocal(2).loadLocal(1).op(isa::Op::ADD).storeLocal(2);
    sumTo.loadLocal(1).loadImm(1).op(isa::Op::ADD).storeLocal(1);
    sumTo.jump(loop);
    sumTo.label(done);
    sumTo.loadLocal(2).ret();

    return b.build();
}

/** A client module that calls into Math externally. */
Module
clientModule()
{
    ModuleBuilder b("Client");
    b.globals(1);
    const unsigned fib = b.externRef("Math", "fib");
    const unsigned add = b.externRef("Math", "add");

    auto &main = b.proc("main", 1, 2);
    main.loadLocal(0).callExtern(fib); // fib(n)
    main.storeLocal(1);
    main.loadLocal(1).loadImm(5).callExtern(add); // fib(n) + 5
    main.storeGlobal(0);
    main.loadGlobal(0).ret();

    return b.build();
}

struct Rig
{
    Memory mem{SystemLayout().memWords};
    LoadedImage image;
    std::unique_ptr<Machine> machine;

    Rig(const LinkPlan &plan, const MachineConfig &config)
    {
        Loader loader{SystemLayout(), SizeClasses::standard()};
        loader.add(fibModule());
        loader.add(clientModule());
        image = loader.load(mem, plan);
        machine = std::make_unique<Machine>(mem, image, config);
    }
};

struct ComboParam
{
    Impl impl;
    CallLowering lowering;
    bool shortCalls;
    /**
     * ctest names each case after its bytes ("12-byte object <...>"),
     * so the tail after `shortCalls` is a zeroed field rather than
     * padding: as padding it held stack garbage and the names changed
     * between test listings.
     */
    std::uint8_t nameTail[3] = {};
};
static_assert(sizeof(ComboParam) == 12, "ComboParam must have no padding");

std::string
comboName(const testing::TestParamInfo<ComboParam> &info)
{
    std::string name = implName(info.param.impl);
    name += "_";
    name += callLoweringName(info.param.lowering);
    if (info.param.shortCalls)
        name += "_short";
    for (auto &c : name)
        if (c == '-')
            c = '_';
    return name;
}

class ExecutionCombo : public testing::TestWithParam<ComboParam>
{
  protected:
    LinkPlan
    plan() const
    {
        LinkPlan p;
        p.lowering = GetParam().lowering;
        p.shortCalls = GetParam().shortCalls;
        return p;
    }

    MachineConfig
    config() const
    {
        MachineConfig c;
        c.impl = GetParam().impl;
        return c;
    }
};

TEST_P(ExecutionCombo, FibComputesCorrectly)
{
    Rig s(plan(), config());
    const Word arg = 12;
    s.machine->start("Math", "fib", std::array<Word, 1>{arg});
    const RunResult result = s.machine->run();
    ASSERT_EQ(result.reason, StopReason::TopReturn) << result.message;
    ASSERT_EQ(s.machine->stackDepth(), 1u);
    EXPECT_EQ(s.machine->popValue(), 144);
}

TEST_P(ExecutionCombo, ExternalCallsWork)
{
    Rig s(plan(), config());
    s.machine->start("Client", "main", std::array<Word, 1>{Word{10}});
    const RunResult result = s.machine->run();
    ASSERT_EQ(result.reason, StopReason::TopReturn) << result.message;
    EXPECT_EQ(s.machine->popValue(), 55 + 5);
    // The global was written.
    EXPECT_EQ(s.mem.peek(s.image.gfAddr("Client") + 1), 60);
}

TEST_P(ExecutionCombo, IterativeLoopWorks)
{
    Rig s(plan(), config());
    s.machine->start("Math", "sumTo", std::array<Word, 1>{Word{100}});
    const RunResult result = s.machine->run();
    ASSERT_EQ(result.reason, StopReason::TopReturn) << result.message;
    EXPECT_EQ(s.machine->popValue(), 5050);
}

TEST_P(ExecutionCombo, DeepRecursionAndFrameReuse)
{
    Rig s(plan(), config());
    s.machine->start("Math", "fib", std::array<Word, 1>{Word{17}});
    const RunResult result = s.machine->run();
    ASSERT_EQ(result.reason, StopReason::TopReturn) << result.message;
    EXPECT_EQ(s.machine->popValue(), 1597);
    // Every allocated frame was freed again.
    const auto &hs = s.machine->heap().stats();
    const auto &ms = s.machine->stats();
    EXPECT_EQ(hs.allocs + ms.fastFrameAllocs,
              hs.frees + ms.fastFrameFrees +
                  s.machine->config().fastFrameStackDepth *
                      (s.machine->config().impl == Impl::Banked ? 1 : 0));
}

INSTANTIATE_TEST_SUITE_P(
    AllImplsAllPlans, ExecutionCombo,
    testing::Values(
        ComboParam{Impl::Simple, CallLowering::Fat, false},
        ComboParam{Impl::Mesa, CallLowering::Mesa, false},
        ComboParam{Impl::Ifu, CallLowering::Direct, false},
        ComboParam{Impl::Ifu, CallLowering::Direct, true},
        ComboParam{Impl::Banked, CallLowering::Direct, false},
        ComboParam{Impl::Banked, CallLowering::Direct, true},
        // Cross combinations: any impl must run any encoding.
        ComboParam{Impl::Mesa, CallLowering::Fat, false},
        ComboParam{Impl::Banked, CallLowering::Mesa, false},
        ComboParam{Impl::Simple, CallLowering::Mesa, false},
        ComboParam{Impl::Ifu, CallLowering::Mesa, false}),
    comboName);

} // namespace
} // namespace fpc
