/**
 * @file
 * Instruction-level semantics of the interpreter: arithmetic and
 * comparison ops (parameterized), stack manipulation, indirection,
 * field access, and error traps.
 */

#include <gtest/gtest.h>

#include "asm/builder.hh"
#include "common/logging.hh"
#include "machine/machine.hh"
#include "program/loader.hh"

namespace fpc
{
namespace
{

/** Run a single tiny procedure body and return the machine. */
struct MiniRig
{
    SystemLayout layout;
    Memory mem{SystemLayout().memWords};
    LoadedImage image;
    std::unique_ptr<Machine> machine;

    MiniRig(const std::function<void(ProcBuilder &)> &body,
            std::vector<Word> args = {}, unsigned num_vars = 4,
            Impl impl = Impl::Mesa)
    {
        ModuleBuilder b("M");
        b.globals(4, {100, 200});
        auto &main = b.proc("main", args.size(), num_vars);
        body(main);
        Loader loader{layout, SizeClasses::standard()};
        loader.add(b.build());
        image = loader.load(mem, LinkPlan{});
        MachineConfig config;
        config.impl = impl;
        machine = std::make_unique<Machine>(mem, image, config);
        machine->start("M", "main", args);
    }

    RunResult
    run()
    {
        return machine->run();
    }
};

// ---------------------------------------------------------------------
// Arithmetic & comparison, parameterized
// ---------------------------------------------------------------------

struct BinCase
{
    isa::Op op;
    /**
     * ctest names each case after its bytes ("8-byte object <...>"), so
     * the byte after `op` is a field rather than padding: as padding it
     * held stack garbage and the names changed on every test listing.
     * The values are the names the cases are tracked under.
     */
    std::uint8_t nameByte;
    Word a, b, expect;
};
static_assert(sizeof(BinCase) == 8, "BinCase must have no padding");

class BinaryOps : public testing::TestWithParam<BinCase>
{};

TEST_P(BinaryOps, Computes)
{
    const BinCase c = GetParam();
    MiniRig rig([&](ProcBuilder &pb) {
        pb.loadLocal(0).loadLocal(1).op(c.op).ret();
    },
                {c.a, c.b});
    ASSERT_EQ(rig.run().reason, StopReason::TopReturn);
    EXPECT_EQ(rig.machine->popValue(), c.expect);
}

constexpr Word
w(int v)
{
    return static_cast<Word>(v);
}

INSTANTIATE_TEST_SUITE_P(
    Arithmetic, BinaryOps,
    testing::Values(
        BinCase{isa::Op::ADD, 0xFF, 3, 4, 7},
        BinCase{isa::Op::ADD, 0xFF, 0xFFFF, 1, 0},     // wraps
        BinCase{isa::Op::SUB, 0x00, 3, 5, w(-2)},
        BinCase{isa::Op::MUL, 0x00, 300, 300, w(90000 & 0xFFFF)},
        BinCase{isa::Op::MUL, 0x00, w(-3), 5, w(-15)},
        BinCase{isa::Op::DIV, 0x00, 17, 5, 3},
        BinCase{isa::Op::DIV, 0x00, w(-17), 5, w(-3)}, // truncates
        BinCase{isa::Op::MOD, 0x00, 17, 5, 2},
        BinCase{isa::Op::MOD, 0xDA, w(-17), 5, w(-2)},
        BinCase{isa::Op::AND, 0xDA, 0xF0F0, 0xFF00, 0xF000},
        BinCase{isa::Op::IOR, 0x00, 0xF0F0, 0x0F00, 0xFFF0},
        BinCase{isa::Op::XOR, 0x00, 0xFFFF, 0x0F0F, 0xF0F0},
        BinCase{isa::Op::SHL, 0x00, 1, 4, 16},
        BinCase{isa::Op::SHL, 0x00, 1, 16, 0},  // full shift-out
        BinCase{isa::Op::SHR, 0x00, 0x8000, 15, 1},
        BinCase{isa::Op::SHR, 0x00, 0x8000, 16, 0}));

INSTANTIATE_TEST_SUITE_P(
    Comparisons, BinaryOps,
    testing::Values(
        BinCase{isa::Op::LT, 0x97, 3, 4, 1},
        BinCase{isa::Op::LT, 0x76, 4, 3, 0},
        BinCase{isa::Op::LT, 0x00, w(-1), 0, 1}, // signed compare
        BinCase{isa::Op::LE, 0x76, 4, 4, 1},
        BinCase{isa::Op::LE, 0x00, 5, 4, 0},
        BinCase{isa::Op::EQ, 0xFF, 7, 7, 1},
        BinCase{isa::Op::EQ, 0x00, 7, 8, 0},
        BinCase{isa::Op::NE, 0xCC, 7, 8, 1},
        BinCase{isa::Op::NE, 0x00, 7, 7, 0},
        BinCase{isa::Op::GE, 0xCE, 4, 4, 1},
        BinCase{isa::Op::GE, 0x66, 3, 4, 0},
        BinCase{isa::Op::GT, 0xDF, 5, 4, 1},
        BinCase{isa::Op::GT, 0x68, 0, w(-1), 1}));

TEST(UnaryOps, NegNotBang)
{
    MiniRig neg([](ProcBuilder &pb) { pb.loadLocal(0).op(isa::Op::NEG).ret(); },
                {5});
    neg.run();
    EXPECT_EQ(neg.machine->popValue(), w(-5));

    MiniRig inv([](ProcBuilder &pb) { pb.loadLocal(0).op(isa::Op::NOT).ret(); },
                {0x00FF});
    inv.run();
    EXPECT_EQ(inv.machine->popValue(), 0xFF00);
}

// ---------------------------------------------------------------------
// Stack manipulation
// ---------------------------------------------------------------------

TEST(StackOps, DupDropExch)
{
    MiniRig rig([](ProcBuilder &pb) {
        pb.loadImm(1).loadImm(2);    // [1 2]
        pb.op(isa::Op::EXCH);        // [2 1]
        pb.op(isa::Op::DUP);         // [2 1 1]
        pb.op(isa::Op::ADD);         // [2 2]
        pb.op(isa::Op::DROP);        // [2]
        pb.ret();
    });
    rig.run();
    EXPECT_EQ(rig.machine->popValue(), 2);
}

TEST(StackOps, OverflowTraps)
{
    setQuiet(true);
    MiniRig rig([](ProcBuilder &pb) {
        for (int i = 0; i < 20; ++i)
            pb.loadImm(1);
        pb.ret();
    });
    const RunResult result = rig.run();
    EXPECT_EQ(result.reason, StopReason::Error);
    EXPECT_NE(result.message.find("overflow"), std::string::npos);
    setQuiet(false);
}

TEST(StackOps, UnderflowTraps)
{
    setQuiet(true);
    MiniRig rig([](ProcBuilder &pb) { pb.op(isa::Op::DROP).ret(); });
    EXPECT_EQ(rig.run().reason, StopReason::Error);
    setQuiet(false);
}

// ---------------------------------------------------------------------
// Indirection, fields, pointers
// ---------------------------------------------------------------------

TEST(Indirection, ReadWriteThroughPointers)
{
    MiniRig rig([](ProcBuilder &pb) {
        // locals: 0 = scratch; store 77 via its address, read back.
        pb.loadImm(77);
        pb.loadLocalAddr(0);
        pb.op(isa::Op::WR);
        pb.loadLocalAddr(0);
        pb.op(isa::Op::RD);
        pb.ret();
    });
    rig.run();
    EXPECT_EQ(rig.machine->popValue(), 77);
}

TEST(Indirection, FieldAccess)
{
    MiniRig rig([](ProcBuilder &pb) {
        // Write 9 to global[1] via WRITEF on the gf address, then
        // read it back with READF. Globals start at gf+1.
        pb.loadImm(9);
        pb.loadImm(0); // replaced below: address comes from arg 0
        pb.op(isa::Op::DROP);
        pb.loadLocal(0);
        pb.op(isa::Op::WRITEF, 2); // mem[gf + 2] = 9 (global[1])
        pb.loadLocal(0);
        pb.op(isa::Op::READF, 2);
        pb.ret();
    },
                {0} /* patched below */);
    // Restart with the actual gf address as the argument.
    rig.machine->reset();
    const Word gf = static_cast<Word>(rig.image.gfAddr("M"));
    rig.machine->start("M", "main", std::array<Word, 1>{gf});
    rig.run();
    EXPECT_EQ(rig.machine->popValue(), 9);
    EXPECT_EQ(rig.mem.peek(rig.image.gfAddr("M") + 2), 9);
}

TEST(Indirection, GlobalsReadWrite)
{
    MiniRig rig([](ProcBuilder &pb) {
        pb.loadGlobal(0).loadGlobal(1).op(isa::Op::ADD);
        pb.storeGlobal(2);
        pb.loadGlobal(2).ret();
    });
    rig.run();
    EXPECT_EQ(rig.machine->popValue(), 300);
    EXPECT_EQ(rig.mem.peek(rig.image.gfAddr("M") + 3), 300);
}

// ---------------------------------------------------------------------
// Error traps
// ---------------------------------------------------------------------

TEST(Traps, DivideByZeroStopsWithoutHandler)
{
    setQuiet(true);
    MiniRig rig([](ProcBuilder &pb) {
        pb.loadImm(1).loadImm(0).op(isa::Op::DIV).ret();
    });
    const RunResult result = rig.run();
    EXPECT_EQ(result.reason, StopReason::Error);
    EXPECT_NE(result.message.find("zero"), std::string::npos);
    setQuiet(false);
}

TEST(Traps, IllegalOpcodeStops)
{
    setQuiet(true);
    MiniRig rig([](ProcBuilder &pb) {
        pb.op(isa::Op::NOOP).ret();
    });
    // Patch a hole opcode into the body.
    const PlacedProc &pp = rig.image.module("M").procs[0];
    rig.mem.pokeByte(pp.prologueAddr + pp.prologueBytes, 0xFF);
    const RunResult result = rig.run();
    EXPECT_EQ(result.reason, StopReason::Error);
    EXPECT_NE(result.message.find("illegal"), std::string::npos);
    setQuiet(false);
}

TEST(Traps, BrkStopsOrRoutesToHandler)
{
    setQuiet(true);
    MiniRig rig([](ProcBuilder &pb) { pb.op(isa::Op::BRK).ret(); });
    EXPECT_EQ(rig.run().reason, StopReason::Error);
    setQuiet(false);
}

TEST(Traps, YieldWithoutSchedulerStops)
{
    setQuiet(true);
    MiniRig rig([](ProcBuilder &pb) { pb.op(isa::Op::YIELD).ret(); });
    const RunResult result = rig.run();
    EXPECT_EQ(result.reason, StopReason::Error);
    EXPECT_NE(result.message.find("scheduler"), std::string::npos);
    setQuiet(false);
}

TEST(Traps, StepLimitStops)
{
    MiniRig rig([](ProcBuilder &pb) {
        auto loop = pb.newLabel();
        pb.label(loop).jump(loop); // infinite
    });
    rig.machine->reset();
    // Rebuild with a small budget.
    MachineConfig config;
    config.maxSteps = 1000;
    Machine machine(rig.mem, rig.image, config);
    machine.start("M", "main", {});
    EXPECT_EQ(machine.run().reason, StopReason::StepLimit);
    EXPECT_EQ(machine.stats().steps, 1000u);
}

// ---------------------------------------------------------------------
// OUT and output channel
// ---------------------------------------------------------------------

TEST(Output, CollectsWordsInOrder)
{
    MiniRig rig([](ProcBuilder &pb) {
        for (Word v : {Word{3}, Word{1}, Word{4}})
            pb.loadImm(v).op(isa::Op::OUT);
        pb.loadImm(0).ret();
    });
    rig.run();
    EXPECT_EQ(rig.machine->output(), (std::vector<Word>{3, 1, 4}));
}

} // namespace
} // namespace fpc
