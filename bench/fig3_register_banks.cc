/**
 * @file
 * Experiment F3 — Figure 3 and §7.1: register banks.
 *
 * Part A replays the figure's call/return sequence on the I4 machine
 * with four banks and prints the bank assignment after every
 * transfer, reproducing the figure's table: the stack bank is renamed
 * to the callee's frame bank on each call, a fresh bank becomes the
 * stack, and banks are visibly *not* used in LIFO order.
 *
 * Part B sweeps the bank count against traces of varying LIFO-ness
 * and reports the overflow+underflow rate per XFER. Paper: "with 4
 * banks it happens on less than 5% of XFERs; and [4] reports that
 * with 4-8 banks the rate is less than 1%."
 */

#include <benchmark/benchmark.h>

#include "bench_util.hh"
#include "common/strfmt.hh"

using namespace fpc;
using namespace fpc::bench;

namespace
{

/** Part A: the figure's sequence, bank state after each step. */
void
replayFigure3(JsonReport &json)
{
    MachineConfig config;
    config.impl = Impl::Banked;
    config.numBanks = 4;
    TraceRunner runner(config, FrameSizeDist::fixed(12), 1);
    Machine &m = runner.machine();

    std::map<Addr, std::string> names;
    names[m.currentFrame()] = "FX";

    std::vector<std::string> headers = {"event"};
    for (unsigned b = 0; b < m.banks().numBanks(); ++b)
        headers.push_back(strfmt("bank{}", b + 1));
    headers.push_back("return stack");
    stats::Table table(headers);

    auto snapshot = [&](const std::string &event) {
        std::vector<std::string> row = {event};
        for (unsigned b = 0; b < m.banks().numBanks(); ++b) {
            std::string cell;
            if (m.banks().isFree(b)) {
                cell = "-";
            } else if (static_cast<int>(b) == m.currentStackBank()) {
                cell = "S";
            } else {
                const Addr owner = m.banks().owner(b);
                auto it = names.find(owner);
                cell = it != names.end() ? "L=" + it->second : "?";
                if (static_cast<int>(b) == m.currentLbank())
                    cell += " *";
            }
            row.push_back(cell);
        }
        std::string rs;
        for (const Addr lf : m.returnStackFrames())
            rs += (rs.empty() ? "" : " ") + names[lf];
        row.push_back(rs.empty() ? "-" : rs);
        table.addRow(row);
    };

    auto call = [&](const std::string &who) {
        runner.call(0);
        names[m.currentFrame()] = "F" + who;
        snapshot("call " + who);
    };
    auto ret = [&]() {
        const std::string who = names[m.currentFrame()];
        runner.ret();
        snapshot("return (" + who + " dies)");
    };

    snapshot("begin in X");
    call("A");
    ret();
    call("B");
    call("C");
    ret();
    call("D");
    ret();
    ret();

    std::cout << "Figure 3 — bank assignment through the call/return "
                 "sequence (S = the evaluation-stack bank, L=Fx = "
                 "shadowing frame x, * = current frame's bank):\n\n";
    table.print(std::cout);
    json.table("figure3_replay", table);
    std::cout << "\nNote how a call renames S into the callee's L "
                 "bank (free argument passing, §7.2) and how the "
                 "banks are not used in last-in first-out order.\n";
}

/** Part B: bank-count sweep vs trace LIFO-ness. */
void
sweepBanks(JsonReport &json)
{
    std::cout << "\nBank overflow+underflow rate per XFER "
                 "(paper: <5% at 4 banks; [4]: <1% at 4-8):\n\n";

    stats::Table table({"banks", "mesa-like", "drifting",
                        "hostile runs"});
    for (const unsigned banks : {2u, 3u, 4u, 6u, 8u, 12u, 16u}) {
        std::vector<std::string> row = {std::to_string(banks)};
        struct Shape
        {
            double persistence;
            double pull;
        };
        for (const Shape shape :
             {Shape{0.25, 0.2}, Shape{0.5, 0.02}, Shape{0.8, 0.0}}) {
            MachineConfig config;
            config.impl = Impl::Banked;
            config.numBanks = banks;
            TraceRunner runner(config, FrameSizeDist::fixed(12), 1);

            TraceConfig tc;
            tc.length = 200'000;
            tc.persistence = shape.persistence;
            tc.depthPull = shape.pull;
            tc.seed = 17;
            runner.run(generateTrace(tc));

            row.push_back(
                stats::percent(runner.machine().stats().bankEventRate()));
        }
        table.addRow(row);
    }
    table.print(std::cout);
    json.table("bank_sweep", table);
}

void
BM_TraceBanked(benchmark::State &state)
{
    MachineConfig config;
    config.impl = Impl::Banked;
    config.numBanks = state.range(0);
    TraceRunner runner(config);
    TraceConfig tc;
    tc.length = 10'000;
    const auto trace = generateTrace(tc);
    for (auto _ : state) {
        runner.run(trace);
        // Unwind to the chain base so frames cannot accumulate
        // across iterations.
        while (runner.depth() > 0)
            runner.ret();
    }
    state.SetItemsProcessed(state.iterations() * trace.size());
}
BENCHMARK(BM_TraceBanked)->Arg(2)->Arg(4)->Arg(8);

} // namespace

int
main(int argc, char **argv)
{
    JsonReport json(argc, argv, "fig3_register_banks");
    replayFigure3(json);
    sweepBanks(json);
    json.write();
    std::cout << "\n";
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
