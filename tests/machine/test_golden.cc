/**
 * @file
 * Pinned simulated numbers: the full stats document of four
 * call-heavy programs on every engine, checked byte for byte against
 * goldens committed under tests/machine/golden. The goldens were
 * written by the eager loop before the threaded backend gained its
 * call-site target cache and host return prediction, so any change to
 * a simulated number on any backend — eager or threaded — shows up
 * here as a diff against a fixed file, not just as a disagreement
 * between two backends that might both have moved. Rewrite a golden
 * only for an intended change to the simulated model, from the eager
 * loop's document (runGolden with threaded = false).
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lang/codegen.hh"
#include "machine/machine.hh"
#include "obs/json.hh"
#include "program/loader.hh"
#include "workload/synthetic.hh"

namespace fpc
{
namespace
{

struct GoldenCase
{
    std::string name;
    std::vector<Module> modules;
    std::string module;
    std::string proc;
    Word arg = 0;
};

std::vector<Module>
generated(unsigned live_calls, std::uint64_t seed)
{
    ProgramConfig pc;
    pc.modules = 3;
    pc.procsPerModule = 6;
    pc.callSitesPerProc = std::max(3u, live_calls);
    pc.liveCallsPerProc = live_calls;
    pc.seed = seed;
    return generateProgram(pc);
}

std::vector<GoldenCase>
goldenCases()
{
    std::vector<GoldenCase> cases;
    cases.push_back({"fib20", lang::compile(R"(
        module Fib;
        proc fib(n) {
            if (n < 2) { return n; }
            return fib(n - 1) + fib(n - 2);
        }
        proc main(n) { return fib(n); }
    )"), "Fib", "main", 20});
    cases.push_back({"primes2000", lang::compile(R"(
        module Primes;
        var count;
        proc isPrime(n) {
            var d;
            if (n < 2) { return 0; }
            d = 2;
            while (d * d <= n) {
                if (n % d == 0) { return 0; }
                d = d + 1;
            }
            return 1;
        }
        proc main(limit) {
            var i;
            i = 2;
            while (i < limit) {
                if (isPrime(i)) { count = count + 1; }
                i = i + 1;
            }
            return count;
        }
    )"), "Primes", "main", 2000});
    // Deep recursion (fan-out 2) and wide fan-out (fan-out 4).
    cases.push_back({"deep", generated(2, 11), generatedEntryModule(),
                     generatedEntryProc(), 10});
    cases.push_back({"wide", generated(4, 12), generatedEntryModule(),
                     generatedEntryProc(), 5});
    return cases;
}

struct GoldenEngine
{
    const char *name;
    Impl impl;
    CallLowering lowering;
    bool shortCalls;
};

const GoldenEngine goldenEngines[] = {
    {"I1", Impl::Simple, CallLowering::Fat, false},
    {"I2", Impl::Mesa, CallLowering::Mesa, false},
    {"I3", Impl::Ifu, CallLowering::Direct, true},
    {"I4", Impl::Banked, CallLowering::Direct, true},
};

struct GoldenRun
{
    Word value = 0;
    std::string statsJson;
};

/** One complete run on a fresh store; the stats document it exports. */
GoldenRun
runGolden(const GoldenCase &c, const GoldenEngine &e, bool threaded)
{
    const SystemLayout layout;
    Memory mem(layout.memWords);
    Loader loader{layout, SizeClasses::standard()};
    for (const Module &m : c.modules)
        loader.add(m);
    LinkPlan plan;
    plan.lowering = e.lowering;
    plan.shortCalls = e.shortCalls;
    const LoadedImage image = loader.load(mem, plan);

    MachineConfig config;
    config.impl = e.impl;
    config.accel.enabled = threaded;
    Machine machine(mem, image, config);
    machine.start(c.module, c.proc, std::array<Word, 1>{c.arg});
    const RunResult result = machine.run();

    GoldenRun out;
    if (result.reason == StopReason::TopReturn)
        out.value = machine.popValue();
    std::ostringstream os;
    obs::StatsExport exp;
    exp.driver = "golden";
    exp.impl = implName(config.impl);
    exp.stopReason = stopReasonName(result.reason);
    exp.machine = &machine.stats();
    exp.memory = &mem.stats();
    exp.heap = &machine.heap().stats();
    exp.cache = machine.dataCache();
    obs::writeStatsJson(os, exp);
    out.statsJson = os.str();
    return out;
}

std::string
goldenPath(const GoldenCase &c, const GoldenEngine &e)
{
    return std::string(FPC_GOLDEN_DIR) + "/" + c.name + "_" + e.name +
           ".json";
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

TEST(ParentGoldens, StatsJsonMatchesOnEveryEngineAndBackend)
{
    for (const GoldenCase &c : goldenCases()) {
        for (const GoldenEngine &e : goldenEngines) {
            const std::string golden = readFile(goldenPath(c, e));
            ASSERT_FALSE(golden.empty()) << goldenPath(c, e);
            const GoldenRun eager = runGolden(c, e, false);
            EXPECT_EQ(eager.statsJson, golden) << c.name << " " << e.name
                                               << " eager";
            if (c.name == "fib20") {
                EXPECT_EQ(eager.value, 6765) << e.name;
            }
            if (c.name == "primes2000") {
                EXPECT_EQ(eager.value, 303) << e.name;
            }
            const GoldenRun fast = runGolden(c, e, true);
            EXPECT_EQ(fast.statsJson, golden) << c.name << " " << e.name
                                              << " threaded";
            EXPECT_EQ(fast.value, eager.value) << c.name << " " << e.name;
        }
    }
}

} // namespace
} // namespace fpc
