/**
 * @file
 * Tests for the observability layer (src/obs): XFER tracing, the
 * per-procedure profiler's attribution invariant, and the JSON
 * exporters' determinism and shape.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "lang/codegen.hh"
#include "machine/machine.hh"
#include "obs/fanout.hh"
#include "obs/json.hh"
#include "obs/profile.hh"
#include "obs/trace.hh"
#include "program/loader.hh"
#include "sched/runtime.hh"

using namespace fpc;

namespace
{

const char *kPrimes = R"(
    module Main;
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
)";

const char *kFib = R"(
    module Fib;
    proc fib(n) {
        if (n < 2) { return n; }
        return fib(n - 1) + fib(n - 2);
    }
    proc main(n) { return fib(n); }
)";

struct Rig
{
    std::unique_ptr<Memory> mem;
    LoadedImage image;
    std::unique_ptr<Machine> machine;

    Rig(const std::string &source, MachineConfig config = {})
    {
        const auto modules = lang::compile(source);
        const SystemLayout layout;
        mem = std::make_unique<Memory>(layout.memWords);
        Loader loader{layout, SizeClasses::standard()};
        for (const auto &m : modules)
            loader.add(m);
        image = loader.load(*mem, LinkPlan{});
        machine = std::make_unique<Machine>(*mem, image, config);
    }
};

Word
runMain(Rig &rig, const std::string &module, Word arg)
{
    const std::vector<Word> args = {arg};
    rig.machine->start(module, "main", args);
    const RunResult result = rig.machine->run();
    EXPECT_EQ(result.reason, StopReason::TopReturn) << result.message;
    return rig.machine->popValue();
}

std::string
traceOnce(Word limit)
{
    Rig rig(kPrimes);
    obs::ProcMap map(rig.image);
    obs::Tracer tracer;
    tracer.setProcMap(&map);
    rig.machine->setObserver(&tracer);
    runMain(rig, "Main", limit);
    std::ostringstream os;
    obs::writeChromeTrace(os, {&tracer});
    return os.str();
}

} // namespace

// ---------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------

TEST(Tracer, RecordsEveryTransferInOrder)
{
    Rig rig(kPrimes);
    obs::Tracer tracer;
    rig.machine->setObserver(&tracer);
    runMain(rig, "Main", 20);

    const MachineStats &s = rig.machine->stats();
    EXPECT_EQ(tracer.recorded(), s.totalXfers());
    EXPECT_EQ(tracer.dropped(), 0u);

    const auto events = tracer.events();
    ASSERT_EQ(events.size(), tracer.recorded());
    for (std::size_t i = 1; i < events.size(); ++i)
        EXPECT_LE(events[i - 1].end, events[i].end);
}

TEST(Tracer, NamesCallDestinationsViaProcMap)
{
    Rig rig(kPrimes);
    obs::ProcMap map(rig.image);
    EXPECT_EQ(map.size(), 2u); // isPrime, main
    obs::Tracer tracer;
    tracer.setProcMap(&map);
    rig.machine->setObserver(&tracer);
    runMain(rig, "Main", 20);

    bool saw_is_prime = false;
    for (const obs::TraceEvent &ev : tracer.events()) {
        if (ev.nameIdx == obs::TraceEvent::noName)
            continue;
        if (tracer.name(ev.nameIdx) == "Main.isPrime")
            saw_is_prime = true;
    }
    EXPECT_TRUE(saw_is_prime);
}

TEST(Tracer, RingDropsOldestAtCapacity)
{
    Rig rig(kPrimes);
    obs::Tracer tracer(8);
    rig.machine->setObserver(&tracer);
    runMain(rig, "Main", 30);

    EXPECT_GT(tracer.recorded(), 8u);
    const auto events = tracer.events();
    ASSERT_EQ(events.size(), 8u);
    EXPECT_EQ(tracer.dropped(), tracer.recorded() - 8);
    // The retained window is the most recent, still oldest-first.
    for (std::size_t i = 1; i < events.size(); ++i)
        EXPECT_LE(events[i - 1].end, events[i].end);
    // The last transfer of the program is the top-level return.
    EXPECT_EQ(events.back().kind, XferKind::Return);
}

TEST(Tracer, DroppedSurvivesEpochs)
{
    // The runtime rolls a tracer across jobs with setBase()+clear();
    // dropped() must keep the lifetime total, not reset per epoch
    // (it used to be computed as recorded() - events.size(), which a
    // clear() silently zeroed).
    Rig rig(kPrimes);
    obs::Tracer tracer(4);
    rig.machine->setObserver(&tracer);
    runMain(rig, "Main", 20);

    const CountT first_dropped = tracer.dropped();
    EXPECT_GT(first_dropped, 0u);
    EXPECT_EQ(first_dropped, tracer.recorded() - 4);

    tracer.setBase(tracer.base() + rig.machine->cycles());
    tracer.clear();
    EXPECT_EQ(tracer.recorded(), 0u);
    EXPECT_EQ(tracer.dropped(), first_dropped);

    Rig rig2(kPrimes);
    rig2.machine->setObserver(&tracer);
    runMain(rig2, "Main", 20);
    EXPECT_EQ(tracer.dropped(),
              first_dropped + tracer.recorded() - 4);
}

TEST(Tracer, ExportIsByteIdenticalAcrossRuns)
{
    const std::string a = traceOnce(25);
    const std::string b = traceOnce(25);
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(a.find("Main.isPrime"), std::string::npos);
}

TEST(Tracer, BaseOffsetsSequentialJobs)
{
    obs::Tracer tracer;
    {
        Rig rig(kPrimes);
        rig.machine->setObserver(&tracer);
        runMain(rig, "Main", 10);
        tracer.setBase(tracer.base() + rig.machine->cycles());
    }
    const auto first = tracer.events();
    const Tick boundary = tracer.base();
    ASSERT_FALSE(first.empty());
    EXPECT_LE(first.back().end, boundary);
    {
        Rig rig(kPrimes);
        rig.machine->setObserver(&tracer);
        runMain(rig, "Main", 10);
    }
    const auto all = tracer.events();
    ASSERT_GT(all.size(), first.size());
    // Second-job events start at or after the first job's end.
    EXPECT_GE(all[first.size()].start, boundary);
}

// ---------------------------------------------------------------------
// Profiler
// ---------------------------------------------------------------------

TEST(Profiler, ExclusiveCyclesSumToTotal)
{
    Rig rig(kFib);
    obs::Profiler profiler(rig.image);
    rig.machine->setObserver(&profiler);
    runMain(rig, "Fib", 10);

    const obs::ProfileData data =
        profiler.finish(*rig.machine);
    EXPECT_EQ(data.total, rig.machine->cycles());
    EXPECT_EQ(data.exclusiveTotal(), data.total);

    // Folded stacks cover the same cycles.
    Tick folded = 0;
    for (const auto &[stack, cycles] : data.folded)
        folded += cycles;
    EXPECT_EQ(folded, data.total);
}

TEST(Profiler, ExclusiveSumSurvivesProcSwitchFlush)
{
    // Timesliced self-switching breaks LIFO bracketing on every
    // expired slice; the flush keeps attribution exact anyway.
    MachineConfig config;
    config.timesliceSteps = 50;
    Rig rig(kFib, config);
    rig.machine->setScheduler(
        [](Machine &m) { return m.currentFrameContext(); });
    obs::Profiler profiler(rig.image);
    rig.machine->setObserver(&profiler);
    runMain(rig, "Fib", 12);

    EXPECT_GT(rig.machine->stats().preemptions, 0u);
    const obs::ProfileData data =
        profiler.finish(*rig.machine);
    EXPECT_EQ(data.total, rig.machine->cycles());
    EXPECT_EQ(data.exclusiveTotal(), data.total);

    // Re-rooted activations after a ProcSwitch count as resumes.
    Tick resumes = 0;
    for (const auto &[name, p] : data.procs)
        resumes += p.resumes;
    EXPECT_GT(resumes, 0u);
}

TEST(Profiler, CountsCallsPerProcedure)
{
    Rig rig(kPrimes);
    obs::Profiler profiler(rig.image);
    rig.machine->setObserver(&profiler);
    runMain(rig, "Main", 20);

    const obs::ProfileData data =
        profiler.finish(*rig.machine);
    ASSERT_TRUE(data.procs.count("Main.isPrime"));
    ASSERT_TRUE(data.procs.count("Main.main"));
    // main(20) probes every i in [2, 20).
    EXPECT_EQ(data.procs.at("Main.isPrime").calls, 18u);
    EXPECT_EQ(data.procs.at("Main.main").calls, 1u);
    // isPrime never calls anything: exclusive == inclusive.
    EXPECT_EQ(data.procs.at("Main.isPrime").exclusive,
              data.procs.at("Main.isPrime").inclusive);
    EXPECT_GE(data.procs.at("Main.main").inclusive,
              data.procs.at("Main.main").exclusive);
}

TEST(Profiler, FoldedStacksNestProperly)
{
    Rig rig(kPrimes);
    obs::Profiler profiler(rig.image);
    rig.machine->setObserver(&profiler);
    runMain(rig, "Main", 20);

    const obs::ProfileData data =
        profiler.finish(*rig.machine);
    EXPECT_TRUE(data.folded.count("Main.main"));
    EXPECT_TRUE(data.folded.count("Main.main;Main.isPrime"));

    std::ostringstream os;
    data.writeFolded(os);
    EXPECT_NE(os.str().find("Main.main;Main.isPrime "),
              std::string::npos);
}

TEST(Profiler, MergeAccumulates)
{
    obs::ProfileData total;
    for (int i = 0; i < 2; ++i) {
        Rig rig(kPrimes);
        obs::Profiler profiler(rig.image);
        rig.machine->setObserver(&profiler);
        runMain(rig, "Main", 20);
        total.merge(profiler.finish(*rig.machine));
    }
    EXPECT_EQ(total.procs.at("Main.isPrime").calls, 36u);
    EXPECT_EQ(total.exclusiveTotal(), total.total);
}

// ---------------------------------------------------------------------
// Observation cost and fanout
// ---------------------------------------------------------------------

TEST(Observer, AddsNoSimulatedCycles)
{
    Rig plain(kPrimes);
    runMain(plain, "Main", 25);

    Rig observed(kPrimes);
    obs::Tracer tracer;
    obs::Profiler profiler(observed.image);
    obs::Fanout fanout;
    fanout.add(&tracer);
    fanout.add(&profiler);
    observed.machine->setObserver(&fanout);
    runMain(observed, "Main", 25);

    EXPECT_EQ(plain.machine->cycles(), observed.machine->cycles());
    EXPECT_EQ(plain.machine->stats().steps,
              observed.machine->stats().steps);
}

TEST(Observer, FanoutReachesAllObservers)
{
    Rig rig(kPrimes);
    obs::Tracer a, b;
    obs::Fanout fanout;
    EXPECT_TRUE(fanout.empty());
    fanout.add(&a);
    fanout.add(&b);
    fanout.add(nullptr); // ignored
    EXPECT_FALSE(fanout.empty());
    rig.machine->setObserver(&fanout);
    runMain(rig, "Main", 10);
    EXPECT_GT(a.recorded(), 0u);
    EXPECT_EQ(a.recorded(), b.recorded());
}

// ---------------------------------------------------------------------
// Runtime integration
// ---------------------------------------------------------------------

namespace
{

std::string
runtimeTrace(unsigned workers, unsigned jobs, obs::ProfileData *profile)
{
    sched::RuntimeConfig rc;
    rc.workers = workers;
    rc.trace = true;
    rc.profile = profile != nullptr;
    sched::Runtime runtime(rc);
    auto modules = std::make_shared<const std::vector<Module>>(
        lang::compile(kPrimes));
    for (unsigned j = 0; j < jobs; ++j)
        runtime.submit({modules, "Main", "main", {Word(20)}});
    for (const auto &r : runtime.run())
        EXPECT_TRUE(r.ok) << r.error;
    if (profile != nullptr)
        *profile = runtime.profile();
    std::ostringstream os;
    runtime.writeTrace(os);
    return os.str();
}

} // namespace

TEST(RuntimeObs, TraceHasOneTrackPerWorkerAndIsStable)
{
    const std::string a = runtimeTrace(2, 6, nullptr);
    const std::string b = runtimeTrace(2, 6, nullptr);
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find("\"worker 0\""), std::string::npos);
    EXPECT_NE(a.find("\"worker 1\""), std::string::npos);
    EXPECT_EQ(a.find("\"worker 2\""), std::string::npos);
}

TEST(RuntimeObs, MergedProfileCoversAllJobs)
{
    obs::ProfileData profile;
    runtimeTrace(2, 6, &profile);
    // 6 jobs x main(20) -> 18 isPrime calls each.
    EXPECT_EQ(profile.procs.at("Main.isPrime").calls, 6u * 18u);
    EXPECT_EQ(profile.exclusiveTotal(), profile.total);
}

// ---------------------------------------------------------------------
// JSON export
// ---------------------------------------------------------------------

TEST(Json, EscapesAndNumbers)
{
    EXPECT_EQ(obs::jsonEscape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
    EXPECT_EQ(obs::jsonEscape(std::string_view("\x01", 1)), "\\u0001");
    EXPECT_EQ(obs::jsonNumber(1.5), "1.5");
    EXPECT_EQ(obs::jsonNumber(0.0 / 0.0), "0"); // NaN never leaks
}

TEST(Json, WriterNestsAndSeparates)
{
    std::ostringstream os;
    obs::JsonWriter w(os);
    w.beginObject();
    w.kv("a", 1);
    w.key("b").beginArray().value(1).value("x").endArray();
    w.key("c").nullValue();
    w.endObject();
    EXPECT_EQ(os.str(), "{\n  \"a\": 1,\n  \"b\": [\n    1,\n"
                        "    \"x\"\n  ],\n  \"c\": null\n}");
}

TEST(Json, StatsExportHasStableSchema)
{
    Rig rig(kPrimes);
    runMain(rig, "Main", 20);

    auto render = [&] {
        obs::StatsExport exp;
        exp.driver = "test";
        exp.impl = implName(rig.machine->config().impl);
        exp.stopReason = stopReasonName(StopReason::TopReturn);
        exp.machine = &rig.machine->stats();
        exp.memory = &rig.mem->stats();
        exp.heap = &rig.machine->heap().stats();
        exp.cache = rig.machine->dataCache();
        std::ostringstream os;
        obs::writeStatsJson(os, exp);
        return os.str();
    };

    const std::string doc = render();
    EXPECT_EQ(doc, render()); // deterministic
    for (const char *key :
         {"\"schema\": \"fpc-stats-v1\"", "\"driver\": \"test\"",
          "\"machine\"", "\"cycles\"", "\"xfers\"", "\"memory\"",
          "\"heap\"", "\"groups\""}) {
        EXPECT_NE(doc.find(key), std::string::npos) << key;
    }
}

TEST(Json, StatGroupExportCoversEveryStat)
{
    stats::StatGroup group("g");
    ++group.counter("hits", "cache hits");
    group.distribution("lat").sample(2.0);
    group.histogram("sz", 2.0, 4).sample(1.0);

    std::ostringstream os;
    obs::JsonWriter w(os);
    obs::statGroupJson(w, group);
    const std::string doc = os.str();
    for (const char *key : {"\"hits\"", "\"lat\"", "\"sz\"",
                            "\"counter\"", "\"distribution\"",
                            "\"histogram\"", "\"buckets\""}) {
        EXPECT_NE(doc.find(key), std::string::npos) << key;
    }
}
