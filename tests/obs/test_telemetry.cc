/**
 * @file
 * Tests for the time-series telemetry sampler, its exporters, and the
 * flight-recorder/postmortem path: the zero-simulated-cost contract,
 * byte-identical exports across engines/runs/acceleration, ring
 * semantics, and the symbolized bundle a trap leaves behind.
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "lang/codegen.hh"
#include "machine/machine.hh"
#include "obs/postmortem.hh"
#include "obs/telemetry.hh"
#include "program/loader.hh"
#include "sched/runtime.hh"
#include "sched/scheduler.hh"

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

const char *kTrap = R"(
    module Main;
    proc div(a, b) { return a / b; }
    proc inner(n) { return div(100, n); }
    proc main(n) { return inner(n); }
)";

struct Rig
{
    std::unique_ptr<Memory> mem;
    LoadedImage image;
    std::unique_ptr<Machine> machine;

    explicit Rig(const std::string &source, MachineConfig config = {},
                 LinkPlan plan = {})
    {
        const auto modules = lang::compile(source);
        const SystemLayout layout;
        mem = std::make_unique<Memory>(layout.memWords);
        Loader loader{layout, SizeClasses::standard()};
        for (const auto &m : modules)
            loader.add(m);
        image = loader.load(*mem, plan);
        machine = std::make_unique<Machine>(*mem, image, config);
    }
};

RunResult
runMain(Rig &rig, Word arg)
{
    const std::vector<Word> args = {arg};
    rig.machine->start("Main", "main", args);
    return rig.machine->run();
}

/** Driver-shaped metrics run: attach, bracket, run, export. */
std::string
metricsOnce(MachineConfig config, LinkPlan plan, Word limit,
            Tick interval, AccelStats *accel_stats = nullptr)
{
    Rig rig(kPrimes, config, plan);
    obs::Telemetry telemetry;
    rig.machine->setSampler(&telemetry, interval);
    const std::array<Word, 1> args = {limit};
    rig.machine->start("Main", "main", args);
    telemetry.sample(*rig.machine);
    rig.machine->run();
    telemetry.sample(*rig.machine);
    if (accel_stats != nullptr)
        *accel_stats = rig.machine->accelStats();

    obs::MetricsExport meta;
    meta.driver = "test";
    meta.impl = implName(config.impl);
    meta.interval = interval;
    std::ostringstream os;
    obs::writeMetricsJson(os, meta, {&telemetry});
    return os.str();
}

struct EngineCombo
{
    Impl impl;
    CallLowering lowering;
    bool shortCalls;
};

std::vector<EngineCombo>
allEngines()
{
    return {
        {Impl::Simple, CallLowering::Fat, false},
        {Impl::Mesa, CallLowering::Mesa, false},
        {Impl::Ifu, CallLowering::Direct, true},
        {Impl::Banked, CallLowering::Direct, true},
    };
}

} // namespace

// ---------------------------------------------------------------------
// Telemetry sampling
// ---------------------------------------------------------------------

TEST(Telemetry, SamplesAtIntervalBoundaries)
{
    Rig rig(kPrimes);
    obs::Telemetry telemetry;
    rig.machine->setSampler(&telemetry, 1000);
    const RunResult result = runMain(rig, 60);
    ASSERT_EQ(result.reason, StopReason::TopReturn);

    const auto samples = telemetry.samples();
    ASSERT_GE(samples.size(), 2u);
    // Stamps are strictly monotone and each sample lands in a later
    // interval bucket (the sampler fires on boundary crossings, so
    // consecutive samples may be closer than one interval but never
    // share a bucket).
    for (std::size_t i = 1; i < samples.size(); ++i) {
        EXPECT_GT(samples[i].cycles, samples[i - 1].cycles);
        EXPECT_GT(samples[i].cycles / 1000,
                  samples[i - 1].cycles / 1000);
        EXPECT_GE(samples[i].steps, samples[i - 1].steps);
    }
    // Gauges carry real machine state.
    const obs::MetricsSample &last = samples.back();
    EXPECT_GT(last.calls, 0u);
    EXPECT_GT(last.liveFrames, 0u);
    EXPECT_TRUE(std::isfinite(last.fragmentation));
    EXPECT_EQ(last.freeFrames.size(),
              rig.machine->heap().classes().numClasses());
}

TEST(Telemetry, AddsNoSimulatedCycles)
{
    // A run with a sampler attached (even a very chatty one) must
    // report exactly the simulated numbers of an unobserved run.
    Rig plain(kPrimes);
    const RunResult r1 = runMain(plain, 50);
    ASSERT_EQ(r1.reason, StopReason::TopReturn);

    Rig sampled(kPrimes);
    obs::Telemetry telemetry;
    sampled.machine->setSampler(&telemetry, 100);
    const RunResult r2 = runMain(sampled, 50);
    ASSERT_EQ(r2.reason, StopReason::TopReturn);

    EXPECT_GT(telemetry.recorded(), 10u);
    EXPECT_EQ(plain.machine->stats().cycles,
              sampled.machine->stats().cycles);
    EXPECT_EQ(plain.machine->stats().steps,
              sampled.machine->stats().steps);
    EXPECT_EQ(plain.mem->totalRefs(), sampled.mem->totalRefs());
}

TEST(Telemetry, MetricsJsonByteIdenticalAcrossRunsAndAccel)
{
    for (const EngineCombo &combo : allEngines()) {
        LinkPlan plan;
        plan.lowering = combo.lowering;
        plan.shortCalls = combo.shortCalls;
        MachineConfig on;
        on.impl = combo.impl;
        on.accel.enabled = true;
        MachineConfig off = on;
        off.accel.enabled = false;

        AccelStats onStats;
        const std::string a = metricsOnce(on, plan, 40, 2000, &onStats);
        const std::string b = metricsOnce(on, plan, 40, 2000);
        const std::string c = metricsOnce(off, plan, 40, 2000);
        EXPECT_EQ(a, b) << implName(combo.impl) << ": two runs differ";
        EXPECT_EQ(a, c) << implName(combo.impl)
                        << ": accel on/off differ";
        // The exact sampler alone rides the superblocks.
        EXPECT_GT(onStats.sblockExecs, 0u) << implName(combo.impl);
        EXPECT_NE(a.find("\"fpc-metrics-v1\""), std::string::npos);
        // The default document never leaks host-side counters.
        EXPECT_NE(a.find("\"accel\": null"), std::string::npos);
        EXPECT_EQ(a.find("icacheHitRate"), std::string::npos);
    }
}

TEST(Telemetry, RingDropsOldestAndCountsLifetimeDrops)
{
    Rig rig(kPrimes);
    obs::Telemetry telemetry(4);
    rig.machine->setSampler(&telemetry, 100);
    runMain(rig, 50);

    EXPECT_GT(telemetry.dropped(), 0u);
    const auto samples = telemetry.samples();
    ASSERT_EQ(samples.size(), 4u);
    EXPECT_EQ(telemetry.recorded(), telemetry.dropped() + 4);
    for (std::size_t i = 1; i < samples.size(); ++i)
        EXPECT_GT(samples[i].cycles, samples[i - 1].cycles);

    // dropped() survives an epoch roll, like Tracer::dropped().
    const CountT before = telemetry.dropped();
    telemetry.clear();
    EXPECT_EQ(telemetry.recorded(), 0u);
    EXPECT_EQ(telemetry.dropped(), before);
}

TEST(Telemetry, SetBaseOffsetsStamps)
{
    Rig rig(kPrimes);
    obs::Telemetry telemetry;
    telemetry.setBase(100000, 5000);
    rig.machine->setSampler(&telemetry, 1000);
    runMain(rig, 40);
    telemetry.sample(*rig.machine);

    const auto samples = telemetry.samples();
    ASSERT_FALSE(samples.empty());
    EXPECT_GE(samples.front().cycles, 100000u);
    EXPECT_GE(samples.front().steps, 5000u);
    EXPECT_EQ(samples.back().cycles,
              100000 + rig.machine->stats().cycles);
}

TEST(Telemetry, ProviderGaugesAppearInBothExports)
{
    Rig rig(kPrimes);
    obs::Telemetry telemetry;
    telemetry.setProvider(
        [](std::vector<std::pair<std::string, double>> &g) {
            g.emplace_back("custom_gauge", 42.0);
        });
    rig.machine->setSampler(&telemetry, 1000);
    runMain(rig, 40);
    telemetry.sample(*rig.machine);

    obs::MetricsExport meta;
    meta.driver = "test";
    meta.impl = "I2-mesa";
    std::ostringstream js, om;
    obs::writeMetricsJson(js, meta, {&telemetry});
    obs::writeOpenMetrics(om, meta, {&telemetry});
    EXPECT_NE(js.str().find("\"custom_gauge\": 42"),
              std::string::npos);
    EXPECT_NE(om.str().find("fpc_custom_gauge"), std::string::npos);
}

TEST(Telemetry, OpenMetricsShape)
{
    Rig rig(kPrimes);
    obs::Telemetry telemetry;
    rig.machine->setSampler(&telemetry, 1000);
    runMain(rig, 40);

    obs::MetricsExport meta;
    meta.driver = "test";
    meta.impl = "I2-mesa";
    std::ostringstream os;
    obs::writeOpenMetrics(os, meta, {&telemetry});
    const std::string text = os.str();

    EXPECT_NE(text.find("# TYPE fpc_cycles counter"),
              std::string::npos);
    EXPECT_NE(text.find("fpc_cycles_total{worker=\"0\",impl="
                        "\"I2-mesa\"}"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE fpc_heap_fragmentation gauge"),
              std::string::npos);
    EXPECT_NE(text.find("kind=\"extCall\""), std::string::npos);
    // Terminator present, exactly at the end.
    ASSERT_GE(text.size(), 6u);
    EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");
    // No host-side families without includeAccel.
    EXPECT_EQ(text.find("fpc_accel"), std::string::npos);
}

TEST(Telemetry, SchedulerGaugesViaProvider)
{
    MachineConfig config;
    config.timesliceSteps = 200;
    Rig rig(kPrimes, config);
    sched::Scheduler scheduler(*rig.machine);
    scheduler.spawn("Main", "main", std::array<Word, 1>{Word{30}});
    scheduler.spawn("Main", "main", std::array<Word, 1>{Word{40}});

    obs::Telemetry telemetry;
    telemetry.setProvider(
        [&scheduler](std::vector<std::pair<std::string, double>> &g) {
            scheduler.appendGauges(g);
        });
    rig.machine->setSampler(&telemetry, 500);
    const RunResult result = scheduler.runAll();
    ASSERT_NE(result.reason, StopReason::Error) << result.message;
    telemetry.sample(*rig.machine);

    const auto samples = telemetry.samples();
    ASSERT_FALSE(samples.empty());
    bool saw_live = false;
    for (const auto &[name, value] : samples.front().gauges) {
        if (name == "sched_live" && value > 0)
            saw_live = true;
    }
    EXPECT_TRUE(saw_live);
    // After runAll, every process is done.
    for (const auto &[name, value] : samples.back().gauges) {
        if (name == "sched_live") {
            EXPECT_EQ(value, 0.0);
        }
    }
}

// ---------------------------------------------------------------------
// Flight recorder and postmortem bundles
// ---------------------------------------------------------------------

TEST(FlightRecorder, ShadowStackTracksNesting)
{
    Rig rig(kTrap);
    obs::FlightRecorder recorder;
    rig.machine->setObserver(&recorder);
    const RunResult result = runMain(rig, 0);
    ASSERT_EQ(result.reason, StopReason::Error);

    // main -> inner -> div, innermost on top.
    const auto &stack = rig.machine->shadowStack();
    ASSERT_EQ(stack.size(), 3u);
    const obs::ProcMap map(rig.image);
    EXPECT_EQ(*map.find(stack[0].pc), "Main.main");
    EXPECT_EQ(*map.find(stack[1].pc), "Main.inner");
    EXPECT_EQ(*map.find(stack[2].pc), "Main.div");
}

TEST(FlightRecorder, RingKeepsMostRecent)
{
    Rig rig(kPrimes);
    obs::FlightRecorder recorder(8);
    rig.machine->setObserver(&recorder);
    runMain(rig, 30);

    EXPECT_GT(recorder.recorded(), 8u);
    const auto records = recorder.records();
    ASSERT_EQ(records.size(), 8u);
    for (std::size_t i = 1; i < records.size(); ++i)
        EXPECT_LE(records[i - 1].end, records[i].end);
    EXPECT_EQ(records.back().kind, XferKind::Return);
}

TEST(Postmortem, BundleSymbolizesTrap)
{
    const std::filesystem::path dir =
        std::filesystem::path(testing::TempDir()) /
        "fpc_postmortem_test";
    std::filesystem::remove_all(dir);

    Rig rig(kTrap);
    obs::FlightRecorder recorder;
    rig.machine->setObserver(&recorder);
    obs::Telemetry telemetry;
    rig.machine->setSampler(&telemetry, 1000);
    const std::array<Word, 1> args = {Word{0}};
    rig.machine->start("Main", "main", args);
    telemetry.sample(*rig.machine);
    const RunResult result = rig.machine->run();
    telemetry.sample(*rig.machine);
    ASSERT_EQ(result.reason, StopReason::Error);

    obs::PostmortemConfig pm;
    pm.dir = dir.string();
    pm.driver = "test";
    pm.impl = "I2-mesa";
    ASSERT_TRUE(obs::writePostmortem(pm, *rig.machine, result,
                                     rig.image, recorder, &telemetry));

    std::ifstream js(dir / "postmortem.json");
    ASSERT_TRUE(js.good());
    std::stringstream jbuf;
    jbuf << js.rdbuf();
    const std::string json = jbuf.str();
    EXPECT_NE(json.find("\"fpc-postmortem-v1\""), std::string::npos);
    EXPECT_NE(json.find("division by zero"), std::string::npos);
    // The faulting procedure and the full backtrace, symbolized.
    EXPECT_NE(json.find("\"Main.div\""), std::string::npos);
    EXPECT_NE(json.find("\"Main.inner\""), std::string::npos);
    EXPECT_NE(json.find("\"Main.main\""), std::string::npos);
    EXPECT_NE(json.find("\"finalSample\""), std::string::npos);

    std::ifstream ds(dir / "disasm.txt");
    ASSERT_TRUE(ds.good());
    std::stringstream dbuf;
    dbuf << ds.rdbuf();
    const std::string disasm = dbuf.str();
    // The window names the procedure and marks the faulting DIV.
    EXPECT_NE(disasm.find("Main.div"), std::string::npos);
    EXPECT_NE(disasm.find("=> "), std::string::npos);
    EXPECT_NE(disasm.find("DIV"), std::string::npos);

    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// Runtime integration
// ---------------------------------------------------------------------

TEST(RuntimeTelemetry, PerWorkerSeriesAndFailedJobBundles)
{
    const std::filesystem::path dir =
        std::filesystem::path(testing::TempDir()) /
        "fpc_runtime_postmortem_test";
    std::filesystem::remove_all(dir);

    auto modules = std::make_shared<const std::vector<Module>>(
        lang::compile(kTrap));

    sched::RuntimeConfig rc;
    rc.workers = 2;
    rc.metrics = true;
    rc.metricsInterval = 100;
    rc.postmortemDir = dir.string();
    rc.driver = "test";
    sched::Runtime runtime(rc);
    // Jobs 0/2 succeed (divide by 5), jobs 1/3 trap (divide by 0).
    for (const Word arg : {Word(5), Word(0), Word(5), Word(0)})
        runtime.submit({modules, "Main", "main", {arg}});
    const auto results = runtime.run();

    ASSERT_EQ(results.size(), 4u);
    EXPECT_TRUE(results[0].ok);
    EXPECT_FALSE(results[1].ok);
    EXPECT_TRUE(results[2].ok);
    EXPECT_FALSE(results[3].ok);

    // Only the failed jobs left bundles.
    EXPECT_FALSE(
        std::filesystem::exists(dir / "job-0-postmortem.json"));
    EXPECT_TRUE(
        std::filesystem::exists(dir / "job-1-postmortem.json"));
    EXPECT_TRUE(std::filesystem::exists(dir / "job-3-disasm.txt"));

    std::ostringstream js;
    runtime.writeMetricsJson(js);
    const std::string json = js.str();
    // One series per worker, worker job-progress gauges included.
    EXPECT_NE(json.find("\"worker\": 0"), std::string::npos);
    EXPECT_NE(json.find("\"worker\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"worker_jobs_done\""), std::string::npos);

    std::filesystem::remove_all(dir);
}

TEST(RuntimeTelemetry, MetricsForceStaticAssignmentDeterminism)
{
    auto once = [] {
        auto modules = std::make_shared<const std::vector<Module>>(
            lang::compile(kPrimes));
        sched::RuntimeConfig rc;
        rc.workers = 2;
        rc.metrics = true;
        rc.metricsInterval = 500;
        rc.driver = "test";
        sched::Runtime runtime(rc);
        for (unsigned j = 0; j < 6; ++j)
            runtime.submit({modules, "Main", "main", {30}});
        runtime.run();
        std::ostringstream os;
        runtime.writeMetricsJson(os);
        return os.str();
    };
    EXPECT_EQ(once(), once());
}
