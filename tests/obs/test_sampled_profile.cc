/**
 * @file
 * Tests for the boundary-sampling profiler (obs/sampled_profile.hh)
 * and the BoundarySampler machinery it rides:
 *
 *  - the slop contract — every sample lands at or after its nominal
 *    interval boundary, within one instruction (eager) or one
 *    superblock (threaded) of it, on all four engines;
 *  - the validation harness the tentpole promises: sampled cycle
 *    shares on a deterministic call-heavy workload agree with the
 *    exact eager profiler's exclusive shares within tolerance;
 *  - attaching a boundary sampler does not perturb a single simulated
 *    number (the accel invariance contract extends to observation);
 *  - the SampledProfile container and BoundaryFanout mechanics.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "lang/codegen.hh"
#include "machine/machine.hh"
#include "obs/json.hh"
#include "obs/profile.hh"
#include "obs/sampled_profile.hh"
#include "program/loader.hh"

using namespace fpc;

namespace
{

/** Call-heavy, deterministic: isPrime dominates, with main's loop a
 *  solid second — two procedures with stable, well-separated shares. */
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

enum class Mode
{
    Off,
    Threaded,
};

const char *
modeName(Mode mode)
{
    return mode == Mode::Off ? "off" : "threaded";
}

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

MachineConfig
configFor(Impl impl, Mode mode)
{
    MachineConfig config;
    config.impl = impl;
    config.accel.enabled = mode != Mode::Off;
    return config;
}

Word
runMain(Rig &rig, Word arg)
{
    const std::vector<Word> args = {arg};
    rig.machine->start("Main", "main", args);
    const RunResult result = rig.machine->run();
    EXPECT_EQ(result.reason, StopReason::TopReturn) << result.message;
    return rig.machine->popValue();
}

/** Records the cycle count of every boundary fire. */
struct RecordingBsampler : BoundarySampler
{
    std::vector<Tick> fires;

    void
    onBoundarySample(const Machine &machine) override
    {
        fires.push_back(machine.stats().cycles);
    }
};

} // namespace

// ---------------------------------------------------------------------
// The slop contract
// ---------------------------------------------------------------------

namespace
{

/** Generous upper bound on the simulated cost of one instruction in
 *  the default latency model (decode + a transfer's worth of memory
 *  references stays well under this). */
constexpr Tick kPerStepCycleCap = 64;

/** Steps per boundary unit for each host backend. */
std::uint64_t
unitSteps(Mode mode)
{
    // One instruction, or one superblock (maxBlockInsts).
    return mode == Mode::Off ? 1 : 64;
}

} // namespace

TEST(BoundarySampling, SlopBoundedOnEveryEngineAndBackend)
{
    constexpr Tick interval = 1000;
    const struct
    {
        Impl impl;
        CallLowering lowering;
    } combos[] = {
        {Impl::Simple, CallLowering::Fat},
        {Impl::Mesa, CallLowering::Mesa},
        {Impl::Ifu, CallLowering::Direct},
        {Impl::Banked, CallLowering::Direct},
    };

    for (const auto &combo : combos) {
        for (Mode mode : {Mode::Off, Mode::Threaded}) {
            const std::string tag = std::string(implName(combo.impl)) +
                                    "/" + modeName(mode);
            LinkPlan plan;
            plan.lowering = combo.lowering;
            Rig rig(kPrimes, configFor(combo.impl, mode), plan);
            RecordingBsampler rec;
            rig.machine->setBoundarySampler(&rec, interval);
            runMain(rig, 300);

            ASSERT_GT(rec.fires.size(), 10u) << tag;
            const Tick slopBound = static_cast<Tick>(unitSteps(mode)) *
                                   kPerStepCycleCap;

            // Replicate the machine's catch-up bookkeeping: each fire
            // must land at or after its nominal boundary, within the
            // backend's slop, and then consume every boundary up to
            // the observed cycle count.
            Tick nextAt = interval;
            Tick prevCycles = 0;
            for (const Tick cycles : rec.fires) {
                EXPECT_GE(cycles, nextAt) << tag;
                EXPECT_LE(cycles - nextAt, slopBound) << tag;
                EXPECT_GT(cycles, prevCycles) << tag;
                prevCycles = cycles;
                do
                    nextAt += interval;
                while (nextAt <= cycles);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Sampled-vs-exact validation harness
// ---------------------------------------------------------------------

TEST(SampledProfiler, AgreesWithExactProfilerOnThreaded)
{
    constexpr Word limit = 4000;
    constexpr Tick interval = 491; // prime: avoids loop aliasing

    // Exact baseline: eager loop, XFER-observer profiler.
    Rig exactRig(kPrimes);
    obs::Profiler exact(exactRig.image);
    exactRig.machine->setObserver(&exact);
    const Word exactValue = runMain(exactRig, limit);
    const obs::ProfileData exactData =
        exact.finish(exactRig.machine->stats().cycles);
    ASSERT_GT(exactData.total, 0);

    for (Mode mode : {Mode::Threaded, Mode::Off}) {
        Rig rig(kPrimes, configFor(Impl::Banked, mode));
        obs::SampledProfiler sampler(rig.image);
        rig.machine->setBoundarySampler(&sampler, interval);
        EXPECT_EQ(runMain(rig, limit), exactValue) << modeName(mode);
        const obs::SampledProfile profile = sampler.finish();
        ASSERT_GT(profile.total, 100) << modeName(mode);
        EXPECT_EQ(profile.dropped, 0u) << modeName(mode);

        // Every procedure with a non-trivial exact share must appear
        // in the sampled profile with a share within 5 points.
        for (const auto &[name, pp] : exactData.procs) {
            const double exactShare =
                static_cast<double>(pp.exclusive) /
                static_cast<double>(exactData.total);
            if (exactShare < 0.02)
                continue;
            const double sampledShare = profile.share(name);
            EXPECT_NEAR(sampledShare, exactShare, 0.05)
                << modeName(mode) << " " << name;
        }
    }
}

// ---------------------------------------------------------------------
// Observation must not perturb simulated numbers
// ---------------------------------------------------------------------

TEST(BoundarySampling, DoesNotPerturbSimulatedStats)
{
    const auto statsJson = [](Rig &rig) {
        std::ostringstream os;
        obs::StatsExport exp;
        exp.driver = "test_sampled";
        exp.impl = implName(rig.machine->config().impl);
        exp.stopReason = stopReasonName(StopReason::TopReturn);
        exp.machine = &rig.machine->stats();
        exp.memory = rig.mem.get();
        exp.heap = &rig.machine->heap().stats();
        exp.cache = rig.machine->dataCache();
        obs::writeStatsJson(os, exp);
        return os.str();
    };

    for (Mode mode : {Mode::Off, Mode::Threaded}) {
        Rig bare(kPrimes, configFor(Impl::Banked, mode));
        const Word bareValue = runMain(bare, 200);
        const std::string bareJson = statsJson(bare);

        Rig observed(kPrimes, configFor(Impl::Banked, mode));
        obs::SampledProfiler sampler(observed.image);
        observed.machine->setBoundarySampler(&sampler, 997);
        EXPECT_EQ(runMain(observed, 200), bareValue) << modeName(mode);
        EXPECT_GT(sampler.recorded(), 0u) << modeName(mode);
        EXPECT_EQ(statsJson(observed), bareJson) << modeName(mode);
    }
}

// ---------------------------------------------------------------------
// SampledProfile container
// ---------------------------------------------------------------------

TEST(SampledProfile, MergeShareAndFolded)
{
    obs::SampledProfile a;
    a.samples["Main.f"] = 30;
    a.samples["Main.g"] = 10;
    a.total = 40;
    a.recorded = 40;

    obs::SampledProfile b;
    b.samples["Main.g"] = 10;
    b.samples["Main.h"] = 10;
    b.total = 20;
    b.recorded = 25;
    b.dropped = 5;

    a.merge(b);
    EXPECT_EQ(a.total, 60);
    EXPECT_EQ(a.recorded, 65);
    EXPECT_EQ(a.dropped, 5);
    EXPECT_DOUBLE_EQ(a.share("Main.f"), 0.5);
    EXPECT_DOUBLE_EQ(a.share("Main.g"), 20.0 / 60.0);
    EXPECT_DOUBLE_EQ(a.share("absent"), 0.0);

    std::ostringstream os;
    a.writeFolded(os);
    EXPECT_EQ(os.str(), "Main.f 30\nMain.g 20\nMain.h 10\n");
}

TEST(SampledProfiler, RingDropsOldestBeyondCapacity)
{
    Rig rig(kPrimes, configFor(Impl::Banked, Mode::Threaded));
    obs::SampledProfiler sampler(rig.image, /*capacity=*/8);
    rig.machine->setBoundarySampler(&sampler, 500);
    runMain(rig, 300);

    ASSERT_GT(sampler.recorded(), 8u);
    EXPECT_EQ(sampler.dropped(), sampler.recorded() - 8u);
    const CountT recorded = sampler.recorded();
    const obs::SampledProfile profile = sampler.finish();
    EXPECT_EQ(profile.total, 8); // ring retains exactly its capacity
    EXPECT_EQ(profile.recorded, recorded);
    // finish() resets: a second finish sees an empty profiler.
    const obs::SampledProfile empty = sampler.finish();
    EXPECT_EQ(empty.total, 0);
    EXPECT_EQ(empty.recorded, 0);
}

// ---------------------------------------------------------------------
// BoundaryFanout
// ---------------------------------------------------------------------

namespace
{

struct CountingBsampler : BoundarySampler
{
    std::vector<Tick> at;
    void
    onBoundarySample(const Machine &machine) override
    {
        at.push_back(machine.stats().cycles);
    }
};

} // namespace

TEST(BoundaryFanout, FinestIntervalDrivesCoarserTargets)
{
    obs::BoundaryFanout fan;
    EXPECT_TRUE(fan.empty());
    EXPECT_EQ(fan.machineInterval(), 0);

    CountingBsampler fine;
    CountingBsampler coarse;
    fan.add(&fine, 500);
    fan.add(&coarse, 5000);
    EXPECT_FALSE(fan.empty());
    EXPECT_EQ(fan.machineInterval(), 500);

    Rig rig(kPrimes, configFor(Impl::Banked, Mode::Threaded));
    rig.machine->setBoundarySampler(&fan, fan.machineInterval());
    runMain(rig, 300);

    ASSERT_GT(fine.at.size(), 20u);
    ASSERT_GE(coarse.at.size(), 2u);
    EXPECT_LT(coarse.at.size(), fine.at.size());
    // Each coarse fire obeys the same catch-up contract as the
    // machine's own budget: at or after its nominal boundary, which
    // then advances strictly past the fire point.
    Tick nextAt = 5000;
    for (const Tick at : coarse.at) {
        EXPECT_GE(at, nextAt);
        do
            nextAt += 5000;
        while (nextAt <= at);
    }
}
