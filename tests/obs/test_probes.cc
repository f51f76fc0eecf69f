/**
 * @file
 * Tests for fpc_probe (obs/probes.hh + obs/probe_lang.hh):
 *
 *  - the probe language: canonical rendering, predicate/action
 *    parsing, diagnosis on malformed specs, glob matching;
 *  - the log2 quantize histogram's bucket boundaries;
 *  - a live ProbeEngine on a real Machine: entry/exit counts,
 *    aggregating actions, the depth/caller/callstr/tenant predicates,
 *    capture rings, and identical aggregations across every host
 *    backend (probed procedures deopt to the exact eager path);
 *  - attaching probes must not perturb a single simulated number on
 *    any engine x backend combination (the invariance contract);
 *  - the ProbeRegistry: idempotent attach, detach, folding engines
 *    compiled against stale snapshots, deterministic fpc-probes-v1
 *    output;
 *  - the BoundaryFanout detach path (satellite);
 *  - SampledProfile::merge edge cases (satellite).
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "lang/codegen.hh"
#include "machine/machine.hh"
#include "obs/json.hh"
#include "obs/probe_lang.hh"
#include "obs/probes.hh"
#include "obs/sampled_profile.hh"
#include "program/loader.hh"

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

obs::ProbeSpec
parse(const std::string &text)
{
    obs::ProbeSpec spec;
    std::string err;
    EXPECT_TRUE(obs::parseProbeSpec(text, spec, err))
        << text << ": " << err;
    return spec;
}

/** Run kPrimes(limit) with the given specs attached and return the
 *  registry's read() view. */
std::vector<std::pair<obs::ProbeRegistry::Entry, obs::ProbeAgg>>
runProbed(const std::vector<std::string> &specs, Word limit,
          Impl impl = Impl::Banked, Mode mode = Mode::Off,
          const std::string &tenant = "")
{
    obs::ProbeRegistry registry;
    std::string err;
    EXPECT_TRUE(obs::attachProbeSpecs(registry, specs, err)) << err;
    Rig rig(kPrimes, configFor(impl, mode));
    obs::ProbeEngine engine(registry.snapshot(), rig.image, tenant,
                            /*worker=*/0);
    rig.machine->setProbeSink(&engine, engine.armedRanges());
    runMain(rig, limit);
    rig.machine->setProbeSink(nullptr);
    engine.finishInto(registry);
    return registry.read();
}

} // namespace

// ---------------------------------------------------------------------
// The probe language
// ---------------------------------------------------------------------

TEST(ProbeLang, CanonicalRenderingIsSpacingIndependent)
{
    const obs::ProbeSpec a =
        parse("entry:Main.isPrime{depth<=4}->quantize(cycles)");
    const obs::ProbeSpec b = parse(
        "  entry:Main.isPrime  { depth <= 4 } ->  quantize( cycles )");
    EXPECT_EQ(a.text, b.text);
    EXPECT_EQ(a.site, obs::ProbeSite::Entry);
    EXPECT_EQ(a.pattern, "Main.isPrime");
    ASSERT_EQ(a.predicates.size(), 1u);
    EXPECT_EQ(a.predicates[0].kind,
              obs::ProbePredicate::Kind::Depth);
    EXPECT_EQ(a.predicates[0].cmp, obs::ProbeCmp::Le);
    EXPECT_EQ(a.predicates[0].number, 4u);
    EXPECT_EQ(a.action, obs::ProbeAction::Quantize);
    EXPECT_EQ(a.expr, obs::ProbeExpr::Cycles);
}

TEST(ProbeLang, SitesPredicatesAndActionsParse)
{
    EXPECT_EQ(parse("exit:Main.*").site, obs::ProbeSite::Exit);
    EXPECT_EQ(parse("exit:Main.*").action, obs::ProbeAction::Count);
    EXPECT_EQ(parse("xfer:return").site, obs::ProbeSite::Xfer);
    EXPECT_EQ(parse("xfer:return").kind, XferKind::Return);
    EXPECT_EQ(parse("trap").site, obs::ProbeSite::Trap);
    EXPECT_EQ(parse("procswitch").site, obs::ProbeSite::ProcSwitch);
    EXPECT_EQ(parse("alloc").site, obs::ProbeSite::FrameAlloc);
    EXPECT_EQ(parse("free").site, obs::ProbeSite::FrameFree);

    const obs::ProbeSpec multi = parse(
        "entry:M.p{depth>2,tenant==gold,caller==M.*,"
        "callstr==M.a/M.b} -> sum(refs)");
    ASSERT_EQ(multi.predicates.size(), 4u);
    EXPECT_EQ(multi.predicates[1].text, "gold");
    EXPECT_EQ(multi.predicates[2].text, "M.*");
    ASSERT_EQ(multi.predicates[3].path.size(), 2u);
    EXPECT_EQ(multi.predicates[3].path[1], "M.b");
    EXPECT_EQ(multi.action, obs::ProbeAction::Sum);
    EXPECT_EQ(multi.expr, obs::ProbeExpr::Refs);

    EXPECT_EQ(parse("entry:M.p -> capture(16)").captureDepth, 16u);
}

TEST(ProbeLang, MalformedSpecsDiagnose)
{
    obs::ProbeSpec spec;
    std::string err;
    for (const char *bad :
         {"", "entry:", "bogus:M.p", "xfer:sideways",
          "entry:M.p{depth=4}", "entry:M.p{tenant<gold}",
          "entry:M.p -> frobnicate", "entry:M.p -> sum()",
          "entry:M.p -> sum(bogus)", "entry:M.p -> capture(x)",
          "entry:M.p{", "entry:M.p}junk"}) {
        err.clear();
        EXPECT_FALSE(obs::parseProbeSpec(bad, spec, err)) << bad;
        EXPECT_FALSE(err.empty()) << bad;
    }
}

TEST(ProbeLang, GlobMatching)
{
    EXPECT_TRUE(obs::probeGlobMatch("Main.isPrime", "Main.isPrime"));
    EXPECT_TRUE(obs::probeGlobMatch("Main.*", "Main.isPrime"));
    EXPECT_TRUE(obs::probeGlobMatch("*.isPrime", "Main.isPrime"));
    EXPECT_TRUE(obs::probeGlobMatch("Main.is?rime", "Main.isPrime"));
    EXPECT_TRUE(obs::probeGlobMatch("*", "anything"));
    EXPECT_TRUE(obs::probeGlobMatch("*", ""));
    EXPECT_FALSE(obs::probeGlobMatch("Main.is?rime", "Main.isrime"));
    EXPECT_FALSE(obs::probeGlobMatch("Main.*", "Other.isPrime"));
    EXPECT_FALSE(obs::probeGlobMatch("", "x"));
}

// ---------------------------------------------------------------------
// Quantize buckets
// ---------------------------------------------------------------------

TEST(ProbeQuantize, Log2BucketBoundaries)
{
    obs::ProbeQuantize q;
    q.sample(0);                       // bucket 0
    q.sample(1);                       // bucket 1: [1, 2)
    q.sample(2);                       // bucket 2: [2, 4)
    q.sample(3);                       // bucket 2
    q.sample(4);                       // bucket 3: [4, 8)
    q.sample(7);                       // bucket 3
    q.sample(8);                       // bucket 4
    q.sample(~std::uint64_t{0});       // bucket 64
    EXPECT_EQ(q.buckets[0], 1u);
    EXPECT_EQ(q.buckets[1], 1u);
    EXPECT_EQ(q.buckets[2], 2u);
    EXPECT_EQ(q.buckets[3], 2u);
    EXPECT_EQ(q.buckets[4], 1u);
    EXPECT_EQ(q.buckets[64], 1u);

    obs::ProbeQuantize other;
    other.sample(3);
    q.merge(other);
    EXPECT_EQ(q.buckets[2], 3u);
}

// ---------------------------------------------------------------------
// Live engine aggregation
// ---------------------------------------------------------------------

TEST(ProbeEngine, EntryAndExitCountCalls)
{
    // main calls isPrime once per i in [2, 50): 48 calls, each of
    // which returns.
    const auto probes = runProbed(
        {"entry:Main.isPrime", "exit:Main.isPrime"}, 50);
    ASSERT_EQ(probes.size(), 2u);
    EXPECT_EQ(probes[0].second.hits, 48u);
    EXPECT_EQ(probes[1].second.hits, 48u);
}

TEST(ProbeEngine, AggregationsAreBackendInvariant)
{
    const std::vector<std::string> specs = {
        "entry:Main.isPrime -> sum(cycles)",
        "entry:Main.* -> quantize(refs)",
        "xfer:return -> count",
    };
    const auto baseline = runProbed(specs, 120, Impl::Banked,
                                    Mode::Off);
    ASSERT_EQ(baseline.size(), specs.size());
    EXPECT_GT(baseline[0].second.hits, 0u);
    EXPECT_GT(baseline[0].second.dist.total(), 0.0);
    EXPECT_GT(baseline[2].second.hits, baseline[0].second.hits);

    for (Impl impl : {Impl::Simple, Impl::Mesa, Impl::Ifu,
                      Impl::Banked}) {
        const std::string tag = implName(impl);
        const auto probed = runProbed(specs, 120, impl, Mode::Threaded);
        // Same engine, other backend: same simulated history, so
        // identical counts everywhere. Sum aggregations compare
        // against the same engine's eager baseline.
        const auto eager = impl == Impl::Banked
                               ? baseline
                               : runProbed(specs, 120, impl, Mode::Off);
        ASSERT_EQ(probed.size(), eager.size()) << tag;
        for (std::size_t i = 0; i < probed.size(); ++i) {
            EXPECT_EQ(probed[i].second.hits, eager[i].second.hits)
                << tag << " " << specs[i];
            EXPECT_EQ(probed[i].second.dist.total(),
                      eager[i].second.dist.total())
                << tag << " " << specs[i];
            for (std::size_t b = 0;
                 b < probed[i].second.quant.buckets.size(); ++b)
                EXPECT_EQ(probed[i].second.quant.buckets[b],
                          eager[i].second.quant.buckets[b])
                    << tag << " " << specs[i] << " bucket " << b;
        }
    }
}

TEST(ProbeEngine, PredicatesFilter)
{
    const auto probes = runProbed(
        {
            "entry:Main.isPrime",
            "entry:Main.isPrime{depth>=100}",
            "entry:Main.isPrime{caller==Main.main}",
            "entry:Main.isPrime{caller==Main.isPrime}",
            "entry:Main.isPrime{callstr==Main.main/Main.isPrime}",
            "entry:Main.isPrime{tenant==gold}",
            "entry:Main.isPrime{tenant==silver}",
        },
        50, Impl::Banked, Mode::Off, /*tenant=*/"gold");
    ASSERT_EQ(probes.size(), 7u);
    const CountT all = probes[0].second.hits;
    EXPECT_EQ(all, 48u);
    EXPECT_EQ(probes[1].second.hits, 0u);  // depth >= 100
    EXPECT_EQ(probes[2].second.hits, all); // caller is main
    EXPECT_EQ(probes[3].second.hits, 0u);  // never self-called
    EXPECT_EQ(probes[4].second.hits, all); // main/isPrime suffix
    EXPECT_EQ(probes[5].second.hits, all); // tenant matches
    EXPECT_EQ(probes[6].second.hits, 0u);  // tenant differs
}

TEST(ProbeEngine, CaptureKeepsLastNDeterministically)
{
    const auto probes =
        runProbed({"entry:Main.isPrime -> capture(4)"}, 50);
    ASSERT_EQ(probes.size(), 1u);
    EXPECT_EQ(probes[0].second.hits, 48u);
    const auto &ring = probes[0].second.ring;
    ASSERT_EQ(ring.size(), 4u);
    // Last-N: sequence numbers are the final four match indices, in
    // order, with strictly advancing stamps.
    for (std::size_t i = 0; i < ring.size(); ++i) {
        EXPECT_EQ(ring[i].worker, 0u);
        EXPECT_EQ(ring[i].seq, 44u + i);
        if (i > 0) {
            EXPECT_GT(ring[i].step, ring[i - 1].step);
            EXPECT_GT(ring[i].cycles, ring[i - 1].cycles);
        }
    }
}

// ---------------------------------------------------------------------
// Invariance: probes never perturb simulated numbers
// ---------------------------------------------------------------------

TEST(ProbeEngine, DoesNotPerturbSimulatedStats)
{
    const auto statsJson = [](Rig &rig) {
        std::ostringstream os;
        obs::StatsExport exp;
        exp.driver = "test_probes";
        exp.impl = implName(rig.machine->config().impl);
        exp.stopReason = stopReasonName(StopReason::TopReturn);
        exp.machine = &rig.machine->stats();
        exp.memory = rig.mem.get();
        exp.heap = &rig.machine->heap().stats();
        exp.cache = rig.machine->dataCache();
        obs::writeStatsJson(os, exp);
        return os.str();
    };

    obs::ProbeRegistry registry;
    std::string err;
    ASSERT_TRUE(obs::attachProbeSpecs(
        registry,
        {"entry:Main.isPrime -> quantize(cycles)",
         "xfer:return -> sum(refs)", "alloc", "free"},
        err))
        << err;

    for (Impl impl : {Impl::Simple, Impl::Mesa, Impl::Ifu,
                      Impl::Banked}) {
        for (Mode mode : {Mode::Off, Mode::Threaded}) {
            const std::string tag = std::string(implName(impl)) + "/" +
                                    modeName(mode);
            Rig bare(kPrimes, configFor(impl, mode));
            const Word bareValue = runMain(bare, 200);
            const std::string bareJson = statsJson(bare);

            Rig probed(kPrimes, configFor(impl, mode));
            obs::ProbeEngine engine(registry.snapshot(), probed.image,
                                    "", 0);
            probed.machine->setProbeSink(&engine,
                                         engine.armedRanges());
            EXPECT_EQ(runMain(probed, 200), bareValue) << tag;
            EXPECT_EQ(statsJson(probed), bareJson) << tag;
        }
    }
}

// ---------------------------------------------------------------------
// Registry semantics and fpc-probes-v1 output
// ---------------------------------------------------------------------

TEST(ProbeRegistry, AttachIsIdempotentOnCanonicalText)
{
    obs::ProbeRegistry registry;
    const std::uint32_t a =
        registry.attach(parse("entry:M.p->count"));
    const std::uint32_t b =
        registry.attach(parse("entry:M.p  ->  count"));
    EXPECT_EQ(a, b);
    EXPECT_EQ(registry.attachedCount(), 1u);
    const std::uint32_t c = registry.attach(parse("exit:M.p"));
    EXPECT_NE(a, c);
    EXPECT_EQ(registry.attachedCount(), 2u);

    EXPECT_TRUE(registry.detach(a));
    EXPECT_FALSE(registry.detach(a));
    EXPECT_EQ(registry.attachedCount(), 1u);
    EXPECT_TRUE(registry.active());
    EXPECT_TRUE(registry.detach(c));
    EXPECT_FALSE(registry.active());
}

TEST(ProbeRegistry, FoldSkipsProbesDetachedSinceSnapshot)
{
    obs::ProbeRegistry registry;
    const std::uint32_t gone =
        registry.attach(parse("entry:M.gone"));
    const std::uint32_t kept =
        registry.attach(parse("entry:M.kept"));
    const obs::ProbeRegistry::Snapshot snap = registry.snapshot();

    obs::ProbeBuffers buffers;
    buffers.aggs.resize(2);
    buffers.aggs[0].hits = 7;
    buffers.aggs[1].hits = 9;

    // The engine's snapshot outlives a detach; its buffers for the
    // detached probe are dropped, the survivor's folded.
    ASSERT_TRUE(registry.detach(gone));
    registry.fold(snap, buffers);
    registry.fold(snap, buffers);

    const auto read = registry.read();
    ASSERT_EQ(read.size(), 1u);
    EXPECT_EQ(read[0].first.id, kept);
    EXPECT_EQ(read[0].second.hits, 18u);
}

TEST(ProbeRegistry, WriteJsonIsDeterministic)
{
    const auto document = [] {
        obs::ProbeRegistry registry;
        std::string err;
        EXPECT_TRUE(obs::attachProbeSpecs(
            registry,
            {"entry:Main.isPrime -> quantize(cycles)",
             "exit:Main.* -> sum(refs)",
             "entry:Main.isPrime -> capture(3)"},
            err))
            << err;
        Rig rig(kPrimes, configFor(Impl::Banked, Mode::Threaded));
        obs::ProbeEngine engine(registry.snapshot(), rig.image, "",
                                0);
        rig.machine->setProbeSink(&engine, engine.armedRanges());
        runMain(rig, 80);
        rig.machine->setProbeSink(nullptr);
        engine.finishInto(registry);
        std::ostringstream os;
        registry.writeJson(os, "test_probes");
        return os.str();
    };

    const std::string first = document();
    EXPECT_EQ(first, document());
    EXPECT_NE(first.find("\"schema\": \"fpc-probes-v1\""),
              std::string::npos);
    EXPECT_NE(first.find("\"quantize\""), std::string::npos);
    EXPECT_NE(first.find("\"captures\""), std::string::npos);
}

TEST(ProbeRegistry, GaugesMirrorHitsAndDistributions)
{
    obs::ProbeRegistry registry;
    std::string err;
    ASSERT_TRUE(obs::attachProbeSpecs(
        registry, {"entry:Main.isPrime -> sum(cycles)"}, err))
        << err;
    Rig rig(kPrimes);
    obs::ProbeEngine engine(registry.snapshot(), rig.image, "", 0);
    rig.machine->setProbeSink(&engine, engine.armedRanges());
    runMain(rig, 50);
    rig.machine->setProbeSink(nullptr);
    engine.finishInto(registry);

    std::vector<std::pair<std::string, double>> gauges;
    registry.gauges(gauges);
    bool sawHits = false, sawSum = false;
    for (const auto &[name, value] : gauges) {
        if (name == "probe_0_hits") {
            sawHits = true;
            EXPECT_EQ(value, 48.0);
        }
        if (name == "probe_0_sum") {
            sawSum = true;
            EXPECT_GT(value, 0.0);
        }
    }
    EXPECT_TRUE(sawHits);
    EXPECT_TRUE(sawSum);
}

// ---------------------------------------------------------------------
// BoundaryFanout detach (satellite)
// ---------------------------------------------------------------------

namespace
{

struct CountingBsampler : BoundarySampler
{
    std::size_t fires = 0;
    void
    onBoundarySample(const Machine &) override
    {
        ++fires;
    }
};

} // namespace

TEST(BoundaryFanout, RemoveDetachesOneTargetAndKeepsTheRest)
{
    obs::BoundaryFanout fan;
    CountingBsampler fine;
    CountingBsampler coarse;
    fan.add(&fine, 500);
    fan.add(&coarse, 5000);
    ASSERT_EQ(fan.size(), 2u);

    fan.remove(&coarse);
    EXPECT_EQ(fan.size(), 1u);
    EXPECT_FALSE(fan.empty());
    EXPECT_EQ(fan.machineInterval(), 500);

    // Removing an unknown target is a no-op.
    fan.remove(&coarse);
    EXPECT_EQ(fan.size(), 1u);

    Rig rig(kPrimes, configFor(Impl::Banked, Mode::Threaded));
    rig.machine->setBoundarySampler(&fan, fan.machineInterval());
    runMain(rig, 300);
    EXPECT_GT(fine.fires, 20u);
    EXPECT_EQ(coarse.fires, 0u); // detached targets never fire

    fan.remove(&fine);
    EXPECT_TRUE(fan.empty());
    EXPECT_EQ(fan.machineInterval(), 0);
}

// ---------------------------------------------------------------------
// SampledProfile::merge edge cases (satellite)
// ---------------------------------------------------------------------

TEST(SampledProfile, MergeDisjointProcedureSets)
{
    obs::SampledProfile a;
    a.samples["Main.f"] = 12;
    a.total = 12;
    a.recorded = 12;

    obs::SampledProfile b;
    b.samples["Main.g"] = 4;
    b.samples["Main.h"] = 4;
    b.total = 8;
    b.recorded = 8;

    a.merge(b);
    EXPECT_EQ(a.samples.size(), 3u);
    EXPECT_EQ(a.total, 20);
    EXPECT_EQ(a.samples.at("Main.f"), 12);
    EXPECT_EQ(a.samples.at("Main.g"), 4);
}

TEST(SampledProfile, MergeEmptyOperandIsIdentity)
{
    obs::SampledProfile a;
    a.samples["Main.f"] = 5;
    a.total = 5;
    a.recorded = 7;
    a.dropped = 2;

    a.merge(obs::SampledProfile{});
    EXPECT_EQ(a.samples.size(), 1u);
    EXPECT_EQ(a.total, 5);
    EXPECT_EQ(a.recorded, 7);
    EXPECT_EQ(a.dropped, 2);

    // And merging into an empty profile copies the operand.
    obs::SampledProfile empty;
    empty.merge(a);
    EXPECT_EQ(empty.total, 5);
    EXPECT_EQ(empty.samples.at("Main.f"), 5);
}

TEST(SampledProfile, MergeThenShareUsesCombinedTotal)
{
    obs::SampledProfile a;
    a.samples["Main.f"] = 6;
    a.total = 6;
    obs::SampledProfile b;
    b.samples["Main.f"] = 2;
    b.samples["Main.g"] = 8;
    b.total = 10;

    a.merge(b);
    EXPECT_DOUBLE_EQ(a.share("Main.f"), 0.5);
    EXPECT_DOUBLE_EQ(a.share("Main.g"), 0.5);
    EXPECT_DOUBLE_EQ(a.share("Main.h"), 0.0);
}
