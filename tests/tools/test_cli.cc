/**
 * @file
 * The drivers' option table (tools/cli.hh): checked values, the
 * shared engine and linkage tables, duplicate registration, the
 * generated help, and the RuntimeConfig and forced-eager rule the
 * flags imply.
 *
 * Values that would ask a driver for billions of threads, jobs or
 * banks (--workers=-1 and friends) are tested here, through the
 * parser, and never by running a driver.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "cli.hh"
#include "common/logging.hh"

using namespace fpc;
using Status = cli::Parser::Status;

namespace
{

/** A parser with every shared group, as the drivers build theirs. */
struct Rig
{
    cli::Common c;
    unsigned jobs = 16;
    double defaultWeight = 1;
    cli::Parser p{"fpctest", {"[options] <file.mm> [int args...]"}};
    std::vector<std::string> positional;
    std::string why;

    Rig()
    {
        c.workers = 4;
        p.add({"--jobs", "M", "jobs to run", cli::number(jobs)});
        p.add({"--default-weight", "W", "DRR weight",
               [this](const std::string &v) {
                   return cli::parsePositive(v, defaultWeight);
               }});
        cli::addGroups(p, c, ~0u);
    }

    Status parse(std::vector<std::string> args)
    {
        positional.clear();
        why.clear();
        return p.parse(args, positional, why);
    }
};

TEST(CliValues, TrailingGarbageIsRejected)
{
    Rig r;
    EXPECT_EQ(r.parse({"--banks=4x"}), Status::Bad);
    EXPECT_EQ(r.parse({"--jobs=2x"}), Status::Bad);
    EXPECT_EQ(r.parse({"--banks=abc"}), Status::Bad);
    EXPECT_EQ(r.parse({"--banks= 4"}), Status::Bad);
    EXPECT_EQ(r.parse({"--banks="}), Status::Bad);
    EXPECT_EQ(r.c.machine.numBanks, 4u);
    EXPECT_EQ(r.jobs, 16u);
}

TEST(CliValues, SignsAreRejected)
{
    Rig r;
    EXPECT_EQ(r.parse({"--timeslice=-5"}), Status::Bad);
    EXPECT_EQ(r.parse({"--timeslice=+5"}), Status::Bad);
    EXPECT_EQ(r.parse({"--workers=-1"}), Status::Bad);
    EXPECT_EQ(r.parse({"--jobs=-1"}), Status::Bad);
    EXPECT_EQ(r.parse({"--banks=-1"}), Status::Bad);
    EXPECT_EQ(r.c.machine.timesliceSteps, 0u);
    EXPECT_EQ(r.c.workers, 4u);
    EXPECT_EQ(r.jobs, 16u);
    EXPECT_EQ(r.c.machine.numBanks, 4u);
}

TEST(CliValues, ValueMustFitTheField)
{
    Rig r;
    EXPECT_EQ(r.parse({"--port=70000"}), Status::Bad);
    EXPECT_EQ(r.parse({"--port=65536"}), Status::Bad);
    EXPECT_EQ(r.c.port, 0u);
    EXPECT_EQ(r.parse({"--port=65535"}), Status::Ok);
    EXPECT_EQ(r.c.port, 65535u);
    EXPECT_EQ(r.parse({"--banks=4294967296"}), Status::Bad);
    EXPECT_EQ(r.parse({"--timeslice=18446744073709551615"}), Status::Ok);
    EXPECT_EQ(r.c.machine.timesliceSteps, 18446744073709551615ull);
    EXPECT_EQ(r.parse({"--timeslice=18446744073709551616"}), Status::Bad);
}

TEST(CliValues, WellFormedValuesLand)
{
    Rig r;
    ASSERT_EQ(r.parse({"--banks=8", "--jobs=3", "--timeslice=100",
                       "--workers=2", "--short-calls", "--accel=off"}),
              Status::Ok);
    EXPECT_EQ(r.c.machine.numBanks, 8u);
    EXPECT_EQ(r.jobs, 3u);
    EXPECT_EQ(r.c.machine.timesliceSteps, 100u);
    EXPECT_EQ(r.c.workers, 2u);
    EXPECT_TRUE(r.c.plan.shortCalls);
    EXPECT_FALSE(r.c.machine.accel.enabled);
    EXPECT_TRUE(r.c.accelGiven);
}

TEST(CliValues, WeightsMustBePositive)
{
    Rig r;
    EXPECT_EQ(r.parse({"--default-weight=-1"}), Status::Bad);
    EXPECT_EQ(r.parse({"--default-weight=0"}), Status::Bad);
    EXPECT_EQ(r.parse({"--default-weight=2x"}), Status::Bad);
    EXPECT_EQ(r.parse({"--default-weight=inf"}), Status::Bad);
    EXPECT_EQ(r.defaultWeight, 1.0);
    EXPECT_EQ(r.parse({"--default-weight=2.5"}), Status::Ok);
    EXPECT_EQ(r.defaultWeight, 2.5);
}

TEST(CliValues, ProgramArguments)
{
    Word w = 0;
    EXPECT_TRUE(cli::parseWord("60", w));
    EXPECT_EQ(w, 60);
    EXPECT_TRUE(cli::parseWord("-3", w));
    EXPECT_EQ(w, 0xFFFD);
    EXPECT_TRUE(cli::parseWord("-32768", w));
    EXPECT_EQ(w, 0x8000);
    EXPECT_TRUE(cli::parseWord("65535", w));
    EXPECT_EQ(w, 0xFFFF);
    for (const char *bad : {"abc", "", "-", "+5", "4x", "65536", "-32769"})
        EXPECT_FALSE(cli::parseWord(bad, w)) << bad;
}

TEST(CliTables, EveryEngineSpellingEveryDriverAccepts)
{
    const std::pair<const char *, Impl> cases[] = {
        {"simple", Impl::Simple}, {"mesa", Impl::Mesa},
        {"ifu", Impl::Ifu},       {"banked", Impl::Banked},
        {"I1", Impl::Simple},     {"I2", Impl::Mesa},
        {"I3", Impl::Ifu},        {"I4", Impl::Banked},
        {"i1", Impl::Simple},     {"i4", Impl::Banked},
    };
    for (const auto &[spelling, impl] : cases) {
        Rig r;
        ASSERT_EQ(r.parse({std::string("--impl=") + spelling}), Status::Ok)
            << spelling;
        EXPECT_EQ(r.c.machine.impl, impl) << spelling;
    }
}

TEST(CliTables, BogusEngineAndLinkageAreBothUsageErrors)
{
    Rig r;
    EXPECT_EQ(r.parse({"--impl=bogus"}), Status::Bad);
    EXPECT_EQ(r.parse({"--linkage=bogus"}), Status::Bad);
    EXPECT_EQ(r.parse({"--accel=on"}), Status::Bad);
    EXPECT_EQ(r.parse({"--telemetry-mode=bogus"}), Status::Bad);
    ASSERT_EQ(r.parse({"--linkage=direct"}), Status::Ok);
    EXPECT_EQ(r.c.plan.lowering, CallLowering::Direct);
}

TEST(CliParser, FlagShapes)
{
    Rig r;
    EXPECT_EQ(r.parse({"--short-calls=1"}), Status::Bad);
    EXPECT_EQ(r.parse({"--banks"}), Status::Bad);
    EXPECT_EQ(r.parse({"--no-such-flag"}), Status::Bad);
    EXPECT_EQ(r.parse({"--entry=nodot"}), Status::Bad);
    EXPECT_EQ(r.parse({"--"}), Status::Bad);
    EXPECT_EQ(r.parse({"--help", "--banks=4x"}), Status::Help);
    EXPECT_EQ(r.parse({"--banks=4x", "--help"}), Status::Bad);
}

TEST(CliParser, PositionalsInterleaveWithFlags)
{
    Rig r;
    ASSERT_EQ(r.parse({"record", "prog.mm", "--probe=a", "20", "-3",
                       "--probe=b", "--entry=Mod.go"}),
              Status::Ok);
    EXPECT_EQ(r.positional,
              (std::vector<std::string>{"record", "prog.mm", "20", "-3"}));
    EXPECT_EQ(r.c.probeSpecs, (std::vector<std::string>{"a", "b"}));
    EXPECT_EQ(r.c.entryModule, "Mod");
    EXPECT_EQ(r.c.entryProc, "go");
}

TEST(CliParser, ChecksRunAfterEveryFlag)
{
    Rig r;
    EXPECT_EQ(r.parse({"--record-out=r.fpcr", "--telemetry-mode=sampled"}),
              Status::Bad);
    EXPECT_NE(r.why.find("--record-out"), std::string::npos);

    // The exact profiler is an observer: it runs on the threaded loop.
    Rig folded;
    ASSERT_EQ(folded.parse({"--profile-folded=f.txt"}), Status::Ok);
    EXPECT_TRUE(folded.c.profile);
    EXPECT_FALSE(folded.c.forcesEager());

    Rig traced;
    ASSERT_EQ(traced.parse({"--trace-out=t.json"}), Status::Ok);
    EXPECT_FALSE(traced.c.forcesEager());

    // A postmortem bundle's telemetry is an exact sampler unless
    // sampled.
    Rig bundle;
    ASSERT_EQ(bundle.parse({"--postmortem-dir=pm"}), Status::Ok);
    EXPECT_TRUE(bundle.c.forcesEager());
    Rig sampledBundle;
    ASSERT_EQ(sampledBundle.parse({"--postmortem-dir=pm",
                                   "--telemetry-mode=sampled"}),
              Status::Ok);
    EXPECT_FALSE(sampledBundle.c.forcesEager());

    Rig sampled;
    ASSERT_EQ(sampled.parse({"--profile-folded=f.txt", "--profile-sampled"}),
              Status::Ok);
    EXPECT_FALSE(sampled.c.profile);
    EXPECT_FALSE(sampled.c.forcesEager());
}

TEST(CliParser, DuplicateNamePanics)
{
    setQuiet(true);
    Rig r;
    bool b = false;
    EXPECT_THROW(r.p.add({"--banks", "", "", cli::set(b)}), PanicError);
    EXPECT_THROW(r.p.add({"--help", "", "", cli::set(b)}), PanicError);

    cli::Parser p{"fpctest", {""}};
    cli::Common c;
    cli::addGroups(p, c, cli::Machine);
    EXPECT_THROW(cli::addGroups(p, c, cli::Machine), PanicError);
    setQuiet(false);
}

TEST(CliParser, HelpListsEveryFlagOnce)
{
    Rig r;
    std::ostringstream os;
    r.p.printHelp(os);
    const std::string help = os.str();
    for (const char *flag : {"--jobs=M", "--impl=simple|mesa|ifu|banked",
                             "--short-calls", "--workers=N", "--help"}) {
        const auto at = help.find(std::string("\n  ") + flag);
        ASSERT_NE(at, std::string::npos) << flag;
        EXPECT_EQ(help.find(std::string("\n  ") + flag, at + 1),
                  std::string::npos)
            << flag;
    }
    // Defaults come from the preset destination.
    EXPECT_NE(help.find("worker threads (default 4)"), std::string::npos);
    EXPECT_EQ(help.rfind("usage: fpctest ", 0), 0u);
}

} // namespace

TEST(CliReports, ProfileTopSetsOnlyTheRowCount)
{
    // The row count must not attach the exact profiler: that would
    // print a second table and drop a sampled run to the eager loop.
    Rig r;
    ASSERT_EQ(r.parse({"--profile-sampled", "--profile-top=3"}),
              Status::Ok);
    EXPECT_EQ(r.c.profileTop, 3u);
    EXPECT_TRUE(r.c.profileSampled);
    EXPECT_FALSE(r.c.profile);
    EXPECT_FALSE(r.c.forcesEager());
    EXPECT_FALSE(cli::runtimeConfig(r.c).profile);
}

TEST(CliReports, PreemptionForcesTheEagerLoop)
{
    // Machine::run() steps every preemptible job eagerly, so the
    // forced-eager warning must cover --timeslice.
    Rig r;
    ASSERT_EQ(r.parse({"--timeslice=1000"}), Status::Ok);
    EXPECT_TRUE(r.c.forcesEager());
    Rig plain;
    ASSERT_EQ(plain.parse({}), Status::Ok);
    EXPECT_FALSE(plain.c.forcesEager());
}

TEST(CliReports, RuntimeConfigFollowsTheFlags)
{
    Rig r;
    ASSERT_EQ(r.parse({"--workers=3", "--impl=I4", "--linkage=direct",
                       "--timeslice=500", "--trace-out=t.json",
                       "--trace-capacity=64", "--profile",
                       "--postmortem-dir=pm", "--record-out=r.fpcr",
                       "--metrics-interval=700"}),
              Status::Ok);
    const sched::RuntimeConfig rc = cli::runtimeConfig(r.c);
    EXPECT_EQ(rc.workers, 3u);
    EXPECT_EQ(rc.machine.impl, Impl::Banked);
    EXPECT_EQ(rc.machine.timesliceSteps, 500u);
    EXPECT_EQ(rc.plan.lowering, CallLowering::Direct);
    EXPECT_TRUE(rc.trace);
    EXPECT_EQ(rc.traceCapacity, 64u);
    EXPECT_TRUE(rc.profile);
    EXPECT_FALSE(rc.profileSampled);
    EXPECT_EQ(rc.postmortemDir, "pm");
    EXPECT_TRUE(rc.record);
    EXPECT_EQ(rc.metricsInterval, 700u);
    // A postmortem bundle carries the final telemetry sample.
    EXPECT_TRUE(rc.metrics);
    EXPECT_FALSE(rc.metricsSampled);

    Rig bare;
    ASSERT_EQ(bare.parse({}), Status::Ok);
    const sched::RuntimeConfig none = cli::runtimeConfig(bare.c);
    EXPECT_FALSE(none.trace || none.profile || none.metrics ||
                 none.record || !none.postmortemDir.empty());
}
