/**
 * @file
 * fpcreplay — deterministic record/replay driver.
 *
 *   fpcreplay record prog.mm 20 --out=run.fpcr      # capture a run
 *   fpcreplay verify run.fpcr                       # re-run + check
 *   fpcreplay verify run.fpcr --accel=off           # accel contract
 *   fpcreplay diverge run.fpcr --engine=I2          # cross-engine
 *
 * record runs a MiniMesa program as fpcvm does, a one-job batch on a
 * one-worker sched::Runtime, and writes an fpc-record-v1 log: the
 * machine configuration, the embedded source, every scheduler
 * decision, periodic FNV-1a state digests, and the final state. verify re-executes from the log,
 * forcing the recorded decisions, and cross-checks every digest; on
 * mismatch it reports the first divergent interval, bisects it at
 * per-XFER granularity, and (with --postmortem-dir=) writes an
 * extended fpc-postmortem-v1 divergence bundle. diverge replays the
 * recording on a second engine and compares architectural digests
 * after every transfer — the paper's engine-equivalence claim as an
 * executable check.
 */

#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "machine/digest.hh"
#include "replay/record.hh"
#include "replay/replayer.hh"
#include "sched/runtime.hh"

#include "cli.hh"

using namespace fpc;

namespace
{

struct Options : cli::Common
{
    std::string command; ///< record | verify | diverge
    std::string file;    ///< .mm for record, .fpcr otherwise
    std::vector<Word> args;
    std::optional<Impl> engine; ///< diverge: the other engine
};

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    opt.recordOut = "run.fpcr";
    cli::Parser p(argv[0],
                  {"record <file.mm> [int args...] [options]",
                   "verify <run.fpcr> [options]",
                   "diverge <run.fpcr> --engine=ENGINE [options]"},
                  "record takes the machine flags, --entry, --out, "
                  "--interval and\n--postmortem-dir, for a bundle if "
                  "the program fails. verify takes\n--accel, to force "
                  "the host backend (the digests must not care), and\n"
                  "--postmortem-dir, for a divergence bundle. diverge "
                  "takes --engine.\n");
    p.add({"--out", "FILE", "recording path (default run.fpcr)",
           cli::text(opt.recordOut)});
    p.add({"--interval", "N", "cycles between state digests (default "
           "10000)", cli::number(opt.metricsInterval)});
    p.add({"--engine", "I1|I2|I3|I4", "the engine to compare against",
           cli::choice(opt.engine, cli::engines())});
    cli::addGroups(p, opt,
                   cli::Machine | cli::Entry | cli::Postmortem |
                       cli::LogLevel);
    const std::vector<std::string> positional = p.parse(argc, argv);
    if (positional.size() < 2)
        p.usage();
    opt.command = positional[0];
    opt.file = positional[1];
    opt.args = p.words(positional, 2);
    if (opt.command != "record" && opt.command != "verify" &&
        opt.command != "diverge")
        p.usage();
    if (opt.command == "diverge" && !opt.engine)
        p.usage();
    return opt;
}

int
doRecord(const Options &opt)
{
    const cli::Program program = cli::compileFile(opt.file, opt.entryModule);
    sched::RuntimeConfig rc = cli::runtimeConfig(opt);
    rc.driver = "fpcreplay";
    sched::Runtime runtime(rc);
    runtime.submit({program.modules, program.entryModule, opt.entryProc,
                    opt.args});
    const sched::JobResult result = runtime.run().front();
    if (runtime.jobRecords().front().final.reason.empty()) {
        // The job never ran (say, no such --entry): nothing to record.
        error("fpcreplay: {}", result.error);
        return 1;
    }

    const replay::RecordLog log =
        cli::writeRecording(opt, program, opt.args, runtime);
    const replay::JobRecord &job = log.jobs.front();
    std::cout << "recorded " << opt.file << " -> " << opt.recordOut
              << " (" << stopReasonName(result.reason) << ", "
              << job.final.steps << " steps, " << job.samples.size()
              << " digests, " << job.decisions.size()
              << " decisions)\n";
    return 0;
}

replay::RecordLog
loadRecord(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("fpcreplay: cannot open {}", path);
    return replay::parseRecord(in);
}

int
doVerify(const Options &opt)
{
    replay::Replayer replayer(loadRecord(opt.file));

    replay::VerifyOptions vo;
    if (opt.accelGiven)
        vo.accelOverride = opt.machine.accel.enabled;
    vo.divergenceDir = opt.postmortemDir;
    const replay::VerifyResult result = replayer.verify(vo);

    if (result.ok) {
        std::cout << "verify OK: " << result.jobsChecked << " job(s), "
                  << result.samplesChecked << " digest(s) matched on "
                  << implName(replayer.log().impl) << "\n";
        return 0;
    }
    if (result.divergence) {
        const replay::Divergence &d = *result.divergence;
        error("fpcreplay: divergence: {}", d.detail);
        if (!d.bundlePath.empty())
            inform("divergence bundle written to {}", d.bundlePath);
    }
    if (result.decisionOverrun)
        error("fpcreplay: scheduler decisions did not match the "
              "recording");
    return 1;
}

int
doDiverge(const Options &opt)
{
    replay::Replayer replayer(loadRecord(opt.file));
    const Impl base = replayer.log().impl;
    const replay::DivergeResult result = replayer.diverge(*opt.engine);

    if (result.equivalent) {
        std::cout << "engines equivalent: " << implName(base) << " vs "
                  << implName(*opt.engine) << ", "
                  << result.xfersCompared
                  << " transfers, identical architectural digests\n";
        return 0;
    }
    if (result.countMismatch) {
        std::cout << "engines diverge: transfer counts differ after "
                  << result.xfersCompared << " matching transfers\n";
    } else {
        std::cout << "engines diverge at transfer "
                  << result.xferIndex << " (step " << result.step
                  << "): " << implName(base) << " "
                  << replay::digestHex(result.baseDigest) << " vs "
                  << implName(*opt.engine) << " "
                  << replay::digestHex(result.otherDigest) << "\n";
    }
    return 1;
}

} // namespace

int
main(int argc, char **argv)
try {
    const Options opt = parseArgs(argc, argv);
    if (opt.command == "record")
        return doRecord(opt);
    if (opt.command == "verify")
        return doVerify(opt);
    return doDiverge(opt);
} catch (const std::exception &err) {
    error("fpcreplay: {}", err.what());
    return 1;
}
