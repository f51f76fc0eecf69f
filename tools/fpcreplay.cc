/**
 * @file
 * fpcreplay — deterministic record/replay driver.
 *
 *   fpcreplay record prog.mm 20 --out=run.fpcr      # capture a run
 *   fpcreplay verify run.fpcr                       # re-run + check
 *   fpcreplay verify run.fpcr --accel=off           # accel contract
 *   fpcreplay diverge run.fpcr --engine=I2          # cross-engine
 *
 * record executes a MiniMesa program exactly like fpcvm would and
 * streams an fpc-record-v1 log: the machine configuration, the
 * embedded source, every scheduler decision, periodic FNV-1a state
 * digests, and the final state. verify re-executes from the log,
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
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "lang/codegen.hh"
#include "machine/digest.hh"
#include "machine/machine.hh"
#include "program/loader.hh"
#include "replay/record.hh"
#include "replay/recorder.hh"
#include "replay/replayer.hh"

using namespace fpc;

namespace
{

struct Options
{
    std::string command; ///< record | verify | diverge
    std::string file;    ///< .mm for record, .fpcr otherwise
    std::vector<Word> args;
    std::string out = "run.fpcr";
    Impl impl = Impl::Mesa;
    CallLowering lowering = CallLowering::Mesa;
    bool shortCalls = false;
    unsigned banks = 4;
    std::uint64_t timeslice = 0;
    bool accel = true; ///< threaded backend; false runs eager
    std::optional<bool> accelOverride; ///< verify: force the backend
    Tick interval = 10000;
    std::string entryModule;
    std::string entryProc = "main";
    std::string postmortemDir;
    std::optional<Impl> engine; ///< diverge: the other engine
};

void
printUsage(std::ostream &os, const char *argv0)
{
    os << "usage: " << argv0
       << " record <file.mm> [int args...] [options]\n"
          "       "
       << argv0
       << " verify <run.fpcr> [options]\n"
          "       "
       << argv0
       << " diverge <run.fpcr> --engine=ENGINE [options]\n"
          "record options:\n"
          "  --out=FILE                      recording path (default "
          "run.fpcr)\n"
          "  --impl=simple|mesa|ifu|banked   machine (default mesa)\n"
          "  --linkage=fat|mesa|direct       binding (default mesa)\n"
          "  --short-calls                   use SHORTDIRECTCALL\n"
          "  --banks=N                       register banks (I4)\n"
          "  --timeslice=N                   preempt every N "
          "instructions\n"
          "  --interval=N                    cycles between state "
          "digests (default 10000)\n"
          "  --entry=Mod.proc                entry point\n"
          "verify options:\n"
          "  --accel=off|threaded            force the host backend "
          "(digests must not care)\n"
          "  --postmortem-dir=DIR            write a divergence bundle "
          "on mismatch\n"
          "diverge options:\n"
          "  --engine=I1|I2|I3|I4            the engine to compare "
          "against\n"
          "common options:\n"
          "  --log-level=error|warn|info|debug  stderr verbosity "
          "(default info)\n"
          "  --help                          show this help\n";
}

[[noreturn]] void
usage(const char *argv0)
{
    printUsage(std::cerr, argv0);
    std::exit(2);
}

Impl
parseEngine(const std::string &v, const char *argv0)
{
    if (v == "I1" || v == "i1" || v == "simple")
        return Impl::Simple;
    if (v == "I2" || v == "i2" || v == "mesa")
        return Impl::Mesa;
    if (v == "I3" || v == "i3" || v == "ifu")
        return Impl::Ifu;
    if (v == "I4" || v == "i4" || v == "banked")
        return Impl::Banked;
    usage(argv0);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const std::string &prefix) {
            return arg.substr(prefix.size());
        };
        if (arg.rfind("--out=", 0) == 0) {
            opt.out = value("--out=");
        } else if (arg.rfind("--impl=", 0) == 0) {
            opt.impl = parseEngine(value("--impl="), argv[0]);
        } else if (arg.rfind("--linkage=", 0) == 0) {
            opt.lowering =
                replay::parseLoweringToken(value("--linkage="));
        } else if (arg == "--short-calls") {
            opt.shortCalls = true;
        } else if (arg.rfind("--banks=", 0) == 0) {
            opt.banks = std::stoul(value("--banks="));
        } else if (arg.rfind("--timeslice=", 0) == 0) {
            opt.timeslice = std::stoull(value("--timeslice="));
        } else if (arg.rfind("--interval=", 0) == 0) {
            opt.interval = std::stoull(value("--interval="));
        } else if (arg.rfind("--entry=", 0) == 0) {
            const std::string v = value("--entry=");
            const auto dot = v.find('.');
            if (dot == std::string::npos)
                usage(argv[0]);
            opt.entryModule = v.substr(0, dot);
            opt.entryProc = v.substr(dot + 1);
        } else if (arg.rfind("--accel=", 0) == 0) {
            const std::string v = value("--accel=");
            if (v != "off" && v != "threaded")
                usage(argv[0]);
            opt.accel = v == "threaded";
            opt.accelOverride = opt.accel;
        } else if (arg.rfind("--postmortem-dir=", 0) == 0) {
            opt.postmortemDir = value("--postmortem-dir=");
        } else if (arg.rfind("--engine=", 0) == 0) {
            opt.engine = parseEngine(value("--engine="), argv[0]);
        } else if (arg.rfind("--log-level=", 0) == 0) {
            LogLevel level;
            if (!parseLogLevel(value("--log-level="), level))
                usage(argv[0]);
            setLogLevel(level);
        } else if (arg == "--help") {
            printUsage(std::cout, argv[0]);
            std::exit(0);
        } else if (arg.rfind("--", 0) == 0) {
            usage(argv[0]);
        } else if (opt.command.empty()) {
            opt.command = arg;
        } else if (opt.file.empty()) {
            opt.file = arg;
        } else {
            opt.args.push_back(
                static_cast<Word>(std::stol(arg) & 0xFFFF));
        }
    }
    if (opt.command.empty() || opt.file.empty())
        usage(argv[0]);
    if (opt.command != "record" && opt.command != "verify" &&
        opt.command != "diverge")
        usage(argv[0]);
    if (opt.command == "diverge" && !opt.engine)
        usage(argv[0]);
    return opt;
}

int
doRecord(const Options &opt)
{
    std::ifstream in(opt.file);
    if (!in) {
        error("fpcreplay: cannot open {}", opt.file);
        return 1;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string source = buffer.str();

    const auto modules = lang::compile(source);
    std::string entry = opt.entryModule;
    if (entry.empty()) {
        entry = modules.front().name;
        for (const auto &m : modules)
            if (m.name == "Main")
                entry = "Main";
    }

    const SystemLayout layout;
    Memory mem(layout.memWords);
    Loader loader{layout, SizeClasses::standard()};
    for (const auto &m : modules)
        loader.add(m);
    LinkPlan plan;
    plan.lowering = opt.lowering;
    plan.shortCalls = opt.shortCalls;
    const LoadedImage image = loader.load(mem, plan);

    replay::RecordLog log;
    log.impl = opt.impl;
    log.lowering = opt.lowering;
    log.shortCalls = opt.shortCalls;
    log.banks = opt.banks;
    log.timeslice = opt.timeslice;
    log.accel = opt.accel;
    log.interval = opt.interval;
    log.workers = 1;
    log.stride = 1;
    log.imageHash = replay::imageHash(mem, image);
    log.entryModule = entry;
    log.entryProc = opt.entryProc;
    log.args = opt.args;
    log.source = source;

    MachineConfig config;
    config.impl = opt.impl;
    config.numBanks = opt.banks;
    config.timesliceSteps = opt.timeslice;
    config.accel.enabled = opt.accel;
    Machine machine(mem, image, config);

    replay::Recorder recorder;
    recorder.beginJob(0, 0);
    machine.setSampler(&recorder, opt.interval);
    if (opt.timeslice > 0) {
        machine.setScheduler(recorder.wrapPolicy(
            [](Machine &m) { return m.currentFrameContext(); }));
    }

    machine.start(entry, opt.entryProc, opt.args);
    recorder.sample(machine);
    const RunResult result = machine.run();
    recorder.finish(machine, result);
    log.jobs.push_back(recorder.takeJob());

    std::ofstream os(opt.out);
    if (!os) {
        error("fpcreplay: cannot write {}", opt.out);
        return 1;
    }
    replay::writeRecord(os, log);
    const replay::JobRecord &job = log.jobs.front();
    std::cout << "recorded " << opt.file << " -> " << opt.out << " ("
              << stopReasonName(result.reason) << ", "
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
    vo.accelOverride = opt.accelOverride;
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
