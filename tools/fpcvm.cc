/**
 * @file
 * fpcvm — the FPC virtual machine driver.
 *
 * Compiles a MiniMesa source file and runs it on the simulated
 * processor:
 *
 *   fpcvm prog.mm                          # I2/Mesa defaults
 *   fpcvm --impl=banked --linkage=direct --short-calls prog.mm 20 5
 *   fpcvm --stats --disasm prog.mm
 *   fpcvm --trace-out=t.json --profile --stats-json=s.json prog.mm
 *
 * Positional arguments after the file are passed to <entry>(...) as
 * 16-bit integers; the entry point is Main.main or, if there is no
 * module named Main, the first module's "main".
 */

#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "isa/disasm.hh"
#include "lang/codegen.hh"
#include "machine/machine.hh"
#include "obs/fanout.hh"
#include "obs/json.hh"
#include "obs/postmortem.hh"
#include "obs/probes.hh"
#include "obs/profile.hh"
#include "obs/sampled_profile.hh"
#include "obs/telemetry.hh"
#include "obs/trace.hh"
#include "program/loader.hh"
#include "replay/record.hh"
#include "replay/recorder.hh"
#include "stats/table.hh"

using namespace fpc;

namespace
{

struct Options
{
    std::string file;
    std::vector<Word> args;
    Impl impl = Impl::Mesa;
    CallLowering lowering = CallLowering::Mesa;
    bool shortCalls = false;
    bool stats = false;
    bool disasm = false;
    bool accel = true; ///< threaded backend; false runs eager
    bool accelStats = false;
    unsigned banks = 4;
    std::uint64_t timeslice = 0;
    std::string entryModule;
    std::string entryProc = "main";
    std::string traceOut;      ///< Chrome trace JSON path
    std::size_t traceCapacity = obs::Tracer::defaultCapacity;
    bool profile = false;
    unsigned profileTop = 20;
    std::string profileFolded; ///< folded-stacks path (flamegraph.pl)
    bool profileSampled = false;
    Tick sampleInterval = 9973; ///< cycles between boundary samples
    bool telemetrySampled = false;
    std::string statsJson;     ///< "fpc-stats-v1" document path
    std::string metricsOut;    ///< "fpc-metrics-v1" time-series path
    Tick metricsInterval = obs::Telemetry::defaultInterval;
    std::size_t metricsCapacity = obs::Telemetry::defaultCapacity;
    std::string openmetricsOut; ///< OpenMetrics exposition path
    std::string postmortemDir;  ///< bundle directory on error stops
    std::string recordOut;      ///< "fpc-record-v1" recording path
    std::vector<std::string> probeSpecs; ///< --probe= one-liners
    std::string probeOut;       ///< "fpc-probes-v1" document path
};

void
printUsage(std::ostream &os, const char *argv0)
{
    os << "usage: " << argv0
       << " [options] <file.mm> [int args...]\n"
          "  --impl=simple|mesa|ifu|banked   machine (default mesa)\n"
          "  --linkage=fat|mesa|direct       binding (default mesa)\n"
          "  --short-calls                   use SHORTDIRECTCALL\n"
          "  --banks=N                       register banks (I4)\n"
          "  --timeslice=N                   preempt every N "
          "instructions\n"
          "  --entry=Mod.proc                entry point\n"
          "  --stats                         dump machine statistics\n"
          "  --accel=off|threaded            host backend: eager or "
          "threaded-code\n"
          "                                  superblocks (simulated "
          "numbers are identical\n"
          "                                  in both; default "
          "threaded)\n"
          "  --accel-stats                   dump host cache counters\n"
          "  --disasm                        dump the loaded code\n"
          "  --trace-out=FILE                write a Chrome/Perfetto "
          "XFER trace\n"
          "  --trace-capacity=N              trace ring size (default "
       << obs::Tracer::defaultCapacity
       << ")\n"
          "  --profile                       per-procedure cycle "
          "profile\n"
          "  --profile-top=N                 profile rows to print "
          "(default 20)\n"
          "  --profile-folded=FILE           write folded stacks "
          "(flamegraph.pl)\n"
          "  --profile-sampled               sampled (accel-safe) "
          "profile: boundary\n"
          "                                  samples instead of exact "
          "XFER observation,\n"
          "                                  so --accel fast paths "
          "keep running\n"
          "  --sample-interval=N             cycles between boundary "
          "samples (default\n"
          "                                  9973; prime to avoid "
          "loop aliasing)\n"
          "  --telemetry-mode=exact|sampled  exact: cycle-precise "
          "sampler (forces the\n"
          "                                  eager loop; default). "
          "sampled: bounded-slop\n"
          "                                  boundary samples, accel "
          "fast paths kept\n"
          "  --stats-json=FILE               write statistics as JSON\n"
          "  --metrics-out=FILE              write a fpc-metrics-v1 "
          "time series\n"
          "  --metrics-interval=N            cycles between samples "
          "(default "
       << obs::Telemetry::defaultInterval
       << ")\n"
          "  --metrics-capacity=N            metrics ring size "
          "(default "
       << obs::Telemetry::defaultCapacity
       << ")\n"
          "  --openmetrics-out=FILE          write the series as "
          "OpenMetrics text\n"
          "  --postmortem-dir=DIR            write a postmortem bundle "
          "on error stops\n"
          "  --record-out=FILE               write an fpc-record-v1 "
          "recording (fpcreplay)\n"
          "  --probe=SPEC                    attach a dynamic probe "
          "(repeatable); e.g.\n"
          "                                  'entry:Mod.proc"
          "{depth<=4} -> quantize(cycles)'\n"
          "                                  zero simulated cost; "
          "accel backends deopt only\n"
          "                                  the probed procedures\n"
          "  --probe-out=FILE                write probe aggregations "
          "as fpc-probes-v1\n"
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

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const std::string &prefix) {
            return arg.substr(prefix.size());
        };
        if (arg.rfind("--impl=", 0) == 0) {
            const std::string v = value("--impl=");
            if (v == "simple")
                opt.impl = Impl::Simple;
            else if (v == "mesa")
                opt.impl = Impl::Mesa;
            else if (v == "ifu")
                opt.impl = Impl::Ifu;
            else if (v == "banked")
                opt.impl = Impl::Banked;
            else
                usage(argv[0]);
        } else if (arg.rfind("--linkage=", 0) == 0) {
            const std::string v = value("--linkage=");
            if (v == "fat")
                opt.lowering = CallLowering::Fat;
            else if (v == "mesa")
                opt.lowering = CallLowering::Mesa;
            else if (v == "direct")
                opt.lowering = CallLowering::Direct;
            else
                usage(argv[0]);
        } else if (arg == "--short-calls") {
            opt.shortCalls = true;
        } else if (arg.rfind("--banks=", 0) == 0) {
            opt.banks = std::stoul(value("--banks="));
        } else if (arg.rfind("--timeslice=", 0) == 0) {
            opt.timeslice = std::stoull(value("--timeslice="));
        } else if (arg.rfind("--entry=", 0) == 0) {
            const std::string v = value("--entry=");
            const auto dot = v.find('.');
            if (dot == std::string::npos)
                usage(argv[0]);
            opt.entryModule = v.substr(0, dot);
            opt.entryProc = v.substr(dot + 1);
        } else if (arg == "--stats") {
            opt.stats = true;
        } else if (arg.rfind("--accel=", 0) == 0) {
            const std::string v = value("--accel=");
            if (v != "off" && v != "threaded")
                usage(argv[0]);
            opt.accel = v == "threaded";
        } else if (arg == "--accel-stats") {
            opt.accelStats = true;
        } else if (arg == "--disasm") {
            opt.disasm = true;
        } else if (arg.rfind("--trace-out=", 0) == 0) {
            opt.traceOut = value("--trace-out=");
        } else if (arg.rfind("--trace-capacity=", 0) == 0) {
            opt.traceCapacity = std::stoull(value("--trace-capacity="));
        } else if (arg == "--profile") {
            opt.profile = true;
        } else if (arg.rfind("--profile-top=", 0) == 0) {
            opt.profile = true;
            opt.profileTop = std::stoul(value("--profile-top="));
        } else if (arg.rfind("--profile-folded=", 0) == 0) {
            opt.profileFolded = value("--profile-folded=");
        } else if (arg == "--profile-sampled") {
            opt.profileSampled = true;
        } else if (arg.rfind("--sample-interval=", 0) == 0) {
            opt.sampleInterval =
                std::stoull(value("--sample-interval="));
        } else if (arg.rfind("--telemetry-mode=", 0) == 0) {
            const std::string v = value("--telemetry-mode=");
            if (v == "exact")
                opt.telemetrySampled = false;
            else if (v == "sampled")
                opt.telemetrySampled = true;
            else
                usage(argv[0]);
        } else if (arg.rfind("--stats-json=", 0) == 0) {
            opt.statsJson = value("--stats-json=");
        } else if (arg.rfind("--metrics-out=", 0) == 0) {
            opt.metricsOut = value("--metrics-out=");
        } else if (arg.rfind("--metrics-interval=", 0) == 0) {
            opt.metricsInterval =
                std::stoull(value("--metrics-interval="));
        } else if (arg.rfind("--metrics-capacity=", 0) == 0) {
            opt.metricsCapacity =
                std::stoull(value("--metrics-capacity="));
        } else if (arg.rfind("--openmetrics-out=", 0) == 0) {
            opt.openmetricsOut = value("--openmetrics-out=");
        } else if (arg.rfind("--postmortem-dir=", 0) == 0) {
            opt.postmortemDir = value("--postmortem-dir=");
        } else if (arg.rfind("--record-out=", 0) == 0) {
            opt.recordOut = value("--record-out=");
        } else if (arg.rfind("--probe=", 0) == 0) {
            opt.probeSpecs.push_back(value("--probe="));
        } else if (arg.rfind("--probe-out=", 0) == 0) {
            opt.probeOut = value("--probe-out=");
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
        } else if (opt.file.empty()) {
            opt.file = arg;
        } else {
            opt.args.push_back(
                static_cast<Word>(std::stol(arg) & 0xFFFF));
        }
    }
    if (opt.file.empty())
        usage(argv[0]);
    // A folded path alone keeps its historical meaning (exact
    // profile); with --profile-sampled it exports the sampled one.
    if (!opt.profileFolded.empty() && !opt.profileSampled)
        opt.profile = true;
    if (opt.telemetrySampled && !opt.recordOut.empty()) {
        std::cerr << argv[0]
                  << ": --telemetry-mode=sampled cannot be combined "
                     "with --record-out (replay requires the exact "
                     "sampler chain)\n";
        std::exit(2);
    }
    return opt;
}

void
dumpDisassembly(const LoadedImage &image, Memory &mem)
{
    for (const PlacedModule &pm : image.modules()) {
        std::cout << "module " << pm.src->name << "  (code "
                  << pm.segBytes << " bytes, "
                  << callLoweringName(pm.lowering) << " linkage, "
                  << pm.lvCount << " LV slots)\n";
        for (unsigned p = 0; p < pm.procs.size(); ++p) {
            const PlacedProc &pp = pm.procs[p];
            std::cout << "  proc " << pm.src->procs[p].name
                      << "  (fsi " << pp.fsi << ", frame "
                      << image.classes().classWords(pp.fsi)
                      << " words)\n";
            std::vector<std::uint8_t> bytes;
            for (unsigned i = 0; i < pp.bodyBytes; ++i)
                bytes.push_back(mem.peekByte(pp.prologueAddr +
                                             pp.prologueBytes + i));
            for (const auto &line : isa::disassemble(bytes))
                std::cout << "    " << line.offset << ":\t"
                          << line.text << "\n";
        }
    }
}

void
dumpStats(const Machine &machine, const Memory &mem)
{
    const MachineStats &s = machine.stats();
    std::cout << "\n--- statistics ---\n"
              << "instructions: " << s.steps
              << "   cycles: " << s.cycles
              << "   storage refs: " << mem.totalRefs() << "\n";

    stats::Table table({"transfer", "count", "fast", "mean refs",
                        "mean cycles"});
    for (unsigned k = 0; k < MachineStats::numXferKinds; ++k) {
        if (s.xferCount[k] == 0)
            continue;
        table.row(xferKindName(static_cast<XferKind>(k)),
                  s.xferCount[k], s.xferFast[k],
                  stats::fixed(s.xferRefs[k].mean(), 2),
                  stats::fixed(s.xferCycles[k].mean(), 1));
    }
    table.print(std::cout);
    std::cout << "jump-speed calls+returns: "
              << stats::percent(s.fastCallReturnRate()) << "\n";
    if (machine.config().impl == Impl::Banked) {
        std::cout << "bank overflows: " << s.bankOverflows
                  << "   underflows: " << s.bankUnderflows
                  << "   fast frame allocs: " << s.fastFrameAllocs
                  << "/" << s.fastFrameAllocs + s.slowFrameAllocs
                  << "\n";
    }
    if (machine.config().impl == Impl::Ifu ||
        machine.config().impl == Impl::Banked) {
        std::cout << "return stack hits: " << s.returnStackHits
                  << "   misses: " << s.returnStackMisses
                  << "   spills: " << s.returnStackSpills << "\n";
    }
    if (machine.config().timesliceSteps > 0) {
        std::cout << "timeslice: " << machine.config().timesliceSteps
                  << " instructions   preemptions: " << s.preemptions
                  << "\n";
    }
}

void
dumpAccelStats(const Machine &machine)
{
    std::cout << "\n--- host acceleration ---\n";
    if (!machine.accelEnabled()) {
        std::cout << "disabled (--accel=off)\n";
        return;
    }
    const AccelStats a = machine.accelStats();
    std::cout << "icache: " << a.icacheHits << " hits, "
              << a.icacheMisses << " misses ("
              << stats::percent(a.icacheHitRate()) << ")\n"
              << "link cache: " << a.linkHits() << " hits, "
              << a.linkMisses() << " misses ("
              << stats::percent(a.linkHitRate()) << ")\n"
              << "flushes: " << a.codeFlushes << " code, "
              << a.tableFlushes << " link\n";
    if (machine.threadedActive())
        std::cout << "call sites: " << a.callSiteHits << " hits, "
                  << a.callSiteMisses << " misses   return predictions: "
                  << a.returnPredHits << " taken, " << a.returnPredMisses
                  << " missed\n";
    if (a.probeSites != 0 || a.probeEagerSteps != 0)
        std::cout << "probes: " << a.probeSites << " armed sites, "
                  << a.probeDeoptBlocks << " deopt blocks, "
                  << a.probeEagerSteps << " eager steps\n";
}

} // namespace

int
main(int argc, char **argv)
try {
    const Options opt = parseArgs(argc, argv);

    std::ifstream in(opt.file);
    if (!in) {
        error("fpcvm: cannot open {}", opt.file);
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
    // Hash before the Machine exists: its FrameHeap constructor
    // rewrites the AV, and replay hashes at this same point.
    const std::uint64_t imageHash = opt.recordOut.empty()
                                        ? 0
                                        : replay::imageHash(mem, image);

    if (opt.disasm)
        dumpDisassembly(image, mem);

    MachineConfig config;
    config.impl = opt.impl;
    config.numBanks = opt.banks;
    config.timesliceSteps = opt.timeslice;
    config.accel.enabled = opt.accel;
    Machine machine(mem, image, config);

    // Observability: a tracer and/or profiler share the machine's one
    // observer slot through a fanout. Both are free when unused.
    obs::ProcMap procMap;
    obs::Tracer tracer(opt.traceCapacity);
    std::optional<obs::Profiler> profiler;
    obs::Fanout fanout;
    if (!opt.traceOut.empty()) {
        procMap = obs::ProcMap(image);
        tracer.setProcMap(&procMap);
        fanout.add(&tracer);
    }
    if (opt.profile) {
        profiler.emplace(image);
        fanout.add(&*profiler);
    }
    obs::FlightRecorder recorder;
    if (!opt.postmortemDir.empty())
        fanout.add(&recorder);
    if (!fanout.empty())
        machine.setObserver(&fanout);

    const bool metricsWanted =
        !opt.metricsOut.empty() || !opt.openmetricsOut.empty();
    const bool telemetryWanted =
        metricsWanted || !opt.postmortemDir.empty();
    obs::Telemetry telemetry(opt.metricsCapacity);
    // The replay recorder takes the machine's one sampler slot and
    // chains the telemetry sampler behind it, so both fire on the
    // same simulated-cycle boundaries.
    replay::Recorder replayRec;
    if (!opt.recordOut.empty()) {
        replayRec.beginJob(0, 0);
        if (telemetryWanted)
            replayRec.setNext(&telemetry);
        machine.setSampler(&replayRec, opt.metricsInterval);
    } else if (telemetryWanted && !opt.telemetrySampled) {
        machine.setSampler(&telemetry, opt.metricsInterval);
    }

    // Sampled (accel-safe) observability rides the boundary-sample
    // slot: the accel fast paths keep running and sample stamps obey
    // the bounded-slop contract (machine/machine.hh).
    std::optional<obs::SampledProfiler> sampledProfiler;
    obs::BoundaryFanout boundaryFan;
    if (opt.profileSampled) {
        sampledProfiler.emplace(image);
        boundaryFan.add(&*sampledProfiler, opt.sampleInterval);
    }
    if (telemetryWanted && opt.telemetrySampled)
        boundaryFan.add(&telemetry, opt.metricsInterval);
    if (!boundaryFan.empty())
        machine.setBoundarySampler(&boundaryFan,
                                   boundaryFan.machineInterval());

    // Exact observation forces the eager loop: say so once, up
    // front, rather than letting an accelerated run silently lose
    // its speedup.
    const bool forcesEager =
        !opt.traceOut.empty() || opt.profile ||
        !opt.postmortemDir.empty() || !opt.recordOut.empty() ||
        (telemetryWanted && !opt.telemetrySampled);
    if (opt.accel && forcesEager) {
        warn("fpcvm: exact observation (--profile/--trace-out/"
             "--record-out/--postmortem-dir/exact metrics) forces the "
             "eager loop; --accel=threaded keeps only its predecoded "
             "instruction cache and XFER link caches. "
             "Use --profile-sampled / --telemetry-mode=sampled to keep "
             "the fast path");
    }

    // Dynamic probes: zero simulated cost and accel-safe (only the
    // armed procedures deoptimize), so they are deliberately absent
    // from forcesEager above.
    obs::ProbeRegistry probeRegistry;
    std::optional<obs::ProbeEngine> probeEngine;
    if (!opt.probeSpecs.empty()) {
        std::string perr;
        if (!obs::attachProbeSpecs(probeRegistry, opt.probeSpecs,
                                   perr)) {
            error("fpcvm: {}", perr);
            return 2;
        }
        probeEngine.emplace(probeRegistry.snapshot(), image,
                            "default", 0);
        machine.setProbeSink(&*probeEngine,
                             probeEngine->armedRanges());
    }

    if (opt.timeslice > 0) {
        // Single program, so every expired slice switches the process
        // to itself — still a full ProcSwitch XFER through the engine.
        Machine::Scheduler policy =
            [](Machine &m) { return m.currentFrameContext(); };
        if (!opt.recordOut.empty())
            policy = replayRec.wrapPolicy(std::move(policy));
        machine.setScheduler(std::move(policy));
    }
    machine.start(entry, opt.entryProc, opt.args);
    // Bracket the run: even programs shorter than one interval export
    // a start and a final point.
    if (!opt.recordOut.empty())
        replayRec.sample(machine);
    if (telemetryWanted)
        telemetry.sample(machine);
    const RunResult result = machine.run();
    if (!opt.recordOut.empty())
        replayRec.finish(machine, result); // before popValue below
    if (telemetryWanted)
        telemetry.sample(machine);

    if (probeEngine) {
        machine.setProbeSink(nullptr);
        probeEngine->finishInto(probeRegistry);
    }

    for (const Word v : machine.output())
        std::cout << static_cast<SWord>(v) << "\n";

    int exit_code = 0;
    if (result.reason == StopReason::TopReturn) {
        std::cout << "=> "
                  << static_cast<SWord>(machine.popValue()) << "\n";
    } else if (result.reason != StopReason::Halted) {
        error("fpcvm: {}: {}", stopReasonName(result.reason),
              result.message);
        exit_code = 1;
        if (!opt.postmortemDir.empty()) {
            obs::PostmortemConfig pm;
            pm.dir = opt.postmortemDir;
            pm.driver = "fpcvm";
            pm.impl = implName(config.impl);
            if (obs::writePostmortem(pm, machine, result, image,
                                     recorder, &telemetry)) {
                inform("fpcvm: postmortem bundle written to {}",
                       opt.postmortemDir);
            }
        }
    }

    if (opt.stats)
        dumpStats(machine, mem);
    if (opt.accelStats)
        dumpAccelStats(machine);

    // Artifacts are written even when the program stopped on an error:
    // a trace of a failing run is the one you want to look at.
    if (!opt.traceOut.empty()) {
        std::ofstream out(opt.traceOut);
        if (!out) {
            error("fpcvm: cannot write {}", opt.traceOut);
            return 1;
        }
        obs::writeChromeTrace(out, tracer);
        if (tracer.dropped() > 0)
            warn("fpcvm: trace ring dropped {} of {} events (raise "
                 "--trace-capacity)",
                 tracer.dropped(), tracer.recorded());
    }
    if (profiler) {
        const obs::ProfileData data =
            profiler->finish(machine.cycles());
        std::cout << "\n--- profile (top " << opt.profileTop
                  << " by exclusive cycles) ---\n";
        data.topTable(opt.profileTop).print(std::cout);
        if (!opt.profileFolded.empty()) {
            std::ofstream out(opt.profileFolded);
            if (!out) {
                error("fpcvm: cannot write {}", opt.profileFolded);
                return 1;
            }
            data.writeFolded(out);
        }
    }
    if (sampledProfiler) {
        const obs::SampledProfile data = sampledProfiler->finish();
        std::cout << "\n--- sampled profile (top " << opt.profileTop
                  << " by samples, interval " << opt.sampleInterval
                  << " cycles) ---\n";
        data.topTable(opt.profileTop).print(std::cout);
        if (!opt.profileFolded.empty() && !opt.profile) {
            std::ofstream out(opt.profileFolded);
            if (!out) {
                error("fpcvm: cannot write {}", opt.profileFolded);
                return 1;
            }
            data.writeFolded(out);
        }
    }
    if (!opt.probeOut.empty()) {
        std::ofstream out(opt.probeOut);
        if (!out) {
            error("fpcvm: cannot write {}", opt.probeOut);
            return 1;
        }
        probeRegistry.writeJson(out, "fpcvm");
    }
    if (!opt.statsJson.empty()) {
        std::ofstream out(opt.statsJson);
        if (!out) {
            error("fpcvm: cannot write {}", opt.statsJson);
            return 1;
        }
        obs::StatsExport exp;
        exp.driver = "fpcvm";
        exp.impl = implName(config.impl);
        exp.stopReason = stopReasonName(result.reason);
        exp.machine = &machine.stats();
        exp.memory = &mem;
        exp.heap = &machine.heap().stats();
        exp.cache = machine.dataCache();
        // Host counters only on request: the default document must be
        // byte-identical with acceleration on or off.
        AccelStats accel_counters;
        if (opt.accelStats) {
            accel_counters = machine.accelStats();
            exp.accel = &accel_counters;
        }
        obs::writeStatsJson(out, exp);
    }
    if (metricsWanted) {
        obs::MetricsExport meta;
        meta.driver = "fpcvm";
        meta.impl = implName(config.impl);
        meta.interval = opt.metricsInterval;
        // Host hit rates only on request, like --accel-stats: the
        // default series must be byte-identical with
        // --accel=off|threaded.
        // Sampled series are not byte-identical across the switch
        // anyway (their purpose is observing accelerated runs), so
        // there the accel gauges flow by default.
        meta.includeAccel = opt.accelStats || opt.telemetrySampled;
        if (!opt.metricsOut.empty()) {
            std::ofstream out(opt.metricsOut);
            if (!out) {
                error("fpcvm: cannot write {}", opt.metricsOut);
                return 1;
            }
            obs::writeMetricsJson(out, meta, telemetry);
            if (telemetry.dropped() > 0)
                warn("fpcvm: metrics ring dropped {} of {} samples "
                     "(raise --metrics-capacity)",
                     telemetry.dropped(), telemetry.recorded());
        }
        if (!opt.openmetricsOut.empty()) {
            std::ofstream out(opt.openmetricsOut);
            if (!out) {
                error("fpcvm: cannot write {}", opt.openmetricsOut);
                return 1;
            }
            obs::writeOpenMetrics(out, meta, telemetry);
        }
    }
    if (!opt.recordOut.empty()) {
        replay::RecordLog log;
        log.impl = opt.impl;
        log.lowering = opt.lowering;
        log.shortCalls = opt.shortCalls;
        log.banks = opt.banks;
        log.timeslice = opt.timeslice;
        log.accel = opt.accel;
        log.interval = opt.metricsInterval;
        log.workers = 1;
        log.stride = 1;
        log.imageHash = imageHash;
        log.entryModule = entry;
        log.entryProc = opt.entryProc;
        log.args = opt.args;
        log.source = source;
        log.jobs.push_back(replayRec.takeJob());
        std::ofstream out(opt.recordOut);
        if (!out) {
            error("fpcvm: cannot write {}", opt.recordOut);
            return 1;
        }
        replay::writeRecord(out, log);
    }
    return exit_code;
} catch (const std::exception &err) {
    error("fpcvm: {}", err.what());
    return 1;
}
