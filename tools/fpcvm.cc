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

#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "isa/disasm.hh"
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

#include "cli.hh"

using namespace fpc;

namespace
{

struct Options : cli::Common
{
    std::string file;
    std::vector<Word> args;
    bool disasm = false;
};

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    cli::Parser p(argv[0], {"[options] <file.mm> [int args...]"});
    p.add({"--disasm", "", "dump the loaded code", cli::set(opt.disasm)});
    cli::addGroups(p, opt,
                   cli::Machine | cli::Entry | cli::Observe | cli::Reports |
                       cli::Postmortem | cli::LogLevel);
    const std::vector<std::string> positional = p.parse(argc, argv);
    if (positional.empty())
        p.usage();
    opt.file = positional.front();
    opt.args = p.words(positional, 1);
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

    cli::printTransfers(std::cout, s);
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

} // namespace

int
main(int argc, char **argv)
try {
    const Options opt = parseArgs(argc, argv);

    const cli::Program program = cli::compileFile(opt.file, opt.entryModule);

    Memory mem(SystemLayout().memWords);
    const LoadedImage image = program.load(mem, opt.plan);
    // Hash before the Machine exists: its FrameHeap constructor
    // rewrites the AV, and replay hashes at this same point.
    const std::uint64_t imageHash = opt.recordOut.empty()
                                        ? 0
                                        : replay::imageHash(mem, image);

    if (opt.disasm)
        dumpDisassembly(image, mem);

    const MachineConfig &config = opt.machine;
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

    const bool telemetryWanted =
        opt.metricsWanted() || !opt.postmortemDir.empty();
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

    cli::warnIfForcedEager("fpcvm", opt);

    // Dynamic probes: zero simulated cost and accel-safe (only the
    // armed procedures deoptimize), so they are deliberately absent
    // from Common::forcesEager.
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

    if (config.timesliceSteps > 0) {
        // Single program, so every expired slice switches the process
        // to itself — still a full ProcSwitch XFER through the engine.
        Machine::Scheduler policy =
            [](Machine &m) { return m.currentFrameContext(); };
        if (!opt.recordOut.empty())
            policy = replayRec.wrapPolicy(std::move(policy));
        machine.setScheduler(std::move(policy));
    }
    machine.start(program.entryModule, opt.entryProc, opt.args);
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
        cli::printAccelStats(std::cout, "host acceleration",
                             machine.accelStats(), machine.accelEnabled(),
                             machine.threadedActive());

    // Artifacts are written even when the program stopped on an error:
    // a trace of a failing run is the one you want to look at.
    cli::writeFile(opt.traceOut, [&](std::ostream &os) {
        obs::writeChromeTrace(os, tracer);
        if (tracer.dropped() > 0)
            warn("fpcvm: trace ring dropped {} of {} events (raise "
                 "--trace-capacity)",
                 tracer.dropped(), tracer.recorded());
    });
    {
        std::optional<obs::ProfileData> exact;
        std::optional<obs::SampledProfile> sampled;
        if (profiler)
            exact = profiler->finish(machine.cycles());
        if (sampledProfiler)
            sampled = sampledProfiler->finish();
        cli::printProfiles(opt, "", exact ? &*exact : nullptr,
                           sampled ? &*sampled : nullptr);
    }
    cli::writeFile(opt.probeOut, [&](std::ostream &os) {
        probeRegistry.writeJson(os, "fpcvm");
    });
    cli::writeFile(opt.statsJson, [&](std::ostream &os) {
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
        obs::writeStatsJson(os, exp);
    });
    if (opt.metricsWanted()) {
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
        cli::writeFile(opt.metricsOut, [&](std::ostream &os) {
            obs::writeMetricsJson(os, meta, telemetry);
            if (telemetry.dropped() > 0)
                warn("fpcvm: metrics ring dropped {} of {} samples "
                     "(raise --metrics-capacity)",
                     telemetry.dropped(), telemetry.recorded());
        });
        cli::writeFile(opt.openmetricsOut, [&](std::ostream &os) {
            obs::writeOpenMetrics(os, meta, telemetry);
        });
    }
    if (!opt.recordOut.empty()) {
        replay::RecordLog log = cli::recordHeader(
            opt, opt.metricsInterval, program, opt.args);
        log.imageHash = imageHash;
        log.jobs.push_back(replayRec.takeJob());
        cli::writeFile(opt.recordOut, [&](std::ostream &os) {
            replay::writeRecord(os, log);
        });
    }
    return exit_code;
} catch (const std::exception &err) {
    error("fpcvm: {}", err.what());
    return 1;
}
