/**
 * @file
 * fpcrun — the FPC batch driver: many jobs, many workers.
 *
 * Where fpcvm runs one program and exits, fpcrun feeds a pool of OS
 * worker threads (each owning an independent simulated Machine) from
 * a shared job queue and reports throughput plus the merged machine
 * statistics:
 *
 *   fpcrun --workers=4 --jobs=64 prog.mm 200       # 64 runs of prog
 *   fpcrun --workers=8 --jobs=32 --impl=banked --linkage=direct \
 *          --timeslice=1000 --stats prog.mm
 *   fpcrun --workers=4 --jobs=16 --synthetic --depth=9
 *
 * With --synthetic, each job runs a generated multi-module program
 * (seeded per job, so the pool sees varied call graphs) instead of a
 * compiled file. With --timeslice=N, every worker's machine preempts
 * its program every N instructions through the full ProcSwitch XFER
 * path, so throughput includes the paper's §7.1 fallback costs.
 */

#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "lang/codegen.hh"
#include "obs/json.hh"
#include "obs/probes.hh"
#include "replay/record.hh"
#include "sched/runtime.hh"
#include "serve/drain.hh"
#include "stats/table.hh"
#include "workload/synthetic.hh"

using namespace fpc;

namespace
{

struct Options
{
    std::string file;
    std::vector<Word> args;
    unsigned workers = 4;
    unsigned jobs = 16;
    Impl impl = Impl::Mesa;
    CallLowering lowering = CallLowering::Mesa;
    bool shortCalls = false;
    bool stats = false;
    bool accel = true;
    bool threaded = false;
    bool accelStats = false;
    bool synthetic = false;
    unsigned depth = 8; ///< synthetic entry argument
    std::uint64_t timeslice = 0;
    unsigned banks = 4;
    std::string entryModule;
    std::string entryProc = "main";
    std::string traceOut;      ///< multi-worker Chrome trace path
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
    std::string postmortemDir;  ///< per-failed-job bundle directory
    std::string recordOut;      ///< "fpc-record-v1" recording path
    std::string spansOut;       ///< "fpc-spans-v1" span log path
    std::vector<std::string> probeSpecs; ///< --probe= (repeatable)
    std::string probeOut;       ///< "fpc-probes-v1" document path
};

void
printUsage(std::ostream &os, const char *argv0)
{
    os << "usage: " << argv0
       << " [options] <file.mm> [int args...]\n"
          "       " << argv0 << " [options] --synthetic\n"
          "  --workers=N                     worker threads (default 4)\n"
          "  --jobs=M                        jobs to run (default 16)\n"
          "  --impl=simple|mesa|ifu|banked   machine (default mesa)\n"
          "  --linkage=fat|mesa|direct       binding (default mesa)\n"
          "  --short-calls                   use SHORTDIRECTCALL\n"
          "  --banks=N                       register banks (I4)\n"
          "  --timeslice=N                   preempt every N instructions\n"
          "  --synthetic                     generate one program per job\n"
          "  --depth=N                       synthetic recursion depth\n"
          "  --entry=Mod.proc                entry point\n"
          "  --stats                         dump merged statistics\n"
          "  --accel=on|off|threaded         host backend: burst, off, "
          "or threaded-code\n"
          "                                  superblocks (simulated "
          "numbers are identical\n"
          "                                  in every mode; default "
          "on)\n"
          "  --accel-stats                   dump merged host cache "
          "counters\n"
          "  --trace-out=FILE                write a Chrome/Perfetto "
          "trace, one track per worker\n"
          "  --trace-capacity=N              per-worker trace ring size "
          "(default "
       << obs::Tracer::defaultCapacity
       << ")\n"
          "  --profile                       merged per-procedure "
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
          "  --stats-json=FILE               write merged statistics "
          "as JSON\n"
          "  --metrics-out=FILE              write a fpc-metrics-v1 "
          "series per worker\n"
          "  --metrics-interval=N            cycles between samples "
          "(default "
       << obs::Telemetry::defaultInterval
       << ")\n"
          "  --metrics-capacity=N            per-worker metrics ring "
          "size (default "
       << obs::Telemetry::defaultCapacity
       << ")\n"
          "  --openmetrics-out=FILE          write the series as "
          "OpenMetrics text\n"
          "  --postmortem-dir=DIR            write a bundle per failed "
          "job\n"
          "  --record-out=FILE               write an fpc-record-v1 "
          "recording of every job\n"
          "  --spans-out=FILE                write per-job host-time "
          "spans as fpc-spans-v1\n"
          "  --probe=SPEC                    attach a dynamic probe "
          "(repeatable); e.g.\n"
          "                                  'entry:Mod.proc"
          "{depth<=4} -> quantize(cycles)'\n"
          "                                  zero simulated cost; "
          "accel backends deopt\n"
          "                                  only the probed "
          "procedures\n"
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
        if (arg.rfind("--workers=", 0) == 0) {
            opt.workers = std::stoul(value("--workers="));
        } else if (arg.rfind("--jobs=", 0) == 0) {
            opt.jobs = std::stoul(value("--jobs="));
        } else if (arg.rfind("--impl=", 0) == 0) {
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
        } else if (arg == "--synthetic") {
            opt.synthetic = true;
        } else if (arg.rfind("--depth=", 0) == 0) {
            opt.depth = std::stoul(value("--depth="));
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
            if (v == "on") {
                opt.accel = true;
            } else if (v == "off") {
                opt.accel = false;
            } else if (v == "threaded") {
                if (!Machine::threadedSupported()) {
                    std::cerr << argv[0]
                              << ": --accel=threaded is not supported "
                                 "by this build (needs the computed-"
                                 "goto extension)\n";
                    std::exit(2);
                }
                opt.accel = true;
                opt.threaded = true;
            } else {
                usage(argv[0]);
            }
        } else if (arg == "--accel-stats") {
            opt.accelStats = true;
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
        } else if (arg.rfind("--spans-out=", 0) == 0) {
            opt.spansOut = value("--spans-out=");
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
    if (opt.file.empty() && !opt.synthetic)
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
dumpMergedStats(const sched::Runtime &runtime)
{
    const MachineStats &s = runtime.machineStats();
    std::cout << "\n--- merged statistics (" << runtime.workers()
              << " workers) ---\n"
              << "instructions: " << s.steps
              << "   simulated cycles: " << s.cycles << "\n";

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
    if (s.preemptions > 0)
        std::cout << "preemptions: " << s.preemptions << "\n";
    runtime.stats().dump(std::cout);
}

} // namespace

int
main(int argc, char **argv)
try {
    const Options opt = parseArgs(argc, argv);

    sched::RuntimeConfig rc;
    rc.workers = opt.workers;
    rc.machine.impl = opt.impl;
    rc.machine.numBanks = opt.banks;
    rc.machine.timesliceSteps = opt.timeslice;
    rc.machine.accel.enabled = opt.accel;
    rc.machine.accel.threaded = opt.threaded;
    rc.plan.lowering = opt.lowering;
    rc.plan.shortCalls = opt.shortCalls;
    rc.trace = !opt.traceOut.empty();
    rc.traceCapacity = opt.traceCapacity;
    rc.profile = opt.profile;
    rc.profileSampled = opt.profileSampled;
    rc.sampleInterval = opt.sampleInterval;
    rc.metrics =
        !opt.metricsOut.empty() || !opt.openmetricsOut.empty();
    rc.metricsInterval = opt.metricsInterval;
    rc.metricsCapacity = opt.metricsCapacity;
    rc.metricsSampled = opt.telemetrySampled;
    rc.postmortemDir = opt.postmortemDir;
    rc.record = !opt.recordOut.empty();
    rc.driver = "fpcrun";

    // Dynamic probes ride the selective-deopt path: only superblocks
    // covering a probed procedure fall back to the eager loop, so
    // probes are deliberately absent from the forcesEager warning
    // below.
    obs::ProbeRegistry probeRegistry;
    if (!opt.probeSpecs.empty()) {
        std::string perr;
        if (!obs::attachProbeSpecs(probeRegistry, opt.probeSpecs,
                                   perr)) {
            error("fpcrun: {}", perr);
            return 2;
        }
        rc.probes = &probeRegistry;
    }

    // Exact observation forces every worker's eager loop: say so
    // once, up front, rather than letting an accelerated run
    // silently lose its speedup.
    const bool forcesEager =
        rc.trace || rc.profile || rc.record ||
        !rc.postmortemDir.empty() || (rc.metrics && !rc.metricsSampled);
    if (opt.accel && forcesEager) {
        warn("fpcrun: exact observation (--profile/--trace-out/"
             "--record-out/--postmortem-dir/exact metrics) forces the "
             "eager loop; --accel={} keeps only its XFER caches. Use "
             "--profile-sampled / --telemetry-mode=sampled to keep "
             "the fast path",
             opt.threaded ? "threaded" : "on");
    }
    // Batch spans: the runtime synthesizes request ⊃ queued ⊃ execute
    // trees per job (host time only — simulated numbers untouched).
    std::unique_ptr<obs::SpanCollector> spans;
    if (!opt.spansOut.empty()) {
        spans = std::make_unique<obs::SpanCollector>();
        rc.spans = spans.get();
    }
    if (rc.record && opt.synthetic)
        fatal("--record-out= needs a compiled program; --synthetic "
              "jobs have no source to embed");
    // Graceful shutdown: SIGINT/SIGTERM let running jobs finish,
    // cancel the rest, and still emit every requested export below.
    serve::DrainSignal drain;
    rc.stopFlag = &drain.flag();
    sched::Runtime runtime(rc);

    std::string source;
    std::string entry = opt.entryModule;
    if (opt.synthetic) {
        for (unsigned j = 0; j < opt.jobs; ++j) {
            ProgramConfig pc;
            pc.seed = j + 1;
            auto modules =
                std::make_shared<const std::vector<Module>>(
                    generateProgram(pc));
            runtime.submit({modules, generatedEntryModule(),
                            generatedEntryProc(),
                            {static_cast<Word>(opt.depth)}});
        }
    } else {
        std::ifstream in(opt.file);
        if (!in) {
            error("fpcrun: cannot open {}", opt.file);
            return 1;
        }
        std::stringstream buffer;
        buffer << in.rdbuf();
        source = buffer.str();
        auto modules = std::make_shared<const std::vector<Module>>(
            lang::compile(source));

        if (entry.empty()) {
            entry = modules->front().name;
            for (const auto &m : *modules)
                if (m.name == "Main")
                    entry = "Main";
        }
        for (unsigned j = 0; j < opt.jobs; ++j)
            runtime.submit({modules, entry, opt.entryProc, opt.args});
    }

    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<sched::JobResult> results = runtime.run();
    const auto t1 = std::chrono::steady_clock::now();
    const double secs =
        std::chrono::duration<double>(t1 - t0).count();

    unsigned ok = 0, failed = 0, canceled = 0;
    for (const sched::JobResult &r : results) {
        if (r.ok) {
            ++ok;
        } else if (drain.requested() &&
                   r.error == "canceled: drain requested") {
            ++canceled;
        } else {
            ++failed;
            error("fpcrun: job {} failed ({}): {}", r.id,
                  stopReasonName(r.reason), r.error);
        }
    }
    if (drain.requested())
        inform("fpcrun: drained after signal; {} job(s) canceled, "
               "exports still written",
               canceled);

    std::cout << ok << "/" << results.size() << " jobs ok, "
              << runtime.workers() << " workers, " << stats::fixed(secs, 3)
              << " s wall, "
              << stats::fixed(results.size() / std::max(secs, 1e-9), 1)
              << " jobs/s\n";
    if (!results.empty() && results.front().ok && !opt.synthetic)
        std::cout << "=> " << static_cast<SWord>(results.front().value)
                  << "\n";

    if (opt.stats)
        dumpMergedStats(runtime);
    if (opt.accelStats) {
        const AccelStats &a = runtime.accelStats();
        std::cout << "\n--- host acceleration (merged) ---\n";
        if (!opt.accel) {
            std::cout << "disabled (--accel=off)\n";
        } else {
            std::cout << "icache: " << a.icacheHits << " hits, "
                      << a.icacheMisses << " misses ("
                      << stats::percent(a.icacheHitRate()) << ")\n"
                      << "link cache: " << a.linkHits() << " hits, "
                      << a.linkMisses() << " misses ("
                      << stats::percent(a.linkHitRate()) << ")\n"
                      << "flushes: " << a.codeFlushes << " code, "
                      << a.tableFlushes << " link\n"
                      << "call sites: " << a.callSiteHits << " hits, "
                      << a.callSiteMisses
                      << " misses   return predictions: "
                      << a.returnPredHits << " taken, "
                      << a.returnPredMisses << " missed\n";
            if (a.probeSites != 0 || a.probeEagerSteps != 0)
                std::cout << "probes: " << a.probeSites
                          << " armed sites, " << a.probeDeoptBlocks
                          << " deopt blocks, " << a.probeEagerSteps
                          << " eager steps\n";
        }
    }

    if (!opt.traceOut.empty()) {
        std::ofstream out(opt.traceOut);
        if (!out) {
            error("fpcrun: cannot write {}", opt.traceOut);
            return 1;
        }
        runtime.writeTrace(out);
    }
    if (opt.profile) {
        const obs::ProfileData &data = runtime.profile();
        std::cout << "\n--- merged profile (top " << opt.profileTop
                  << " by exclusive cycles) ---\n";
        data.topTable(opt.profileTop).print(std::cout);
        if (!opt.profileFolded.empty()) {
            std::ofstream out(opt.profileFolded);
            if (!out) {
                error("fpcrun: cannot write {}", opt.profileFolded);
                return 1;
            }
            data.writeFolded(out);
        }
    }
    if (opt.profileSampled) {
        const obs::SampledProfile &data = runtime.sampledProfile();
        std::cout << "\n--- merged sampled profile (top "
                  << opt.profileTop << " by samples, interval "
                  << opt.sampleInterval << " cycles) ---\n";
        data.topTable(opt.profileTop).print(std::cout);
        if (!opt.profileFolded.empty() && !opt.profile) {
            std::ofstream out(opt.profileFolded);
            if (!out) {
                error("fpcrun: cannot write {}", opt.profileFolded);
                return 1;
            }
            data.writeFolded(out);
        }
    }
    if (!opt.statsJson.empty()) {
        std::ofstream out(opt.statsJson);
        if (!out) {
            error("fpcrun: cannot write {}", opt.statsJson);
            return 1;
        }
        obs::StatsExport exp;
        exp.driver = "fpcrun";
        exp.impl = implName(rc.machine.impl);
        exp.workers = runtime.workers();
        exp.machine = &runtime.machineStats();
        exp.groups.push_back(&runtime.stats());
        // Host counters only on request: the default document must be
        // byte-identical with acceleration on or off.
        if (opt.accelStats)
            exp.accel = &runtime.accelStats();
        obs::writeStatsJson(out, exp);
    }
    if (!opt.metricsOut.empty()) {
        std::ofstream out(opt.metricsOut);
        if (!out) {
            error("fpcrun: cannot write {}", opt.metricsOut);
            return 1;
        }
        runtime.writeMetricsJson(out);
    }
    if (!opt.openmetricsOut.empty()) {
        std::ofstream out(opt.openmetricsOut);
        if (!out) {
            error("fpcrun: cannot write {}", opt.openmetricsOut);
            return 1;
        }
        runtime.writeOpenMetrics(out);
    }
    if (spans) {
        const auto faults = obs::checkSpans(*spans);
        if (!faults.empty())
            warn("fpcrun: span checker found {} fault(s)",
                 faults.size());
        std::ofstream out(opt.spansOut);
        if (!out) {
            error("fpcrun: cannot write {}", opt.spansOut);
            return 1;
        }
        obs::writeSpansLog(out, "fpcrun", *spans);
    }
    if (!opt.probeOut.empty()) {
        std::ofstream out(opt.probeOut);
        if (!out) {
            error("fpcrun: cannot write {}", opt.probeOut);
            return 1;
        }
        probeRegistry.writeJson(out, "fpcrun");
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
        log.workers = runtime.workers();
        log.stride = runtime.stride();
        log.imageHash = runtime.recordedImageHash();
        log.entryModule = entry;
        log.entryProc = opt.entryProc;
        log.args = opt.args;
        log.source = source;
        log.jobs = runtime.jobRecords();
        std::ofstream out(opt.recordOut);
        if (!out) {
            error("fpcrun: cannot write {}", opt.recordOut);
            return 1;
        }
        replay::writeRecord(out, log);
        inform("fpcrun: recorded {} job(s) to {}", log.jobs.size(),
               opt.recordOut);
    }
    return failed == 0 ? 0 : 1;
} catch (const std::exception &err) {
    error("fpcrun: {}", err.what());
    return 1;
}
