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
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "sched/runtime.hh"
#include "serve/drain.hh"
#include "stats/table.hh"
#include "workload/synthetic.hh"

#include "cli.hh"

using namespace fpc;

namespace
{

struct Options : cli::Common
{
    std::string file;
    std::vector<Word> args;
    unsigned jobs = 16;
    bool synthetic = false;
    unsigned depth = 8; ///< synthetic entry argument
};

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    opt.workers = 4;
    cli::Parser p(argv[0], {"[options] <file.mm> [int args...]",
                            "[options] --synthetic"});
    p.add({"--jobs", "M", "jobs to run (default 16)", cli::number(opt.jobs)});
    p.add({"--synthetic", "", "generate one program per job",
           cli::set(opt.synthetic)});
    p.add({"--depth", "N", "synthetic recursion depth (default 8)",
           cli::number(opt.depth)});
    cli::addGroups(p, opt,
                   cli::Workers | cli::Machine | cli::Entry | cli::Observe |
                       cli::Reports | cli::Postmortem | cli::Spans |
                       cli::LogLevel);
    const std::vector<std::string> positional = p.parse(argc, argv);
    if (positional.empty() && !opt.synthetic)
        p.usage();
    if (!positional.empty())
        opt.file = positional.front();
    opt.args = p.words(positional, 1);
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

    cli::printTransfers(std::cout, s);
    if (s.preemptions > 0)
        std::cout << "preemptions: " << s.preemptions << "\n";
    runtime.stats().dump(std::cout);
}

} // namespace

int
main(int argc, char **argv)
try {
    const Options opt = parseArgs(argc, argv);

    sched::RuntimeConfig rc = cli::runtimeConfig(opt);
    rc.driver = "fpcrun";
    obs::ProbeRegistry probes;
    rc.probes = cli::attachProbes("fpcrun", opt, probes);
    cli::warnIfForcedEager("fpcrun", opt);
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

    cli::Program program;
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
        program = cli::compileFile(opt.file, opt.entryModule);
        for (unsigned j = 0; j < opt.jobs; ++j)
            runtime.submit({program.modules, program.entryModule,
                            opt.entryProc, opt.args});
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
    if (opt.accelStats)
        cli::printAccelStats(std::cout, "host acceleration (merged)",
                             runtime.accelStats(),
                             opt.machine.accel.enabled);

    cli::writeReports("fpcrun", opt, "merged ", runtime, probes);
    cli::writeFile(opt.statsJson, [&](std::ostream &os) {
        obs::StatsExport exp = cli::statsExport("fpcrun", opt, runtime);
        exp.workers = runtime.workers();
        exp.groups.push_back(&runtime.stats());
        obs::writeStatsJson(os, exp);
    });
    if (spans) {
        const auto faults = obs::checkSpans(*spans);
        if (!faults.empty())
            warn("fpcrun: span checker found {} fault(s)",
                 faults.size());
        cli::writeFile(opt.spansOut, [&](std::ostream &os) {
            obs::writeSpansLog(os, "fpcrun", *spans);
        });
    }
    if (!opt.recordOut.empty()) {
        const replay::RecordLog log =
            cli::writeRecording(opt, program, opt.args, runtime);
        inform("fpcrun: recorded {} job(s) to {}", log.jobs.size(),
               opt.recordOut);
    }
    return failed == 0 ? 0 : 1;
} catch (const std::exception &err) {
    error("fpcrun: {}", err.what());
    return 1;
}
