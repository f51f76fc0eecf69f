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
 *
 * The program runs as a one-job batch on a one-worker sched::Runtime,
 * the same path every fpcrun and fpcserve job takes.
 */

#include <iostream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "isa/disasm.hh"
#include "sched/runtime.hh"

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
dumpStats(const sched::Runtime &runtime, const MachineConfig &config)
{
    const MachineStats &s = runtime.machineStats();
    std::cout << "\n--- statistics ---\n"
              << "instructions: " << s.steps
              << "   cycles: " << s.cycles
              << "   storage refs: " << runtime.memoryStats().totalRefs
              << "\n";

    cli::printTransfers(std::cout, s);
    if (config.impl == Impl::Banked) {
        std::cout << "bank overflows: " << s.bankOverflows
                  << "   underflows: " << s.bankUnderflows
                  << "   fast frame allocs: " << s.fastFrameAllocs
                  << "/" << s.fastFrameAllocs + s.slowFrameAllocs
                  << "\n";
    }
    if (config.impl == Impl::Ifu || config.impl == Impl::Banked) {
        std::cout << "return stack hits: " << s.returnStackHits
                  << "   misses: " << s.returnStackMisses
                  << "   spills: " << s.returnStackSpills << "\n";
    }
    if (config.timesliceSteps > 0) {
        std::cout << "timeslice: " << config.timesliceSteps
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
    if (opt.disasm) {
        Memory mem(SystemLayout().memWords);
        dumpDisassembly(program.load(mem, opt.plan), mem);
    }

    sched::RuntimeConfig rc = cli::runtimeConfig(opt);
    rc.driver = "fpcvm";
    obs::ProbeRegistry probes;
    rc.probes = cli::attachProbes("fpcvm", opt, probes);
    sched::Runtime runtime(rc);
    runtime.submit({program.modules, program.entryModule, opt.entryProc,
                    opt.args});
    const sched::JobResult result = runtime.run().front();

    for (const Word v : result.output)
        std::cout << static_cast<SWord>(v) << "\n";

    int exit_code = 0;
    if (result.reason == StopReason::TopReturn) {
        std::cout << "=> " << static_cast<SWord>(result.value) << "\n";
    } else if (result.reason != StopReason::Halted) {
        error("fpcvm: {}: {}", stopReasonName(result.reason),
              result.error);
        exit_code = 1;
    }

    if (opt.stats)
        dumpStats(runtime, opt.machine);
    if (opt.accelStats)
        cli::printAccelStats(std::cout, "host acceleration",
                             runtime.accelStats(),
                             opt.machine.accel.enabled);

    // Artifacts are written even when the program stopped on an error:
    // a trace of a failing run is the one you want to look at.
    cli::writeReports("fpcvm", opt, "", runtime, probes);
    cli::writeFile(opt.statsJson, [&](std::ostream &os) {
        obs::StatsExport exp = cli::statsExport("fpcvm", opt, runtime);
        exp.stopReason = stopReasonName(result.reason);
        obs::writeStatsJson(os, exp);
    });
    cli::writeRecording(opt, program, opt.args, runtime);
    return exit_code;
} catch (const std::exception &err) {
    error("fpcvm: {}", err.what());
    return 1;
}
