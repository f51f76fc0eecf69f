#include "cli.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "common/logging.hh"
#include "lang/codegen.hh"
#include "machine/machine.hh"
#include "obs/profile.hh"
#include "obs/sampled_profile.hh"
#include "stats/table.hh"

namespace fpc::cli
{

namespace
{

/** Every parser takes --help; it is printed last. */
const Flag helpFlag{"--help", "", "show this help", {}};

/** The flag column of --help: two spaces, then the flag, padded. */
constexpr std::size_t helpColumn = 34;
constexpr std::size_t helpWidth = 79;

void
printFlag(std::ostream &os, const Flag &f)
{
    std::string line = "  " + f.name;
    if (!f.metavar.empty())
        line += "=" + f.metavar;
    line.resize(std::max(line.size() + 2, helpColumn), ' ');
    std::istringstream words(f.help);
    bool fresh = true; // no word on this line yet
    for (std::string word; words >> word; fresh = false) {
        if (!fresh && line.size() + 1 + word.size() > helpWidth) {
            os << line << "\n";
            line.assign(helpColumn, ' ');
        } else if (!fresh) {
            line += ' ';
        }
        line += word;
    }
    os << line << "\n";
}

/** One shared table entry: the group that carries it, and the flag. */
struct GroupFlag
{
    Group group;
    Flag flag;
};

} // namespace

bool
parsePositive(std::string_view text, double &out)
{
    double v = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (text.empty() || ec != std::errc() || ptr != end || !(v > 0) ||
        !std::isfinite(v))
        return false;
    out = v;
    return true;
}

bool
parseWord(std::string_view text, Word &out)
{
    const bool negative = text.starts_with('-');
    std::uint32_t magnitude = 0;
    if (!parseUnsigned(negative ? text.substr(1) : text, magnitude) ||
        magnitude > (negative ? 0x8000u : 0xFFFFu))
        return false;
    out = static_cast<Word>(negative ? 0x10000u - magnitude : magnitude);
    return true;
}

Setter
set(bool &dst)
{
    return [&dst](const std::string &) { return dst = true; };
}

Setter
text(std::string &dst)
{
    return [&dst](const std::string &v) {
        dst = v;
        return true;
    };
}

Setter
append(std::vector<std::string> &dst)
{
    return [&dst](const std::string &v) {
        dst.push_back(v);
        return true;
    };
}

const Choices<Impl> &
engines()
{
    static const Choices<Impl> table = {
        {"simple", Impl::Simple}, {"mesa", Impl::Mesa},
        {"ifu", Impl::Ifu},       {"banked", Impl::Banked},
        {"I1", Impl::Simple},     {"I2", Impl::Mesa},
        {"I3", Impl::Ifu},        {"I4", Impl::Banked},
        {"i1", Impl::Simple},     {"i2", Impl::Mesa},
        {"i3", Impl::Ifu},        {"i4", Impl::Banked},
    };
    return table;
}

const Choices<CallLowering> &
linkages()
{
    static const Choices<CallLowering> table = {
        {"fat", CallLowering::Fat},
        {"mesa", CallLowering::Mesa},
        {"direct", CallLowering::Direct},
    };
    return table;
}

Parser::Parser(std::string prog, std::vector<std::string> synopsis,
               std::string epilog)
    : prog_(std::move(prog)), synopsis_(std::move(synopsis)),
      epilog_(std::move(epilog))
{
}

const Flag *
Parser::find(const std::string &name) const
{
    for (const Flag &f : flags_)
        if (f.name == name)
            return &f;
    return nullptr;
}

void
Parser::add(Flag flag)
{
    if (flag.name == helpFlag.name || find(flag.name))
        panic("cli: flag {} registered twice", flag.name);
    flags_.push_back(std::move(flag));
}

void
Parser::check(std::function<std::string()> fn)
{
    checks_.push_back(std::move(fn));
}

Parser::Status
Parser::parse(const std::vector<std::string> &args,
              std::vector<std::string> &positional, std::string &why) const
{
    for (const std::string &arg : args) {
        if (!arg.starts_with("--")) {
            positional.push_back(arg);
            continue;
        }
        if (arg == helpFlag.name)
            return Status::Help;
        const auto eq = arg.find('=');
        const Flag *f = find(arg.substr(0, eq));
        if (!f) {
            why = "unknown flag " + arg;
            return Status::Bad;
        }
        const bool hasValue = eq != std::string::npos;
        if (hasValue == f->metavar.empty() ||
            !f->set(hasValue ? arg.substr(eq + 1) : std::string())) {
            why = "bad flag " + arg;
            return Status::Bad;
        }
    }
    for (const auto &fn : checks_) {
        why = fn();
        if (!why.empty())
            return Status::Bad;
    }
    return Status::Ok;
}

std::vector<std::string>
Parser::parse(int argc, char **argv) const
{
    std::vector<std::string> positional;
    std::string why;
    switch (parse({argv + 1, argv + argc}, positional, why)) {
    case Status::Help:
        printHelp(std::cout);
        std::exit(0);
    case Status::Bad:
        usage(why);
    case Status::Ok:
        break;
    }
    return positional;
}

std::vector<Word>
Parser::words(const std::vector<std::string> &positional,
              std::size_t first) const
{
    std::vector<Word> out;
    for (std::size_t i = first; i < positional.size(); ++i)
        if (!parseWord(positional[i], out.emplace_back()))
            usage("bad program argument " + positional[i]);
    return out;
}

void
Parser::printHelp(std::ostream &os) const
{
    for (std::size_t i = 0; i < synopsis_.size(); ++i)
        os << (i == 0 ? "usage: " : "       ") << prog_ << " "
           << synopsis_[i] << "\n";
    for (const Flag &f : flags_)
        printFlag(os, f);
    printFlag(os, helpFlag);
    os << epilog_;
}

void
Parser::usage(const std::string &why) const
{
    if (!why.empty())
        std::cerr << prog_ << ": " << why << "\n";
    printHelp(std::cerr);
    std::exit(2);
}

void
addGroups(Parser &p, Common &c, unsigned groups)
{
    const auto dflt = [](auto v) {
        return " (default " + std::to_string(v) + ")";
    };
    const GroupFlag table[] = {
        {Address, {"--host", "ADDR", "server address (default " + c.host +
                   ")", text(c.host)}},
        {Address, {"--port", "N", "server port (fpcprobe: required; "
                   "fpcserve: 0, the default, picks one and prints it)",
                   number(c.port)}},
        {Workers, {"--workers", "N", "worker threads" + dflt(c.workers),
                   number(c.workers)}},
        {Machine, {"--impl", "simple|mesa|ifu|banked", "machine, or "
                   "I1-I4 (default mesa)", choice(c.machine.impl, engines())}},
        {Machine, {"--linkage", "fat|mesa|direct", "binding (default mesa)",
                   choice(c.plan.lowering, linkages())}},
        {Machine, {"--short-calls", "", "use SHORTDIRECTCALL",
                   set(c.plan.shortCalls)}},
        {Machine, {"--banks", "N", "register banks (I4)" +
                   dflt(c.machine.numBanks), number(c.machine.numBanks)}},
        {Machine, {"--timeslice", "N", "preempt every N instructions",
                   number(c.machine.timesliceSteps)}},
        {Machine, {"--accel", "off|threaded", "host backend: eager or "
                   "threaded-code superblocks (simulated numbers are "
                   "identical in both; default threaded)",
                   [&c, pick = choice(c.machine.accel.enabled,
                                      Choices<bool>{{"off", false},
                                                    {"threaded", true}})](
                       const std::string &v) {
                       c.accelGiven = true;
                       return pick(v);
                   }}},
        {Entry, {"--entry", "Mod.proc", "entry point (default Main.main, "
                 "else the first module's main)",
                 [&c](const std::string &v) {
                     const auto dot = v.find('.');
                     if (dot == std::string::npos)
                         return false;
                     c.entryModule = v.substr(0, dot);
                     c.entryProc = v.substr(dot + 1);
                     return true;
                 }}},
        {Reports, {"--stats", "", "dump machine statistics", set(c.stats)}},
        {Reports, {"--accel-stats", "", "dump host cache counters",
                 set(c.accelStats)}},
        {Reports, {"--stats-json", "FILE", "write statistics as JSON",
                 text(c.statsJson)}},
        {Reports, {"--profile", "", "per-procedure cycle profile",
                   set(c.profile)}},
        {Reports, {"--profile-top", "N", "profile rows to print" +
                   dflt(c.profileTop), number(c.profileTop)}},
        {Reports, {"--profile-folded", "FILE", "write folded stacks "
                   "(flamegraph.pl) of the exact profile, or of the "
                   "sampled one with --profile-sampled",
                   text(c.profileFolded)}},
        {Reports, {"--profile-sampled", "", "sampled (accel-safe) "
                   "profile: boundary samples instead of exact XFER "
                   "observation, so the fast paths keep running",
                   set(c.profileSampled)}},
        {Reports, {"--sample-interval", "N", "cycles between boundary "
                   "samples" + dflt(c.sampleInterval) +
                   "; prime to avoid loop aliasing",
                   number(c.sampleInterval)}},
        {Observe, {"--trace-out", "FILE", "write a Chrome/Perfetto XFER "
                 "trace, a track per worker", text(c.traceOut)}},
        {Observe, {"--metrics-out", "FILE", "write a fpc-metrics-v1 time "
                   "series per worker", text(c.metricsOut)}},
        {Observe, {"--metrics-interval", "N", "cycles between samples" +
                   dflt(c.metricsInterval), number(c.metricsInterval)}},
        {Observe, {"--telemetry-mode", "exact|sampled", "exact "
                   "(default; also for the telemetry --postmortem-dir "
                   "adds): samples land at instruction boundaries, "
                   "identical on both backends. sampled: samples land "
                   "at superblock exits, up to one block late, and "
                   "cost less",
                   choice(c.telemetrySampled,
                          Choices<bool>{{"exact", false},
                                        {"sampled", true}})}},
        {Observe, {"--openmetrics-out", "FILE", "write the series as "
                   "OpenMetrics text", text(c.openmetricsOut)}},
        {Reports, {"--trace-capacity", "N", "trace ring size per worker" +
                 dflt(c.traceCapacity), number(c.traceCapacity)}},
        {Reports, {"--metrics-capacity", "N", "metrics ring size per worker" +
                 dflt(c.metricsCapacity), number(c.metricsCapacity)}},
        {Postmortem, {"--postmortem-dir", "DIR", "write a postmortem "
                      "bundle per failed run", text(c.postmortemDir)}},
        {Reports, {"--record-out", "FILE", "write an fpc-record-v1 "
                  "recording of every job (fpcreplay)",
                  text(c.recordOut)}},
        {Spans, {"--spans-out", "FILE", "write request spans as "
                 "fpc-spans-v1", text(c.spansOut)}},
        {Observe, {"--probe", "SPEC", "attach a dynamic probe (repeatable), "
                  "e.g. 'entry:Mod.proc -> count'; zero simulated cost",
                  append(c.probeSpecs)}},
        {Observe, {"--probe-out", "FILE", "write probe aggregations as "
                  "fpc-probes-v1", text(c.probeOut)}},
        {LogLevel, {"--log-level", "error|warn|info|debug",
                    "stderr verbosity (default info)",
                    [](const std::string &v) {
                        fpc::LogLevel level;
                        const bool ok = parseLogLevel(v, level);
                        if (ok)
                            setLogLevel(level);
                        return ok;
                    }}},
    };
    for (const GroupFlag &e : table)
        if (groups & e.group)
            p.add(e.flag);

    p.check([&c]() -> std::string {
        // A folded path alone keeps its historical meaning (exact
        // profile); with --profile-sampled it exports the sampled one.
        if (!c.profileFolded.empty() && !c.profileSampled)
            c.profile = true;
        if (c.telemetrySampled && !c.recordOut.empty())
            return "--telemetry-mode=sampled cannot be combined with "
                   "--record-out (replay requires the exact sampler "
                   "chain)";
        return {};
    });
}

Program
compileFile(const std::string &path, const std::string &entryModule)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot open " + path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    Program prog;
    prog.source = buffer.str();
    prog.modules = std::make_shared<const std::vector<Module>>(
        lang::compile(prog.source));
    prog.entryModule = entryModule;
    if (prog.entryModule.empty()) {
        prog.entryModule = prog.modules->front().name;
        for (const Module &m : *prog.modules)
            if (m.name == "Main")
                prog.entryModule = "Main";
    }
    return prog;
}

LoadedImage
Program::load(Memory &mem, const LinkPlan &plan) const
{
    Loader loader{SystemLayout(), SizeClasses::standard()};
    for (const Module &m : *modules)
        loader.add(m);
    return loader.load(mem, plan);
}

void
writeFile(const std::string &path,
          const std::function<void(std::ostream &)> &write)
{
    if (path.empty())
        return;
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write " + path);
    write(out);
}

sched::RuntimeConfig
runtimeConfig(const Common &c)
{
    sched::RuntimeConfig rc;
    rc.workers = c.workers;
    rc.machine = c.machine;
    rc.plan = c.plan;
    rc.trace = !c.traceOut.empty();
    rc.traceCapacity = c.traceCapacity;
    rc.profile = c.profile;
    rc.profileSampled = c.profileSampled;
    rc.sampleInterval = c.sampleInterval;
    // A postmortem bundle carries the final telemetry sample.
    rc.metrics = c.metricsWanted() || !c.postmortemDir.empty();
    rc.metricsInterval = c.metricsInterval;
    rc.metricsCapacity = c.metricsCapacity;
    rc.metricsSampled = c.telemetrySampled;
    rc.postmortemDir = c.postmortemDir;
    rc.record = !c.recordOut.empty();
    return rc;
}

obs::ProbeRegistry *
attachProbes(const char *driver, const Common &c,
             obs::ProbeRegistry &registry)
{
    if (c.probeSpecs.empty())
        return nullptr;
    std::string why;
    if (!obs::attachProbeSpecs(registry, c.probeSpecs, why)) {
        error("{}: {}", driver, why);
        std::exit(2);
    }
    return &registry;
}

obs::StatsExport
statsExport(const char *driver, const Common &c, const sched::Runtime &rt)
{
    obs::StatsExport exp;
    exp.driver = driver;
    exp.impl = implName(c.machine.impl);
    exp.machine = &rt.machineStats();
    exp.memory = &rt.memoryStats();
    exp.heap = &rt.heapStats();
    // Host counters only on request: the default document must be
    // byte-identical with acceleration on or off.
    if (c.accelStats)
        exp.accel = &rt.accelStats();
    return exp;
}

void
printTransfers(std::ostream &os, const MachineStats &s)
{
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
    table.print(os);
    os << "jump-speed calls+returns: "
       << stats::percent(s.fastCallReturnRate()) << "\n";
}

void
printAccelStats(std::ostream &os, const std::string &title,
                const AccelStats &a, bool enabled)
{
    os << "\n--- " << title << " ---\n";
    if (!enabled) {
        os << "disabled (--accel=off)\n";
        return;
    }
    os << "icache: " << a.icacheHits << " hits, " << a.icacheMisses
       << " misses (" << stats::percent(a.icacheHitRate()) << ")\n"
       << "link cache: " << a.linkHits() << " hits, " << a.linkMisses()
       << " misses (" << stats::percent(a.linkHitRate()) << ")\n"
       << "flushes: " << a.codeFlushes << " code, " << a.tableFlushes
       << " link\n"
       << "call sites: " << a.callSiteHits << " hits, "
       << a.callSiteMisses << " misses   return predictions: "
       << a.returnPredHits << " taken, " << a.returnPredMisses
       << " missed\n";
}

void
writeReports(const char *driver, const Common &c, const std::string &prefix,
             const sched::Runtime &rt, const obs::ProbeRegistry &probes)
{
    if (c.profile) {
        std::cout << "\n--- " << prefix << "profile (top " << c.profileTop
                  << " by exclusive cycles) ---\n";
        rt.profile().topTable(c.profileTop).print(std::cout);
    }
    if (c.profileSampled) {
        std::cout << "\n--- " << prefix << "sampled profile (top "
                  << c.profileTop << " by samples, interval "
                  << c.sampleInterval << " cycles) ---\n";
        rt.sampledProfile().topTable(c.profileTop).print(std::cout);
    }
    // Folded stacks of the exact profile if there is one, else of the
    // sampled one.
    writeFile(c.profileFolded, [&](std::ostream &os) {
        if (c.profile)
            rt.profile().writeFolded(os);
        else
            rt.sampledProfile().writeFolded(os);
    });
    writeFile(c.traceOut, [&](std::ostream &os) { rt.writeTrace(os); });
    writeFile(c.metricsOut,
              [&](std::ostream &os) { rt.writeMetricsJson(os); });
    writeFile(c.openmetricsOut,
              [&](std::ostream &os) { rt.writeOpenMetrics(os); });
    writeFile(c.probeOut,
              [&](std::ostream &os) { probes.writeJson(os, driver); });
}

replay::RecordLog
writeRecording(const Common &c, const Program &program,
               const std::vector<Word> &args, const sched::Runtime &rt)
{
    replay::RecordLog log;
    log.impl = c.machine.impl;
    log.lowering = c.plan.lowering;
    log.shortCalls = c.plan.shortCalls;
    log.banks = c.machine.numBanks;
    log.timeslice = c.machine.timesliceSteps;
    log.accel = c.machine.accel.enabled;
    log.interval = c.metricsInterval;
    log.workers = rt.workers();
    log.stride = rt.stride();
    log.imageHash = rt.recordedImageHash();
    log.entryModule = program.entryModule;
    log.entryProc = c.entryProc;
    log.args = args;
    log.source = program.source;
    log.jobs = rt.jobRecords();
    writeFile(c.recordOut,
              [&](std::ostream &os) { replay::writeRecord(os, log); });
    return log;
}

} // namespace fpc::cli
