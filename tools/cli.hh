/**
 * @file
 * fpc_cli — the drivers' one option table, and the code they share.
 *
 * Each flag is one table entry {name, metavar, help, setter}: parsing,
 * value checking and --help are all generated from the table. The
 * flags several drivers take are declared once (cli.cc), in groups a
 * driver picks with addGroups(); a driver declares only the flags no
 * other driver takes, and handles its own positional arguments.
 *
 * The rest of what the drivers share lives here too: compiling a .mm
 * file and picking its entry, the sched::RuntimeConfig every program
 * runs under (fpcvm and `fpcreplay record` run a one-job batch), the
 * reports written from a finished Runtime, the fpc-record-v1
 * recording, and the --stats and --accel-stats printouts.
 */

#pragma once

#include <charconv>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "machine/config.hh"
#include "obs/json.hh"
#include "obs/telemetry.hh"
#include "obs/trace.hh"
#include "program/loader.hh"
#include "replay/record.hh"
#include "sched/runtime.hh"

namespace fpc
{

struct AccelStats;
struct MachineStats;

namespace cli
{

/** Applies one flag's value ("" for a bool flag); false rejects it. */
using Setter = std::function<bool(const std::string &value)>;

/** One option-table entry. */
struct Flag
{
    std::string name;    ///< "--name"
    std::string metavar; ///< "--name=METAVAR"; empty for a bool flag
    std::string help;    ///< wrapped by --help
    Setter set;
};

/** A whole unsigned decimal that fits T: no sign, space or suffix. */
template <class T>
bool
parseUnsigned(std::string_view text, T &out)
{
    static_assert(std::is_unsigned_v<T>);
    unsigned long long v = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (text.empty() || ec != std::errc() || ptr != end ||
        v > std::numeric_limits<T>::max())
        return false;
    out = static_cast<T>(v);
    return true;
}

/** A whole finite decimal above zero, e.g. a weight or a latency. */
bool parsePositive(std::string_view text, double &out);

/** A program argument: a decimal in [-32768, 65535], as a 16-bit word. */
bool parseWord(std::string_view text, Word &out);

/** A bool flag. */
Setter set(bool &dst);

/** A checked integer into a field of any unsigned width. */
template <class T>
Setter
number(T &dst)
{
    return [&dst](const std::string &v) { return parseUnsigned(v, dst); };
}

/** The spellings a choice flag accepts, each with its value. */
template <class T>
using Choices = std::vector<std::pair<std::string, T>>;

/** One value from a table. */
template <class Dst, class T>
Setter
choice(Dst &dst, Choices<T> table)
{
    return [&dst, table = std::move(table)](const std::string &v) {
        for (const auto &[spelling, value] : table) {
            if (spelling == v) {
                dst = value;
                return true;
            }
        }
        return false;
    };
}

/** A string. */
Setter text(std::string &dst);

/** A repeatable string: each use appends. */
Setter append(std::vector<std::string> &dst);

/** simple|mesa|ifu|banked, also spelled I1-I4 and i1-i4. */
const Choices<Impl> &engines();

/** fat|mesa|direct. */
const Choices<CallLowering> &linkages();

/** A driver's option table. */
class Parser
{
  public:
    enum class Status { Ok, Help, Bad };

    /** synopsis: the usage lines, each printed after "usage: PROG ";
     *  epilog: text printed after the flags. */
    Parser(std::string prog, std::vector<std::string> synopsis,
           std::string epilog = {});

    /** Adds an entry. A name registered twice is a bug: panics. */
    void add(Flag flag);

    /** Runs after the last flag; a nonempty result rejects the command
     *  line with that message. */
    void check(std::function<std::string()> fn);

    /** Applies args in order; other arguments go to positional. On
     *  Bad, why says what was rejected. */
    Status parse(const std::vector<std::string> &args,
                 std::vector<std::string> &positional,
                 std::string &why) const;

    /** parse() on argv: --help prints the help and exits 0, a bad
     *  command line prints the usage and exits 2. Returns the
     *  positional arguments. */
    std::vector<std::string> parse(int argc, char **argv) const;

    /** positional[first...] as program arguments, or usage(). */
    std::vector<Word> words(const std::vector<std::string> &positional,
                            std::size_t first) const;

    void printHelp(std::ostream &os) const;

    /** Prints why (if any) and the usage to stderr; exits 2. */
    [[noreturn]] void usage(const std::string &why = {}) const;

  private:
    const Flag *find(const std::string &name) const;

    std::string prog_;
    std::vector<std::string> synopsis_;
    std::string epilog_;
    std::vector<Flag> flags_;
    std::vector<std::function<std::string()>> checks_;
};

/** The shared flag groups (see the table in cli.cc). */
enum Group : unsigned
{
    Address = 1u << 0,    ///< a server's address
    Workers = 1u << 1,    ///< a worker pool
    Machine = 1u << 2,    ///< the simulated machine and host backend
    Entry = 1u << 3,      ///< the program's entry point
    Observe = 1u << 4,    ///< traces, metrics and probes
    Reports = 1u << 5,    ///< stats, profiles, rings and recordings of
                          ///< machines the driver runs to completion
    Postmortem = 1u << 6, ///< failure bundles
    Spans = 1u << 7,      ///< request spans
    LogLevel = 1u << 8,
};

/** Where the shared groups put their values. Preset a field before
 *  addGroups() to change its default; numeric defaults in the help
 *  are read from the field. */
struct Common
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    unsigned workers = 0;

    MachineConfig machine; ///< impl, numBanks, timesliceSteps, accel
    LinkPlan plan;         ///< lowering, shortCalls
    bool accelGiven = false;

    std::string entryModule; ///< empty: Main, else the first module
    std::string entryProc = "main";

    bool stats = false;
    bool accelStats = false;
    std::string statsJson;
    bool profile = false;
    unsigned profileTop = 20;
    std::string profileFolded;
    bool profileSampled = false;
    Tick sampleInterval = 9973;
    std::string traceOut;
    std::size_t traceCapacity = obs::Tracer::defaultCapacity;
    std::string metricsOut;
    std::string openmetricsOut;
    Tick metricsInterval = obs::Telemetry::defaultInterval;
    std::size_t metricsCapacity = obs::Telemetry::defaultCapacity;
    bool telemetrySampled = false;
    std::string postmortemDir;
    std::string recordOut;
    std::string spansOut;
    std::vector<std::string> probeSpecs;
    std::string probeOut;

    bool metricsWanted() const
    {
        return !metricsOut.empty() || !openmetricsOut.empty();
    }
};

/** Adds the flags of every group in `groups`, writing into c. */
void addGroups(Parser &p, Common &c, unsigned groups);

/** A compiled .mm file. */
struct Program
{
    std::string source;
    std::shared_ptr<const std::vector<Module>> modules;
    std::string entryModule; ///< --entry's module, else Main, else first

    /** Loads every module into mem. */
    LoadedImage load(Memory &mem, const LinkPlan &plan) const;
};

/** Reads and compiles path; throws "cannot open PATH" if unreadable. */
Program compileFile(const std::string &path,
                    const std::string &entryModule = {});

/** Writes an artifact: nothing if path is empty (its flag was not
 *  given), else opens it, throwing "cannot write PATH" if it cannot,
 *  and hands the stream to write. */
void writeFile(const std::string &path,
               const std::function<void(std::ostream &)> &write);

/** The Runtime the flags in c ask for: workers, machine, and every
 *  trace, profile, series, bundle and recording the jobs keep. The
 *  driver name, probes, spans and stop flag are the caller's. */
sched::RuntimeConfig runtimeConfig(const Common &c);

/** Compiles c's --probe specs into registry; a bad spec is an error,
 *  exit 2. Returns the registry, or null when no probe was given. */
obs::ProbeRegistry *attachProbes(const char *driver, const Common &c,
                                 obs::ProbeRegistry &registry);

/** The stats document's fields both batch drivers fill: driver,
 *  engine, and the merged machine, memory, heap and (with
 *  --accel-stats) host counters. */
obs::StatsExport statsExport(const char *driver, const Common &c,
                             const sched::Runtime &rt);

/** The --stats transfer table and jump-speed rate. */
void printTransfers(std::ostream &os, const MachineStats &s);

/** The --accel-stats block. */
void printAccelStats(std::ostream &os, const std::string &title,
                     const AccelStats &a, bool enabled);

/** The reports of a finished Runtime: the profile tables
 *  ("PREFIXprofile ...") and --profile-folded, --trace-out,
 *  --metrics-out, --openmetrics-out and --probe-out. */
void writeReports(const char *driver, const Common &c,
                  const std::string &prefix, const sched::Runtime &rt,
                  const obs::ProbeRegistry &probes);

/** The fpc-record-v1 recording of rt's jobs, run from `program` with
 *  `args` under c's flags; written to --record-out when given. */
replay::RecordLog writeRecording(const Common &c, const Program &program,
                                 const std::vector<Word> &args,
                                 const sched::Runtime &rt);

} // namespace cli
} // namespace fpc
