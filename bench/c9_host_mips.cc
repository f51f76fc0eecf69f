/**
 * @file
 * Experiment C9 — host-side execution throughput.
 *
 * Unlike C1–C8, which report *simulated* costs (cycles, storage
 * references), C9 measures the wall-clock speed of the simulator
 * itself: simulated instructions per second and XFERs per second for
 * each engine I1–I4, on both host backends — the eager loop
 * (accel=off) and the threaded-code superblock interpreter over the
 * XFER link caches (accel=threaded, docs/PERFORMANCE.md). The
 * acceleration contract makes this a pure host experiment: every
 * simulated number is bit-identical on both, so the speedup column is
 * free — no accuracy was traded for it.
 *
 * The workload is C1's call-heavy primes program, the shape the paper
 * optimizes for (a call per loop iteration), so the XFER link cache
 * and the superblock chain are both on the hot path. Host
 * times are min-of-N (--repeat=N, default 3) over interleaved
 * off/threaded repetitions: interference only ever adds time, so
 * the fastest repetition estimates the undisturbed cost, and
 * interleaving keeps a noise burst from landing on only one side of a
 * ratio. The overhead tables' retentions pair the runs instead: the
 * median over repetitions of each repetition's back-to-back ratio.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <vector>

#include "bench_util.hh"
#include "obs/fanout.hh"
#include "obs/probes.hh"
#include "obs/sampled_profile.hh"
#include "obs/telemetry.hh"

using namespace fpc;
using namespace fpc::bench;

namespace
{

constexpr Word primesLimit = 2000;

/** The two host execution backends (same simulated numbers). */
enum class Backend
{
    Off,      ///< eager per-step loop
    Threaded, ///< computed-goto superblocks (the default)
};

constexpr std::array<Backend, 2> allBackends = {Backend::Off,
                                                Backend::Threaded};

const char *
backendName(Backend backend)
{
    return backend == Backend::Off ? "off" : "threaded";
}

struct Measurement
{
    double seconds = 0;      ///< min-of-N wall time of one run
    std::uint64_t steps = 0; ///< simulated instructions per run
    CountT xfers = 0;        ///< transfers per run
    AccelStats accel;        ///< steady-state cache counters
};

/** One warmed, stats-reset rig ready for timed runs. */
std::unique_ptr<Rig>
warmRig(const EngineCombo &combo, Backend backend)
{
    MachineConfig config = configFor(combo);
    config.accel.enabled = backend != Backend::Off;
    auto rig = std::make_unique<Rig>(primesProgram(), planFor(combo),
                                     config);
    // Warm run: fills the frame free lists and the host caches, then
    // reset so the measured runs (and their hit rates) are steady
    // state.
    runToResult(*rig->machine, "Primes", "main", {primesLimit});
    rig->machine->resetStats();
    rig->machine->heap().resetStats();
    rig->mem->resetStats();
    return rig;
}

/**
 * Measure both backends together, interleaving the timed repetitions
 * (off, threaded, off, threaded, ...). Host interference comes in
 * bursts that last longer than one repetition, so timing all-off then
 * all-threaded lets a burst land on one side only and skew the ratio;
 * adjacent samples see the same conditions, and min-of-N then picks
 * each side's quiet-window cost.
 */
std::array<Measurement, 2>
measureBackends(const EngineCombo &combo, unsigned repeat)
{
    std::array<std::unique_ptr<Rig>, 2> rigs;
    std::array<Measurement, 2> m;
    for (std::size_t i = 0; i < allBackends.size(); ++i) {
        rigs[i] = warmRig(combo, allBackends[i]);
        // One counted run for the per-run denominators (deterministic,
        // so any run's counts serve for every repetition).
        runToResult(*rigs[i]->machine, "Primes", "main", {primesLimit});
        m[i].steps = rigs[i]->machine->stats().steps;
        m[i].xfers = rigs[i]->machine->stats().totalXfers();
    }

    using clock = std::chrono::steady_clock;
    auto timedRun = [](Rig &rig) {
        const auto t0 = clock::now();
        runToResult(*rig.machine, "Primes", "main", {primesLimit});
        const std::chrono::duration<double> dt = clock::now() - t0;
        return dt.count();
    };
    if (repeat == 0)
        repeat = 1;
    for (unsigned r = 0; r < repeat; ++r) {
        for (std::size_t i = 0; i < rigs.size(); ++i) {
            const double t = timedRun(*rigs[i]);
            if (r == 0 || t < m[i].seconds)
                m[i].seconds = t;
        }
    }
    for (std::size_t i = 0; i < rigs.size(); ++i)
        m[i].accel = rigs[i]->machine->accelStats();
    return m;
}

void
printHostThroughput(unsigned repeat, JsonReport &json)
{
    std::cout << "Host execution throughput on the C1 call-heavy "
                 "workload (primes " << primesLimit << "), min of "
              << repeat << " runs:\n\n";
    stats::Table table({"impl", "accel", "wall ms", "sim Minst/s",
                        "XFER/s", "speedup", "icache hit",
                        "link hit"});
    stats::Table dispatch({"impl", "eager ns/inst", "threaded ns/inst"});
    stats::Table sblocks({"impl", "builds", "execs", "chain hits",
                          "chain rate"});

    double min_thr_speedup = 0;
    bool first = true;
    for (const EngineCombo &combo : allEngines()) {
        const auto m = measureBackends(combo, repeat);
        const Measurement &off = m[0];
        const Measurement &thr = m[1];
        const double thr_speedup = off.seconds / thr.seconds;

        table.row(implName(combo.impl), "off",
                  stats::fixed(off.seconds * 1e3, 2),
                  stats::fixed(off.steps / off.seconds / 1e6, 1),
                  stats::fixed(off.xfers / off.seconds, 0), "-", "-",
                  "-");
        table.row(implName(combo.impl), "threaded",
                  stats::fixed(thr.seconds * 1e3, 2),
                  stats::fixed(thr.steps / thr.seconds / 1e6, 1),
                  stats::fixed(thr.xfers / thr.seconds, 0),
                  stats::fixed(thr_speedup, 2),
                  stats::percent(thr.accel.icacheHitRate()),
                  stats::percent(thr.accel.linkHitRate()));

        // Dispatch cost: the per-instruction host price of each loop.
        const double eager_ns = off.seconds / off.steps * 1e9;
        const double thr_ns = thr.seconds / thr.steps * 1e9;
        dispatch.row(implName(combo.impl), stats::fixed(eager_ns, 2),
                     stats::fixed(thr_ns, 2));

        const AccelStats &ta = thr.accel;
        const double chain_rate =
            ta.sblockExecs > 0
                ? static_cast<double>(ta.sblockChainHits) /
                      ta.sblockExecs
                : 0.0;
        sblocks.row(implName(combo.impl), ta.sblockBuilds,
                    ta.sblockExecs, ta.sblockChainHits,
                    stats::percent(chain_rate));

        const std::string impl = implName(combo.impl);
        json.metric("speedup_threaded_" + impl, thr_speedup);
        json.metric("sim_mips_off_" + impl,
                    off.steps / off.seconds / 1e6);
        json.metric("sim_mips_threaded_" + impl,
                    thr.steps / thr.seconds / 1e6);
        json.metric("icache_hit_rate_" + impl, ta.icacheHitRate());
        json.metric("link_hit_rate_" + impl, ta.linkHitRate());
        json.metric("sblock_chain_rate_" + impl, chain_rate);
        if (first || thr_speedup < min_thr_speedup)
            min_thr_speedup = thr_speedup;
        first = false;
    }
    table.print(std::cout);
    std::cout << "\nDispatch cost (host ns per simulated "
                 "instruction):\n\n";
    dispatch.print(std::cout);
    std::cout << "\nSuperblock cache at steady state:\n\n";
    sblocks.print(std::cout);
    json.table("host_throughput", table);
    json.table("dispatch_cost", dispatch);
    json.table("superblocks", sblocks);
    json.metric("min_speedup_threaded", min_thr_speedup);
    json.metric("repeat", repeat);
    json.note("contract",
              "simulated numbers are bit-identical with accel "
              "off/threaded; these tables are host wall-clock only");

    std::cout << "\nAcceptance shape: accel-threaded >= 4x accel-off on "
                 "every engine, with predecode, link-cache, and "
                 "superblock-chain hit rates above 90% at steady "
                 "state.\n";
}

/** A loop-only program: no calls inside the timed work, so its host
 *  ns per simulated instruction is the threaded backend's cost of a
 *  jump-speed instruction stream. */
std::vector<Module>
loopProgram()
{
    return lang::compile(R"(
        module Loop;
        var acc;
        proc main(n) {
            var i;
            var j;
            i = 0;
            while (i < n) {
                j = 0;
                while (j < 100) {
                    acc = acc + j;
                    j = j + 1;
                }
                i = i + 1;
            }
            return acc;
        }
    )");
}

/**
 * The host cost of a call: threaded ns per simulated instruction on
 * call-heavy fib(20) (a call or return every six instructions) against
 * the loop-only program, per engine. The paper's claim is that a call
 * costs about what a jump costs; on the host, the ratio is how far the
 * translator is from that. Exported as a table and as the headline
 * max_call_cost_ratio, the largest ratio over the engines; CI reports
 * its median over three runs and does not gate it (the host is
 * shared).
 */
void
printCallCost(unsigned repeat, JsonReport &json)
{
    constexpr Word fibArg = 20;
    constexpr Word loopArg = 600;
    std::cout << "\nHost cost of a call on the threaded backend (fib("
              << fibArg << ") vs a loop-only program), min of " << repeat
              << " runs:\n\n";
    stats::Table table({"impl", "fib ns/inst", "loop ns/inst",
                        "fib/loop"});
    if (repeat == 0)
        repeat = 1;
    double maxRatio = 0;
    for (const EngineCombo &combo : allEngines()) {
        const MachineConfig config = configFor(combo);
        Rig fib(fibProgram(), planFor(combo), config);
        Rig loop(loopProgram(), planFor(combo), config);
        // Warm runs: superblocks, site caches and free lists.
        runToResult(*fib.machine, "Fib", "main", {fibArg});
        runToResult(*loop.machine, "Loop", "main", {loopArg});
        const std::uint64_t fibSteps0 = fib.machine->stats().steps;
        const std::uint64_t loopSteps0 = loop.machine->stats().steps;
        double fibS = 0, loopS = 0;
        using clock = std::chrono::steady_clock;
        // Interleaved, like measureBackends: a noise burst lands on
        // both sides of the ratio.
        for (unsigned r = 0; r < repeat; ++r) {
            auto t0 = clock::now();
            runToResult(*fib.machine, "Fib", "main", {fibArg});
            const std::chrono::duration<double> f = clock::now() - t0;
            t0 = clock::now();
            runToResult(*loop.machine, "Loop", "main", {loopArg});
            const std::chrono::duration<double> l = clock::now() - t0;
            if (r == 0 || f.count() < fibS)
                fibS = f.count();
            if (r == 0 || l.count() < loopS)
                loopS = l.count();
        }
        const double fibNs =
            fibS / static_cast<double>(fibSteps0) * 1e9;
        const double loopNs =
            loopS / static_cast<double>(loopSteps0) * 1e9;
        table.row(implName(combo.impl), stats::fixed(fibNs, 2),
                  stats::fixed(loopNs, 2),
                  stats::fixed(fibNs / loopNs, 2));
        maxRatio = std::max(maxRatio, fibNs / loopNs);
    }
    table.print(std::cout);
    json.table("call_cost", table);
    json.metric("max_call_cost_ratio", maxRatio);
    std::cout << "\nTarget shape: fib ns/inst within 2x of the loop's on "
                 "every engine (a call costs about a jump).\n";
}

/** The median over repetitions of base[r] / observed[r]. Each ratio
 *  pairs two back-to-back runs, so load on a shared host slows both
 *  sides of it together, where a ratio of two minima can pair a
 *  quiet repetition of one side with a loaded one of the other. */
double
pairedRetention(const std::vector<double> &base,
                const std::vector<double> &observed)
{
    std::vector<double> ratios;
    for (std::size_t r = 0; r < base.size(); ++r)
        ratios.push_back(base[r] / observed[r]);
    std::sort(ratios.begin(), ratios.end());
    const std::size_t n = ratios.size();
    return n % 2 == 1 ? ratios[n / 2]
                      : (ratios[n / 2 - 1] + ratios[n / 2]) / 2;
}

/** The three observability states the obs_overhead table compares on
 *  the threaded backend. */
enum class ObsState
{
    Unobserved, ///< no observer at all
    Sampled,    ///< boundary-sampling profiler + sampled telemetry
    Exact,      ///< exact telemetry sampler (plain steps near samples)
};

constexpr std::array<ObsState, 3> allObsStates = {
    ObsState::Unobserved, ObsState::Sampled, ObsState::Exact};

/**
 * Observability overhead: wall time of the threaded backend with no
 * observer, with full sampled observability (profiler + telemetry via
 * an obs::Fanout, default 9973-cycle budget), and with the exact
 * telemetry sampler — which takes plain steps wherever a sample could
 * fall inside a superblock, and so prices what
 * `--telemetry-mode=sampled` still buys back. The ms columns are
 * min-of-N; the retentions are paired (pairedRetention).
 */
void
printObsOverhead(unsigned repeat, JsonReport &json)
{
    std::cout << "\nObservability overhead on the threaded backend "
                 "(primes " << primesLimit << "), min of " << repeat
              << " runs:\n\n";
    stats::Table table({"impl", "unobserved ms", "sampled ms",
                        "exact ms", "sampled retention",
                        "exact retention"});

    constexpr Tick sampleInterval = 9973;
    double min_retention = 0;
    double min_exact = 0;
    bool first = true;
    for (const EngineCombo &combo : allEngines()) {
        // A single primes run is sub-millisecond, where host cache
        // and layout luck swamp the few-percent effect under
        // measurement; five back-to-back runs per timed repetition
        // integrate it out. Rigs are rebuilt every repetition —
        // allocation layout luck sticks to a rig for its whole life,
        // so reusing one rig across repetitions would bake a bad
        // placement into every sample and min-of-N could not shed it.
        constexpr unsigned innerReps = 5;
        using clock = std::chrono::steady_clock;
        std::array<double, 3> secs{};
        std::array<std::vector<double>, 3> reps;
        if (repeat == 0)
            repeat = 1;
        for (unsigned r = 0; r < repeat; ++r) {
            for (std::size_t i = 0; i < allObsStates.size(); ++i) {
                // Every state runs the default threaded configuration;
                // the exact sampler's plain steps around its deadlines
                // are part of the cost being measured.
                Rig rig(primesProgram(), planFor(combo),
                        configFor(combo));
                std::optional<obs::SampledProfiler> profiler;
                std::optional<obs::Telemetry> telemetry;
                obs::Fanout fan;
                switch (allObsStates[i]) {
                  case ObsState::Unobserved:
                    break;
                  case ObsState::Sampled:
                    profiler.emplace(rig.image);
                    telemetry.emplace(obs::Telemetry::defaultCapacity,
                                      false);
                    fan.add(&*profiler, sampleInterval);
                    fan.add(&*telemetry, sampleInterval);
                    fan.attach(*rig.machine);
                    break;
                  case ObsState::Exact:
                    telemetry.emplace();
                    rig.machine->setSampler(&*telemetry,
                                            sampleInterval);
                    break;
                }
                // Warm run: frame free lists + host caches.
                runToResult(*rig.machine, "Primes", "main",
                            {primesLimit});
                const auto t0 = clock::now();
                for (unsigned k = 0; k < innerReps; ++k)
                    runToResult(*rig.machine, "Primes", "main",
                                {primesLimit});
                const std::chrono::duration<double> dt =
                    clock::now() - t0;
                reps[i].push_back(dt.count());
                if (r == 0 || dt.count() < secs[i])
                    secs[i] = dt.count();
            }
        }

        const double sampled_retention = pairedRetention(reps[0], reps[1]);
        const double exact_retention = pairedRetention(reps[0], reps[2]);
        table.row(implName(combo.impl),
                  stats::fixed(secs[0] * 1e3, 2),
                  stats::fixed(secs[1] * 1e3, 2),
                  stats::fixed(secs[2] * 1e3, 2),
                  stats::percent(sampled_retention),
                  stats::percent(exact_retention));

        const std::string impl = implName(combo.impl);
        json.metric("sampled_retention_" + impl, sampled_retention);
        json.metric("exact_retention_" + impl, exact_retention);
        if (first || sampled_retention < min_retention)
            min_retention = sampled_retention;
        if (first || exact_retention < min_exact)
            min_exact = exact_retention;
        first = false;
    }
    table.print(std::cout);
    json.table("obs_overhead", table);
    json.metric("min_sampled_retention", min_retention);
    json.metric("min_exact_retention", min_exact);

    std::cout << "\nAcceptance shape: full sampled observability "
                 "(--profile-sampled --telemetry-mode=sampled) "
                 "retains >= 90% of unobserved threaded throughput; "
                 "exact sampling pays plain steps around each "
                 "sample.\n";
}

/** The probe states the probe_overhead table compares on the
 *  threaded backend. */
enum class ProbeState
{
    Unprobed, ///< no probe engine at all
    Probed,   ///< one hot procedure probed
    AllProbed ///< every procedure probed (upper bound on the cost)
};

constexpr std::array<ProbeState, 3> allProbeStates = {
    ProbeState::Unprobed, ProbeState::Probed, ProbeState::AllProbed};

/** A workload where instruction volume and call frequency separate:
 *  kernel() holds ~95% of the instructions, tick() is called every
 *  outer iteration (a hot probe target) but is three instructions
 *  long. The probed run stays on the threaded loop, so the retention
 *  column prices the probe engine's per-event work. */
inline std::vector<Module>
probeWorkload()
{
    return lang::compile(R"(
        module Work;
        var acc;
        proc kernel(n) {
            var i;
            i = 0;
            while (i < n) {
                acc = acc + i;
                i = i + 1;
            }
            return acc;
        }
        proc tick(x) { return x + 1; }
        proc main(reps) {
            var r;
            r = 0;
            while (r < reps) {
                acc = kernel(400);
                acc = tick(acc);
                r = r + 1;
            }
            return acc;
        }
    )");
}

/**
 * Probe overhead: wall time of the threaded backend with no probes,
 * with one hot procedure probed ('entry:Work.tick ->
 * quantize(cycles)'), and with every procedure probed. A probe engine
 * is an ordinary observer, exact on the threaded loop, so every state
 * runs superblocks; the all-probed column prices exact observation
 * of every procedure's transfers. Probes charge zero simulated
 * cycles; this table is the host-side price. Same rebuilt-rig,
 * interleaved discipline as the obs_overhead table: min-of-N ms,
 * paired retentions.
 */
void
printProbeOverhead(unsigned repeat, JsonReport &json)
{
    constexpr Word workReps = 600;
    std::cout << "\nDynamic-probe overhead on the threaded backend "
                 "(kernel-heavy workload, tick() probed), min of "
              << repeat << " runs:\n\n";
    stats::Table table({"impl", "unprobed ms", "probed ms",
                        "all-probed ms", "retention",
                        "all-probed retention"});

    obs::ProbeRegistry hotRegistry;
    obs::ProbeRegistry allRegistry;
    {
        std::string err;
        if (!obs::attachProbeSpecs(
                hotRegistry,
                {"entry:Work.tick -> quantize(cycles)"}, err) ||
            !obs::attachProbeSpecs(
                allRegistry, {"entry:Work.* -> quantize(cycles)"},
                err))
            throw std::runtime_error("probe spec: " + err);
    }

    double min_retention = 0;
    bool first = true;
    for (const EngineCombo &combo : allEngines()) {
        constexpr unsigned innerReps = 5;
        using clock = std::chrono::steady_clock;
        std::array<double, 3> secs{};
        std::array<std::vector<double>, 3> reps;
        if (repeat == 0)
            repeat = 1;
        for (unsigned r = 0; r < repeat; ++r) {
            for (std::size_t i = 0; i < allProbeStates.size(); ++i) {
                Rig rig(probeWorkload(), planFor(combo),
                        configFor(combo));
                obs::ProbeRegistry *registry = nullptr;
                switch (allProbeStates[i]) {
                  case ProbeState::Unprobed:
                    break;
                  case ProbeState::Probed:
                    registry = &hotRegistry;
                    break;
                  case ProbeState::AllProbed:
                    registry = &allRegistry;
                    break;
                }
                std::optional<obs::ProbeEngine> engine;
                if (registry != nullptr) {
                    engine.emplace(registry->snapshot(), rig.image,
                                   "", 0);
                    rig.machine->setObserver(&*engine);
                }
                // Warm run: frame free lists + host caches.
                runToResult(*rig.machine, "Work", "main", {workReps});
                const auto t0 = clock::now();
                for (unsigned k = 0; k < innerReps; ++k)
                    runToResult(*rig.machine, "Work", "main",
                                {workReps});
                const std::chrono::duration<double> dt =
                    clock::now() - t0;
                reps[i].push_back(dt.count());
                if (r == 0 || dt.count() < secs[i])
                    secs[i] = dt.count();
            }
        }

        const double retention = pairedRetention(reps[0], reps[1]);
        const double all_retention = pairedRetention(reps[0], reps[2]);
        table.row(implName(combo.impl),
                  stats::fixed(secs[0] * 1e3, 2),
                  stats::fixed(secs[1] * 1e3, 2),
                  stats::fixed(secs[2] * 1e3, 2),
                  stats::percent(retention),
                  stats::percent(all_retention));

        const std::string impl = implName(combo.impl);
        json.metric("probe_retention_" + impl, retention);
        json.metric("all_probed_retention_" + impl, all_retention);
        if (first || retention < min_retention)
            min_retention = retention;
        first = false;
    }
    table.print(std::cout);
    json.table("probe_overhead", table);
    json.metric("min_probe_retention", min_retention);

    std::cout << "\nAcceptance shape: with one hot procedure probed, "
                 "the run retains >= 90% of unprobed threaded "
                 "throughput; probing every procedure prices exact "
                 "observation of all of them, still on the threaded "
                 "loop.\n";
}

void
BM_HostPrimes(benchmark::State &state)
{
    const EngineCombo combo = allEngines()[3]; // I4-banked
    const auto backend = static_cast<Backend>(state.range(0));
    MachineConfig config = configFor(combo);
    config.accel.enabled = backend != Backend::Off;
    Rig rig(primesProgram(), planFor(combo), config);
    for (auto _ : state)
        runToResult(*rig.machine, "Primes", "main", {200});
    state.SetLabel(std::string("accel-") + backendName(backend));
}
BENCHMARK(BM_HostPrimes)->DenseRange(0, 1);

} // namespace

int
main(int argc, char **argv)
try {
    JsonReport json(argc, argv, "c9_host_mips");
    const unsigned repeat = stripUintFlag(argc, argv, "repeat", 3);

    printHostThroughput(repeat, json);
    printCallCost(repeat, json);
    printObsOverhead(repeat, json);
    printProbeOverhead(repeat, json);
    json.write();
    std::cout << "\n";
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
} catch (const std::exception &err) {
    std::cerr << "c9_host_mips: bad flag value (" << err.what()
              << "); expected --repeat=N\n";
    return 2;
}
