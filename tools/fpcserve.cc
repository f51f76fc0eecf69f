/**
 * @file
 * fpcserve — the FPC serving daemon: a long-lived, multi-tenant job
 * server over the runtime's execution slots.
 *
 * Where fpcrun drains a fixed batch and exits, fpcserve listens on a
 * TCP port for fpc-serve-v1 frames, runs submitted MiniMesa jobs on
 * the threads that read them, one reusable machine context per slot,
 * and applies admission control (bounded queues, per-tenant cycle
 * quotas) with deficit-round-robin fair dispatch across tenants:
 *
 *   fpcserve --port=7533 --workers=4
 *   fpcserve --port=7533 --tenant=gold:4:64 --tenant=bronze:1:8:200000 \
 *            --queue-capacity=32 --preload=primes=examples/programs/primes.mm
 *
 * SIGINT/SIGTERM drain gracefully: stop accepting, answer late
 * submits with DRAINING, finish everything admitted, flush the
 * telemetry exports, exit 0. A SCRAPE request (or --openmetrics-out
 * at drain) exposes queue depth, per-tenant gauges and job-latency
 * percentiles.
 */

#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include <poll.h>

#include "common/logging.hh"
#include "serve/drain.hh"
#include "serve/server.hh"
#include "stats/table.hh"

#include "cli.hh"

using namespace fpc;

namespace
{

struct Options : cli::Common
{
    serve::ServerConfig server;
    std::vector<std::pair<std::string, std::string>> preloads;
    std::vector<std::pair<std::string, double>> slos;
};

/** Parse "NAME:W[:Q[:C]]" into a (name, TenantConfig) pair. */
bool
parseTenant(const std::string &spec, std::string &name,
            serve::TenantConfig &config)
{
    std::vector<std::string> parts;
    std::stringstream ss(spec);
    std::string part;
    while (std::getline(ss, part, ':'))
        parts.push_back(part);
    if (parts.size() < 2 || parts.size() > 4 || parts[0].empty())
        return false;
    name = parts[0];
    return cli::parsePositive(parts[1], config.weight) &&
           (parts.size() < 3 ||
            cli::parseUnsigned(parts[2], config.maxQueued)) &&
           (parts.size() < 4 ||
            cli::parseUnsigned(parts[3], config.cyclesPerWindow));
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    serve::ServerConfig &sc = opt.server;
    opt.workers = sc.workers;
    cli::Parser p(argv[0], {"[options]"},
                  "The --*-out files are written at drain; --trace-out "
                  "holds the request spans\nplus per-worker XFER "
                  "tracks. Clients attach more probes live (fpcprobe).\n");
    p.add({"--queue-capacity", "N", "admitted-job bound across tenants "
           "(default 256)", cli::number(sc.queueCapacity)});
    p.add({"--tenant", "NAME:W[:Q[:C]]", "tenant weight W, max queued Q, "
           "cycles/window C", [&sc](const std::string &v) {
               std::string name;
               serve::TenantConfig config;
               if (!parseTenant(v, name, config))
                   return false;
               sc.tenants[name] = config;
               return true;
           }});
    p.add({"--slo", "NAME:MS", "tenant latency SLO target in ms "
           "(admission to reply)", [&opt](const std::string &v) {
               const auto colon = v.rfind(':');
               double ms = 0;
               if (colon == std::string::npos || colon == 0 ||
                   !cli::parsePositive(v.substr(colon + 1), ms))
                   return false;
               opt.slos.emplace_back(v.substr(0, colon), ms);
               return true;
           }});
    p.add({"--default-weight", "W", "unconfigured-tenant DRR weight "
           "(default 1)", [&sc](const std::string &v) {
               return cli::parsePositive(v, sc.defaultTenant.weight);
           }});
    p.add({"--default-max-queued", "N", "unconfigured-tenant queue bound "
           "(default 64)", cli::number(sc.defaultTenant.maxQueued)});
    p.add({"--default-cycles-per-window", "N", "unconfigured-tenant cycle "
           "quota (default 0 = off)",
           cli::number(sc.defaultTenant.cyclesPerWindow)});
    p.add({"--quota-window-ms", "N", "cycle-quota window (default 1000)",
           cli::number(sc.quotaWindowMs)});
    p.add({"--preload", "NAME=FILE.mm", "compile FILE.mm and serve it as "
           "program NAME", [&opt](const std::string &v) {
               const auto eq = v.find('=');
               if (eq == std::string::npos || eq == 0)
                   return false;
               opt.preloads.emplace_back(v.substr(0, eq), v.substr(eq + 1));
               return true;
           }});
    p.add({"--spans-capacity", "N", "span ring size, drop-oldest (default " +
           std::to_string(sc.spansCapacity) + ")",
           cli::number(sc.spansCapacity)});
    cli::addGroups(p, opt,
                   cli::Address | cli::Workers | cli::Machine | cli::Observe |
                       cli::Postmortem | cli::Spans | cli::LogLevel);
    if (!p.parse(argc, argv).empty())
        p.usage();

    sc.host = opt.host;
    sc.port = opt.port;
    sc.workers = opt.workers;
    sc.machine = opt.machine;
    sc.plan = opt.plan;
    sc.postmortemDir = opt.postmortemDir;
    sc.metricsInterval = opt.metricsInterval;
    sc.metricsSampled = opt.telemetrySampled;
    sc.probeSpecs = opt.probeSpecs;
    sc.metrics = opt.metricsWanted();
    // Applied after the loop so --slo composes with --tenant in
    // either order (--tenant=NAME:... replaces the whole config).
    for (const auto &[name, ms] : opt.slos) {
        if (sc.tenants.find(name) == sc.tenants.end())
            sc.tenants[name] = sc.defaultTenant;
        sc.tenants[name].sloMs = ms;
    }
    sc.spans = !opt.spansOut.empty() || !opt.traceOut.empty();
    sc.trace = !opt.traceOut.empty();
    return opt;
}

} // namespace

int
main(int argc, char **argv)
try {
    const Options opt = parseArgs(argc, argv);

    serve::Server server(opt.server);
    for (const auto &[name, file] : opt.preloads) {
        server.addProgram(name, cli::compileFile(file).modules);
        inform("fpcserve: preloaded program '{}' from {}", name, file);
    }

    // Install the drain handler before the listener opens: a signal
    // racing startup still shuts down cleanly.
    serve::DrainSignal drain;
    server.start();
    inform("fpcserve: listening on {}:{} ({} workers, {})",
           opt.server.host, server.port(), opt.server.workers,
           implName(opt.server.machine.impl));

    // Everything else happens on the server's threads; the main
    // thread just waits for the drain signal.
    while (!drain.requested()) {
        pollfd pfd = {drain.fd(), POLLIN, 0};
        ::poll(&pfd, 1, -1);
    }

    inform("fpcserve: drain requested; finishing admitted jobs");
    server.stop();

    const stats::Histogram &lat = server.latencyHistogram();
    std::cout << "fpcserve: drained after " << server.jobsCompleted()
              << " job(s), " << server.jobsRejected()
              << " rejected, " << server.connectionsAccepted()
              << " connection(s); latency p50 "
              << stats::fixed(lat.p50(), 2) << " ms, p99 "
              << stats::fixed(lat.p99(), 2) << " ms\n";

    cli::writeFile(opt.metricsOut,
                   [&](std::ostream &os) { server.writeMetricsJson(os); });
    cli::writeFile(opt.openmetricsOut,
                   [&](std::ostream &os) { server.writeOpenMetrics(os); });
    cli::writeFile(opt.spansOut,
                   [&](std::ostream &os) { server.writeSpansLog(os); });
    cli::writeFile(opt.traceOut,
                   [&](std::ostream &os) { server.writeSpansTrace(os); });
    cli::writeFile(opt.probeOut, [&](std::ostream &os) {
        server.probes().writeJson(os, "fpcserve");
    });
    if (!server.spanFaults().empty())
        warn("fpcserve: span checker found {} fault(s)",
             server.spanFaults().size());
    return 0;
} catch (const std::exception &err) {
    error("fpcserve: {}", err.what());
    return 1;
}
