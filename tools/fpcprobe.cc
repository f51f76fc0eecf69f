/**
 * @file
 * fpcprobe — live probe management on a running fpcserve.
 *
 * Speaks the fpc-serve-v1 PROBE op: attach a probe spec, detach one
 * by id, or read every attached probe's aggregations as an
 * fpc-probes-v1 document. Attach/detach take effect from the next
 * dispatched job; jobs already executing keep their snapshot and are
 * never interrupted, so probing a production daemon is safe:
 *
 *   fpcprobe --port=7533 attach 'entry:Primes.isPrime -> quantize(cycles)'
 *   fpcprobe --port=7533 read
 *   fpcprobe --port=7533 detach 1
 *
 * attach prints the assigned probe id (the handle detach wants) on
 * stdout; read prints the JSON document. Malformed specs are parsed
 * server-side: the server answers BAD_REQUEST with the parser's
 * diagnosis, which lands on stderr here.
 */

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "serve/client.hh"

#include "cli.hh"

using namespace fpc;

namespace
{

struct Options : cli::Common
{
    std::string command; ///< attach | detach | read
    std::string operand; ///< attach: spec; detach: id
    std::uint32_t id = 0; ///< detach
};

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    cli::Parser p(argv[0],
                  {"[options] attach '<spec>'", "[options] detach <id>",
                   "[options] read"},
                  "probe specs: '<site>{<predicate>,...} -> <action>', "
                  "e.g.\n"
                  "  'entry:Primes.isPrime -> count'\n"
                  "  'entry:Sort.* {depth<=8} -> quantize(cycles)'\n"
                  "  'xfer:return {tenant==gold} -> sum(refs)'\n");
    cli::addGroups(p, opt, cli::Address);
    const std::vector<std::string> positional = p.parse(argc, argv);
    if (positional.empty() || opt.port == 0)
        p.usage();
    opt.command = positional[0];
    if (opt.command == "attach" || opt.command == "detach") {
        if (positional.size() != 2)
            p.usage();
        opt.operand = positional[1];
        if (opt.command == "detach" &&
            !cli::parseUnsigned(opt.operand, opt.id))
            p.usage("bad probe id " + opt.operand);
    } else if (opt.command == "read") {
        if (positional.size() != 1)
            p.usage();
    } else {
        p.usage();
    }
    return opt;
}

} // namespace

int
main(int argc, char **argv)
try {
    const Options opt = parseArgs(argc, argv);

    serve::Client client;
    std::string err;
    if (!client.connect(opt.host, opt.port, err)) {
        error("fpcprobe: {}", err);
        return 1;
    }

    if (opt.command == "attach") {
        serve::Reply reply;
        if (!client.probeAttach(opt.operand, reply)) {
            error("fpcprobe: connection lost during attach");
            return 1;
        }
        if (reply.status != serve::Status::ProbeText) {
            error("fpcprobe: attach refused: {}", reply.error);
            return 1;
        }
        std::cout << reply.probeId << "\n";
    } else if (opt.command == "detach") {
        serve::Reply reply;
        if (!client.probeDetach(opt.id, reply)) {
            error("fpcprobe: connection lost during detach");
            return 1;
        }
        if (reply.status != serve::Status::ProbeText) {
            error("fpcprobe: detach refused: {}", reply.error);
            return 1;
        }
    } else {
        std::string text;
        if (!client.probeRead(text)) {
            error("fpcprobe: read failed");
            return 1;
        }
        std::cout << text;
    }
    return 0;
} catch (const std::exception &err) {
    error("fpcprobe: {}", err.what());
    return 1;
}
