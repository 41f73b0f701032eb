/**
 * @file
 * pcaused — the identification service.
 *
 * Serves identify / characterize / db-stats / live-stats / health
 * over the length-prefixed binary protocol in src/serve/protocol.hh,
 * on a loopback TCP port, with every query flowing through the
 * shared AttackService facade (verdicts bit-identical to direct
 * store queries by construction). Each identify runs on its own
 * connection's thread, so identify concurrency is the number of busy
 * connections, at most --max-connections. An identify that arrives
 * while --queue-cap others are in flight answers BUSY instead of
 * being silently dropped; a connection never has more than one
 * identify in flight, so BUSY only fires when --queue-cap is below
 * --max-connections.
 *
 *   pcaused --db FILE [--mmap yes] [--wal FILE]
 *           [--checkpoint-every N] [--port P] [--port-file PATH]
 *           [--queue-cap N] [--max-connections N]
 *           [--read-timeout-ms N] [--write-timeout-ms N]
 *           [--drain-timeout-ms N]
 *
 * --port 0 (the default) binds an ephemeral port; --port-file
 * writes the bound port for scripts to discover (the CI serve-smoke
 * job's handshake).
 *
 * --wal opens the database durably: every acked Characterize is
 * journaled + fsynced before the reply, so kill -9 at any moment
 * loses nothing acknowledged; the journal compacts into the
 * snapshot on open, every --checkpoint-every adds, and at exit.
 *
 * Shutdown: SIGTERM drains gracefully — stop accepting, let
 * in-flight requests answer, then checkpoint and exit. SIGINT and
 * the Shutdown frame stop hard (still followed by a best-effort
 * checkpoint; the WAL already holds every acked add either way).
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <poll.h>
#include <unistd.h>

#include "core/service.hh"
#include "serve/server.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace
{

using namespace pcause;

/** Self-pipe: the handler only writes one byte; all real shutdown
 *  work happens on the main thread (async-signal-safe). */
int sigPipe[2] = {-1, -1};

void
onSignal(int sig)
{
    const char c = sig == SIGTERM ? 'T' : 'I';
    (void)!::write(sigPipe[1], &c, 1);
}

/** Minimal --flag value parser (the pcause CLI's). */
struct Args
{
    std::map<std::string, std::string> flags;

    static Args parse(int argc, char **argv)
    {
        Args args;
        for (int i = 1; i < argc; ++i) {
            std::string tok = argv[i];
            if (tok.rfind("--", 0) != 0)
                fatal("pcaused: unexpected argument '%s'",
                      tok.c_str());
            const std::string key = tok.substr(2);
            if (i + 1 >= argc)
                fatal("missing value for --%s", key.c_str());
            args.flags[key] = argv[++i];
        }
        return args;
    }

    std::string get(const std::string &key,
                    const std::string &fallback) const
    {
        auto it = flags.find(key);
        return it == flags.end() ? fallback : it->second;
    }

    long getLong(const std::string &key, long fallback) const
    {
        auto it = flags.find(key);
        return it == flags.end() ? fallback : std::stol(it->second);
    }
};

int
usage()
{
    std::puts(
        "pcaused — long-running identification service\n"
        "\n"
        "usage: pcaused --db FILE [--mmap yes] [--wal FILE]\n"
        "               [--checkpoint-every N] [--port P]\n"
        "               [--port-file PATH] [--queue-cap N]\n"
        "               [--max-connections N]\n"
        "               [--read-timeout-ms N] [--write-timeout-ms N]\n"
        "               [--drain-timeout-ms N]\n");
    return 2;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const Args args = Args::parse(argc, argv);
    const std::string db_path = args.get("db", "");
    if (db_path.empty())
        return usage();
    const bool mmap = args.get("mmap", "no") == "yes";
    const std::string wal_path = args.get("wal", "");

    LoadResult<AttackService> svc = [&] {
        if (wal_path.empty())
            return AttackService::open(db_path, mmap);
        if (mmap)
            fatal("pcaused: --wal needs the writable store backend "
                  "(drop --mmap)");
        AttackService::DurabilityConfig dur;
        dur.dbPath = db_path;
        dur.walPath = wal_path;
        dur.checkpointEvery = static_cast<std::size_t>(
            args.getLong("checkpoint-every", 1024));
        return AttackService::openDurable(dur);
    }();
    if (!svc)
        fatal("pcaused: %s", svc.error.c_str());
    svc->setThreadPool(&ThreadPool::global());

    serve::ServerConfig cfg;
    cfg.port = static_cast<std::uint16_t>(args.getLong("port", 0));
    cfg.maxConnections = static_cast<std::size_t>(
        args.getLong("max-connections", 256));
    cfg.maxInFlight =
        static_cast<std::size_t>(args.getLong("queue-cap", 1024));
    cfg.readTimeoutMs = static_cast<unsigned>(
        args.getLong("read-timeout-ms", 30000));
    cfg.writeTimeoutMs = static_cast<unsigned>(
        args.getLong("write-timeout-ms", 5000));
    cfg.drainTimeoutMs = static_cast<unsigned>(
        args.getLong("drain-timeout-ms", 5000));

    if (::pipe(sigPipe) < 0)
        fatal("pcaused: pipe: %s", std::strerror(errno));

    serve::Server server(*svc, cfg);
    // Peers vanishing mid-write must surface as EPIPE, not kill the
    // process (socket sends already use MSG_NOSIGNAL; this covers
    // any other fd that turns into a pipe).
    std::signal(SIGPIPE, SIG_IGN);
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    const std::string port_file = args.get("port-file", "");
    if (!port_file.empty()) {
        std::ofstream f(port_file);
        f << server.port() << "\n";
        if (!f)
            fatal("pcaused: cannot write %s", port_file.c_str());
    }
    std::printf("pcaused: serving %zu records (%s backend%s) on "
                "127.0.0.1:%u\n",
                svc->size(), svc->readOnly() ? "mmap" : "store",
                svc->durable() ? ", durable" : "",
                unsigned(server.port()));
    std::fflush(stdout);

    // Wait for a signal byte or a protocol-initiated stop (Shutdown
    // frame). The 200 ms poll bound only affects how fast we notice
    // the latter.
    for (;;) {
        if (server.stopRequested())
            break;
        pollfd pfd{sigPipe[0], POLLIN, 0};
        const int n = ::poll(&pfd, 1, 200);
        if (n <= 0)
            continue;
        char c = 0;
        if (::read(sigPipe[0], &c, 1) != 1)
            continue;
        if (c == 'T') {
            std::printf("pcaused: SIGTERM — draining\n");
            std::fflush(stdout);
            server.drain();
        } else {
            server.requestStop();
        }
        break;
    }
    server.wait();

    if (svc->durable()) {
        const std::string err = svc->checkpoint();
        if (!err.empty())
            warn("pcaused: final checkpoint failed (journal still "
                 "holds every acked add): %s",
                 err.c_str());
    }

    std::printf("pcaused: stopped after %zu connections\n",
                server.connectionsServed());
    return 0;
}
