/**
 * @file
 * pcaused server core: accept loop + thread-per-connection workers
 * over the wire protocol, all queries flowing through one shared
 * AttackService.
 *
 * The accept loop polls the listening socket alongside a wakeup
 * pipe so stop() interrupts it promptly; each accepted connection
 * gets a worker thread that reads frames, dispatches, and writes
 * replies until the peer closes or sends something malformed
 * (answered with Error, then the connection is closed — hostile
 * bytes never take the server down). A well-formed Identify of the
 * wrong bit count is answered with Error too, on a connection that
 * stays open. The acceptor joins finished
 * workers before it spawns the next, so a long-lived server keeps
 * one thread per live connection, not one per connection ever made.
 *
 * Each identify runs inline on its connection's thread:
 * AttackService::identify under the service's shared lock, then the
 * reply. Identify concurrency is therefore the number of busy
 * connections, at most maxConnections. A connection never has more
 * than one identify in flight, so the BUSY cap (maxInFlight) only
 * sheds load when it is below maxConnections.
 */

#ifndef PCAUSE_SERVE_SERVER_HH
#define PCAUSE_SERVE_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/service.hh"
#include "serve/protocol.hh"

namespace pcause::serve
{

/** Server tuning. */
struct ServerConfig
{
    /** Port to bind on 127.0.0.1; 0 picks an ephemeral port
     *  (read it back from port()). */
    std::uint16_t port = 0;

    /** Accepted connections beyond this are closed immediately
     *  after an Error reply. */
    std::size_t maxConnections = 256;

    /**
     * SO_RCVTIMEO per connection, milliseconds; 0 disables. A peer
     * that idles — or stalls mid-frame (slowloris) — past this is
     * answered with Error("read timeout") best-effort and evicted,
     * so stalled connections can never pin worker threads or hold
     * maxConnections slots forever.
     */
    unsigned readTimeoutMs = 30000;

    /** SO_SNDTIMEO per connection, milliseconds; 0 disables. A
     *  peer that stops reading its replies is evicted once the
     *  socket buffer stays full this long. */
    unsigned writeTimeoutMs = 5000;

    /** How long drain() waits for in-flight requests to answer
     *  before forcing the remaining connections closed. */
    unsigned drainTimeoutMs = 5000;

    /** An identify that arrives while this many are in flight is
     *  answered BUSY. Zero sheds every identify. */
    std::size_t maxInFlight = 1024;
};

/** Identify admission: the BUSY cap's in-flight count and the
 *  number of identifies answered. */
class IdentifyGate
{
  public:
    /** Claim an in-flight slot; false when @p cap are taken. */
    bool enter(std::size_t cap);

    /** Release a slot enter() claimed and count one answer. */
    void leave();

    /** Identifies answered so far. */
    std::size_t served() const;

    /** Service calls behind those answers: each identify is its
     *  own call, so this equals served(). */
    std::size_t batches() const { return served(); }

  private:
    mutable std::mutex m;
    std::size_t inFlight = 0;
    std::size_t answered = 0;
};

/** A running pcaused instance (see file comment). */
class Server
{
  public:
    /** Binds and starts the accept loop; fatal() on bind failure. */
    Server(AttackService &service, ServerConfig config);

    /** Stops and joins everything. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bound port (the ephemeral one when config.port was 0). */
    std::uint16_t port() const { return boundPort; }

    /** Request shutdown: stops accepting, unblocks workers. */
    void requestStop();

    /**
     * Graceful drain (the SIGTERM path): stop accepting, half-close
     * every connection's read side so no *new* requests arrive,
     * then wait up to drainTimeoutMs for in-flight requests to be
     * answered before forcing the rest closed. An accepted request
     * is either answered or explicitly BUSY'd, never silently
     * dropped.
     */
    void drain();

    /** True once a stop or drain has been requested (a Shutdown
     *  frame, requestStop(), or drain()). */
    bool stopRequested() const { return stopping.load(); }

    /** Block until the server has stopped (a Shutdown frame or
     *  requestStop()). */
    void wait();

    /** Connections served to completion. */
    std::size_t connectionsServed() const;

    /** Identify counters (served, and batches == served), under
     *  the name the benches read. */
    const IdentifyGate &batcher() const { return identifies; }

  private:
    void acceptLoop();
    void serveConnection(int fd);
    bool handleFrame(int fd, const Payload &request);

    /** writeFrame with the serve.write failpoint in front. */
    bool sendReply(int fd, const Payload &payload);

    AttackService &svc;
    const ServerConfig cfg;
    IdentifyGate identifies;

    int listenFd = -1;
    int wakeRead = -1;
    int wakeWrite = -1;
    std::uint16_t boundPort = 0;

    std::atomic<bool> stopping{false};
    std::atomic<bool> draining{false};
    std::atomic<std::size_t> served{0};
    std::atomic<std::size_t> active{0};

    /** Signaled whenever a worker finishes; drain() waits on it. */
    std::mutex activeMutex;
    std::condition_variable activeCv;

    std::mutex connMutex;
    std::vector<std::thread> connections;
    std::vector<int> openFds;

    /** Workers that have finished serving; the acceptor joins them
     *  (guarded by connMutex). */
    std::vector<std::thread::id> finished;

    std::thread acceptor;
};

} // namespace pcause::serve

#endif // PCAUSE_SERVE_SERVER_HH
