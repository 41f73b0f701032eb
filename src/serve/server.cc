#include "serve/server.hh"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <system_error>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "util/failpoint.hh"
#include "util/logging.hh"

namespace pcause::serve
{

namespace
{

/** Apply an SO_RCVTIMEO/SO_SNDTIMEO of @p ms to @p fd (0 = leave
 *  blocking forever). */
void
setSocketTimeout(int fd, int option, unsigned ms)
{
    if (ms == 0)
        return;
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(ms / 1000);
    tv.tv_usec = static_cast<suseconds_t>((ms % 1000) * 1000);
    ::setsockopt(fd, SOL_SOCKET, option, &tv, sizeof(tv));
}

} // anonymous namespace

bool
IdentifyGate::enter(std::size_t cap)
{
    std::lock_guard<std::mutex> lock(m);
    if (inFlight >= cap)
        return false;
    ++inFlight;
    return true;
}

void
IdentifyGate::leave()
{
    std::lock_guard<std::mutex> lock(m);
    --inFlight;
    ++answered;
}

std::size_t
IdentifyGate::served() const
{
    std::lock_guard<std::mutex> lock(m);
    return answered;
}

Server::Server(AttackService &service, ServerConfig config)
    : svc(service), cfg(config)
{
    listenFd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd < 0)
        fatal("pcaused: socket: %s", std::strerror(errno));

    const int one = 1;
    ::setsockopt(listenFd, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(cfg.port);
    if (::bind(listenFd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) < 0)
        fatal("pcaused: bind 127.0.0.1:%u: %s", unsigned(cfg.port),
              std::strerror(errno));
    if (::listen(listenFd, 128) < 0)
        fatal("pcaused: listen: %s", std::strerror(errno));

    socklen_t len = sizeof(addr);
    ::getsockname(listenFd, reinterpret_cast<sockaddr *>(&addr),
                  &len);
    boundPort = ntohs(addr.sin_port);

    int pipefd[2];
    if (::pipe(pipefd) < 0)
        fatal("pcaused: pipe: %s", std::strerror(errno));
    wakeRead = pipefd[0];
    wakeWrite = pipefd[1];

    acceptor = std::thread([this] { acceptLoop(); });
}

Server::~Server()
{
    requestStop();
    wait();
    ::close(wakeRead);
    ::close(wakeWrite);
}

void
Server::requestStop()
{
    if (stopping.exchange(true))
        return;
    // Wake the poll() and unblock every connection reader.
    const char byte = 1;
    (void)!::write(wakeWrite, &byte, 1);
    std::lock_guard<std::mutex> lock(connMutex);
    for (int fd : openFds)
        ::shutdown(fd, SHUT_RDWR);
}

void
Server::drain()
{
    if (draining.exchange(true))
        return;
    // Stop accepting (the acceptor checks draining after every
    // wake) but keep the write sides of live connections open:
    // SHUT_RD makes each peer's next request read as EOF while
    // replies to requests already being computed still go out.
    // SHUT_RDWR here would cut the reply path and silently drop
    // those answers.
    const char byte = 1;
    (void)!::write(wakeWrite, &byte, 1);
    {
        std::lock_guard<std::mutex> lock(connMutex);
        for (int fd : openFds)
            ::shutdown(fd, SHUT_RD);
    }
    {
        std::unique_lock<std::mutex> lock(activeMutex);
        activeCv.wait_for(
            lock, std::chrono::milliseconds(cfg.drainTimeoutMs),
            [this] { return active.load() == 0; });
    }
    if (active.load() > 0)
        warn("drain: %zu connections still busy after %u ms, "
             "forcing close",
             active.load(), cfg.drainTimeoutMs);
    // Whether everyone answered or the deadline hit: finish the
    // shutdown (idempotent; also cuts any remaining write sides).
    requestStop();
}

void
Server::wait()
{
    if (acceptor.joinable())
        acceptor.join();
    std::vector<std::thread> workers;
    {
        std::lock_guard<std::mutex> lock(connMutex);
        workers.swap(connections);
    }
    for (std::thread &t : workers)
        if (t.joinable())
            t.join();
}

std::size_t
Server::connectionsServed() const
{
    return served.load();
}

void
Server::acceptLoop()
{
    while (!stopping.load() && !draining.load()) {
        pollfd fds[2] = {{listenFd, POLLIN, 0},
                         {wakeRead, POLLIN, 0}};
        const int n = ::poll(fds, 2, -1);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (stopping.load() || draining.load() ||
            (fds[1].revents & POLLIN))
            break;
        if (!(fds[0].revents & POLLIN))
            continue;

        const int fd = ::accept(listenFd, nullptr, nullptr);
        if (fd < 0)
            continue;
        if (failpoint::hit("serve.accept")) {
            ::close(fd);
            continue;
        }
        // Request-response framing: never wait for Nagle.
        const int nd = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nd, sizeof(nd));
        setSocketTimeout(fd, SO_RCVTIMEO, cfg.readTimeoutMs);
        setSocketTimeout(fd, SO_SNDTIMEO, cfg.writeTimeoutMs);

        std::lock_guard<std::mutex> lock(connMutex);
        // Join the workers that finished since the last accept: a
        // finished std::thread stays joinable, and keeps its stack
        // mapped, until someone joins it. Each has already taken
        // connMutex for the last time, so joining under it is safe.
        for (const std::thread::id id : finished) {
            const auto it = std::find_if(
                connections.begin(), connections.end(),
                [id](const std::thread &t) { return t.get_id() == id; });
            it->join();
            connections.erase(it);
        }
        finished.clear();

        std::thread worker;
        if (active.load() < cfg.maxConnections) {
            try {
                worker = std::thread([this, fd] { serveConnection(fd); });
            } catch (const std::system_error &) {
                // Out of threads: refuse like the connection cap.
            }
        }
        if (!worker.joinable()) {
            // Explicit refusal, not a silent drop.
            writeFrame(fd, encodeError("too many connections"));
            ::close(fd);
            continue;
        }
        active.fetch_add(1);
        openFds.push_back(fd);
        connections.push_back(std::move(worker));
    }
    ::close(listenFd);
    listenFd = -1;
}

void
Server::serveConnection(int fd)
{
    Payload request;
    for (;;) {
        if (failpoint::hit("serve.read"))
            break;
        const ReadStatus st =
            readFrame(fd, request, maxFramePayload);
        if (st == ReadStatus::Eof)
            break;
        if (st != ReadStatus::Ok) {
            // Oversized/empty/truncated/timed-out frames get a
            // clean Error reply (best effort — the peer may be
            // gone) and a close; the server itself keeps running.
            // TimedOut here is the slowloris eviction: a stalled
            // peer loses its connection, not the server a thread.
            sendReply(fd, encodeError(readStatusName(st)));
            break;
        }
        if (!handleFrame(fd, request))
            break;
    }
    ::close(fd);
    {
        std::lock_guard<std::mutex> lock(connMutex);
        openFds.erase(
            std::remove(openFds.begin(), openFds.end(), fd),
            openFds.end());
        finished.push_back(std::this_thread::get_id());
    }
    {
        std::lock_guard<std::mutex> lock(activeMutex);
        active.fetch_sub(1);
    }
    activeCv.notify_all();
    served.fetch_add(1);
}

bool
Server::sendReply(int fd, const Payload &payload)
{
    if (failpoint::hit("serve.write"))
        return false;
    return writeFrame(fd, payload);
}

bool
Server::handleFrame(int fd, const Payload &request)
{
    switch (static_cast<Opcode>(payloadOpcode(request))) {
      case Opcode::Identify: {
        LoadResult<IdentifyRequest> req = decodeIdentify(request);
        if (!req) {
            sendReply(fd, encodeError(req.error));
            return false;
        }
        if (!identifies.enter(cfg.maxInFlight))
            return sendReply(fd, encodeEmpty(Opcode::Busy));
        const IdentifyVerdict verdict = svc.identify(*req);
        identifies.leave();
        return sendReply(fd, encodeVerdict(verdict));
      }
      case Opcode::Characterize: {
        LoadResult<CharacterizeRequest> req =
            decodeCharacterize(request);
        if (!req) {
            sendReply(fd, encodeError(req.error));
            return false;
        }
        const AttackService::AddOutcome out =
            svc.addFingerprint(req->label, req->errorStrings);
        AddReply reply;
        reply.added = out.added;
        reply.record = out.record;
        reply.weight = out.weight;
        reply.error = out.error;
        return sendReply(fd, encodeAdded(reply));
      }
      case Opcode::DbStats: {
        const ServiceDbStats s = svc.dbStats();
        std::string json = "{\"backend\": \"";
        json += s.backend;
        json += "\", \"records\": " + std::to_string(s.records);
        json += ", \"universe_bits\": " +
                std::to_string(s.universeBits);
        json += ", \"volatile_cells\": " +
                std::to_string(s.volatileCells);
        json += ", \"disk_bytes_estimate\": " +
                std::to_string(s.diskBytesEstimate);
        json += ", \"minhash_hashes\": " +
                std::to_string(s.indexParams.numHashes);
        json += ", \"minhash_bands\": " +
                std::to_string(s.indexParams.bands);
        if (s.hasOccupancy) {
            json += ", \"lsh_buckets\": " +
                    std::to_string(s.lshBuckets);
            json += ", \"lsh_largest_bucket\": " +
                    std::to_string(s.largestBucket);
            json += ", \"lsh_bytes\": " + std::to_string(s.lshBytes);
            json += ", \"postings_bytes\": " +
                    std::to_string(s.postingsBytes);
        }
        json += "}";
        return sendReply(fd, encodeJson(json));
      }
      case Opcode::Stats:
        return sendReply(fd, encodeJson(svc.statsJson()));
      case Opcode::Health: {
        // Cheap liveness/readiness probe: no store scan, just
        // counters. "draining" tells orchestration to stop routing
        // new work here while in-flight replies finish.
        std::string json = "{\"status\": \"";
        json += (draining.load() || stopping.load()) ? "draining"
                                                     : "serving";
        json += "\", \"records\": " + std::to_string(svc.size());
        json += ", \"durable\": ";
        json += svc.durable() ? "true" : "false";
        json += ", \"wal_entries\": " +
                std::to_string(svc.walEntries());
        json += ", \"active_connections\": " +
                std::to_string(active.load());
        json += "}";
        return sendReply(fd, encodeJson(json));
      }
      case Opcode::Shutdown:
        sendReply(fd, encodeEmpty(Opcode::Ok));
        requestStop();
        return false;
      default:
        sendReply(fd, encodeError("garbage opcode"));
        return false;
    }
}

} // namespace pcause::serve
