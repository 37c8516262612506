#include "service/tcp.hpp"

#include <algorithm>
#include <condition_variable>
#include <functional>
#include <istream>
#include <map>
#include <mutex>
#include <ostream>
#include <thread>
#include <utility>
#include <vector>

#include "service/protocol.hpp"
#include "service/scheduler.hpp"
#include "service/server.hpp"
#include "util/error.hpp"
#include "util/format.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define OMEGA_HAVE_SOCKETS 1
#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#include <cerrno>
#include <cstring>
#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0  // macOS: no flag; EPIPE still surfaces via SO_NOSIGPIPE
#endif
#endif

namespace omega::service {

namespace {

/// A session's response sink: writes one frame (the response plus its
/// '\n'); throws when the peer is gone.
using FrameSink = std::function<void(const std::string&)>;

/// Per-session emission state. Completions land here from scheduler
/// threads; responses are written in per-band submission order (the
/// transports' ordering contract — see tcp.hpp).
struct Session {
  Session(FrameSink sink, std::size_t bands)
      : write(std::move(sink)), next_submit(bands, 0), next_emit(bands, 0),
        pending(bands) {}

  const FrameSink write;
  std::mutex mu;
  std::condition_variable emitted;  // in_flight went down
  std::vector<std::uint64_t> next_submit;  // per band
  std::vector<std::uint64_t> next_emit;    // per band
  /// Out-of-order completions parked until their band's emission cursor
  /// reaches them, keyed by submission sequence.
  std::vector<std::map<std::uint64_t, std::string>> pending;
  std::size_t in_flight = 0;  // submitted, not yet emitted
  bool write_failed = false;  // peer gone: drain silently, daemon lives
};

/// Writes every response that is next in its band's submission order.
/// Session mutex must be held (serializes writes across bands so frames
/// never interleave).
void emit_ready_locked(Session& s, std::size_t band) {
  auto& slots = s.pending[band];
  while (!slots.empty() && slots.begin()->first == s.next_emit[band]) {
    if (!s.write_failed) {
      try {
        std::string frame = std::move(slots.begin()->second);
        frame.push_back('\n');
        s.write(frame);
      } catch (const std::exception&) {
        s.write_failed = true;
      }
    }
    slots.erase(slots.begin());
    ++s.next_emit[band];
    --s.in_flight;
  }
  s.emitted.notify_all();
}

/// Blocks until the session holds at most `limit` unemitted requests.
void wait_in_flight_at_most(Session& s, std::size_t limit) {
  std::unique_lock lock(s.mu);
  s.emitted.wait(lock, [&s, limit] { return s.in_flight <= limit; });
}

/// One session: reads lines from `next_line` until it yields nullopt,
/// submits each to the scheduler, and streams completions to `write`.
/// Never throws (a dropped connection must not take down the accept loop);
/// returns once every submitted request has been emitted, with the number
/// of requests submitted.
std::size_t run_session(
    RequestScheduler& scheduler,
    const std::function<std::optional<std::string>()>& next_line,
    FrameSink write) {
  const std::size_t bands = scheduler.options().bands;
  // Per-session bound on unemitted requests: the reader waits at the cap
  // instead of submitting, so one session alone never overruns the
  // admission queue (the scheduler clamps the depth to at least 1).
  const std::size_t cap = scheduler.options().max_queue_depth;
  Session s(std::move(write), bands);
  std::size_t submitted = 0;
  try {
    std::optional<std::string> line;
    while ((line = next_line()).has_value()) {
      if (trim(*line).empty()) continue;  // blank lines are no-ops
      // Barriers (stats/metrics) stay deterministic per session: every
      // prior request finishes and emits before the barrier dispatches,
      // and the barrier emits before anything after it is submitted.
      const RequestScheduling sched = peek_request_scheduling(*line);
      const bool barrier = sched.barrier;
      wait_in_flight_at_most(s, barrier ? 0 : cap - 1);
      SubmitMeta meta;
      meta.id = sched.id;
      meta.version = sched.version;
      meta.priority = sched.priority;
      meta.deadline_ms = sched.deadline_ms;
      const std::uint64_t band =
          std::min<std::uint64_t>(sched.priority, bands - 1);
      std::uint64_t seq = 0;
      {
        const std::scoped_lock lock(s.mu);
        seq = s.next_submit[band]++;
        ++s.in_flight;
      }
      ++submitted;
      // Shed completions flow through the same path as handled responses,
      // so they too respect per-band order and reach the client as
      // structured errors rather than a dropped connection.
      (void)scheduler.submit(
          std::move(*line), meta,
          [&s, band, seq](std::string response, bool /*shed*/) {
            const std::scoped_lock lock(s.mu);
            s.pending[band].emplace(seq, std::move(response));
            emit_ready_locked(s, band);
          });
      if (barrier) wait_in_flight_at_most(s, 0);
    }
  } catch (const std::exception&) {
    // Session-level failure (peer vanished, oversized line); fall through
    // to the drain so no in-flight completion touches a dead session, then
    // end the session. The daemon lives on.
  }
  wait_in_flight_at_most(s, 0);
  return submitted;
}

/// The request scheduler every transport dispatches through.
RequestScheduler make_scheduler(MappingService& service,
                                const ServeOptions& options) {
  SchedulerOptions so;
  so.workers = options.scheduler_threads;
  so.max_queue_depth = options.queue_depth;
  so.min_feasible_deadline_ms = options.min_feasible_deadline_ms;
  so.metrics = &service.metrics_mut();
  return RequestScheduler(
      [&service](const std::string& line) { return service.handle_line(line); },
      so);
}

}  // namespace

std::size_t MappingService::serve(std::istream& in, std::ostream& out,
                                  const ServeOptions& options) {
  RequestScheduler scheduler = make_scheduler(*this, options);
  scheduler.start();
  const std::size_t served = run_session(
      scheduler,
      [&in]() -> std::optional<std::string> {
        std::string line;
        if (!std::getline(in, line)) return std::nullopt;
        return line;
      },
      [&out](const std::string& frame) {
        out << frame;
        out.flush();  // stream each response as it is emitted
      });
  scheduler.stop();
  return served;
}

#if OMEGA_HAVE_SOCKETS

namespace {

/// Hard cap on one framed line (see LineFramer::next_line).
constexpr std::size_t kMaxLineBytes = 64ull << 20;

/// Disarms SIGPIPE for writes on this socket where MSG_NOSIGNAL does not
/// exist (macOS): without it an early-disconnecting peer would kill the
/// process instead of surfacing EPIPE to the per-connection handler.
void disarm_sigpipe(int fd) {
#ifdef SO_NOSIGPIPE
  const int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_NOSIGPIPE, &one, sizeof(one));
#else
  (void)fd;  // linux: write_all's MSG_NOSIGNAL covers it
#endif
}

void write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    // MSG_NOSIGNAL: a peer that disconnected before reading must surface
    // as EPIPE (caught per-connection) — the default SIGPIPE disposition
    // would kill the whole daemon.
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
    } else if (errno != EINTR) {
      throw Error(std::string("socket write failed: ") + std::strerror(errno));
    }
  }
}

/// One connection's session; owns and closes `conn`.
void serve_connection(RequestScheduler& scheduler, int conn) {
  LineFramer framer;
  (void)run_session(
      scheduler, [&framer, conn] { return framer.next_line(conn); },
      [conn](const std::string& frame) { write_all(conn, frame); });
  ::close(conn);
}

[[noreturn]] void throw_errno(const std::string& what) {
  throw Error(what + ": " + std::strerror(errno));
}

/// Connects a TCP socket to host:port (name resolution via getaddrinfo).
int connect_tcp_fd(const std::string& host, std::uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* results = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(),
                               &hints, &results);
  if (rc != 0) {
    throw Error("cannot resolve " + host + ": " + ::gai_strerror(rc));
  }
  int fd = -1;
  std::string why = "no addresses";
  for (const addrinfo* ai = results; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      why = std::strerror(errno);
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    why = std::strerror(errno);
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(results);
  if (fd < 0) {
    throw Error("cannot connect to " + host + ":" + std::to_string(port) +
                ": " + why);
  }
  disarm_sigpipe(fd);
  return fd;
}

sockaddr_un unix_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw InvalidArgumentError("socket path too long: " + path);
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  return addr;
}

int connect_unix_fd(const std::string& path) {
  const sockaddr_un addr = unix_addr(path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket() failed");
  disarm_sigpipe(fd);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    throw Error("cannot connect to " + path + ": " + why);
  }
  return fd;
}

}  // namespace

std::optional<std::string> LineFramer::next_line(int fd) {
  for (;;) {
    const std::size_t nl = buf_.find('\n', scan_);
    if (nl != std::string::npos) {
      std::string line = buf_.substr(0, nl);
      buf_.erase(0, nl + 1);
      scan_ = 0;
      return line;
    }
    scan_ = buf_.size();
    if (eof_) {
      if (buf_.empty()) return std::nullopt;
      std::string line = std::move(buf_);
      buf_.clear();
      return line;
    }
    if (buf_.size() > kMaxLineBytes) {
      throw Error("line exceeds " + std::to_string(kMaxLineBytes) +
                  " bytes");
    }
    char chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n > 0) {
      buf_.append(chunk, static_cast<std::size_t>(n));
    } else if (n == 0) {
      eof_ = true;
    } else if (errno != EINTR) {
      throw Error(std::string("socket read failed: ") + std::strerror(errno));
    }
  }
}

Listener::Listener(Listener&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      port_(std::exchange(other.port_, 0)),
      unlink_path_(std::move(other.unlink_path_)) {
  other.unlink_path_.clear();
}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    if (!unlink_path_.empty()) ::unlink(unlink_path_.c_str());
    fd_ = std::exchange(other.fd_, -1);
    port_ = std::exchange(other.port_, 0);
    unlink_path_ = std::move(other.unlink_path_);
    other.unlink_path_.clear();
  }
  return *this;
}

Listener::~Listener() {
  if (fd_ >= 0) ::close(fd_);
  if (!unlink_path_.empty()) ::unlink(unlink_path_.c_str());
}

Listener Listener::tcp(const std::string& bind_addr, std::uint16_t port,
                       int backlog) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket() failed");
  // SO_REUSEADDR: a restarted server must not wait out TIME_WAIT of its
  // previous incarnation's connections.
  const int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, bind_addr.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw InvalidArgumentError("invalid bind address: " + bind_addr);
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, backlog) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    throw Error("cannot listen on " + bind_addr + ":" +
                std::to_string(port) + ": " + why);
  }
  Listener l;
  l.fd_ = fd;
  // Resolve the bound port (meaningful when the caller asked for port 0).
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    l.port_ = ntohs(bound.sin_port);
  }
  return l;
}

Listener Listener::unix_socket(const std::string& path, int backlog) {
  const sockaddr_un addr = unix_addr(path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket() failed");

  // Bind first; only reclaim the path when it is provably stale. The
  // legacy unlink-then-bind would silently steal the socket of a live
  // server (and two racing starts could each believe they own it).
  int rc = ::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr));
  if (rc != 0 && errno == EADDRINUSE) {
    const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (probe >= 0) {
      const bool live = ::connect(probe, reinterpret_cast<const sockaddr*>(
                                              &addr),
                                  sizeof(addr)) == 0;
      const bool stale = !live && errno == ECONNREFUSED;
      ::close(probe);
      if (live) {
        ::close(fd);
        throw Error("another server is already listening on " + path);
      }
      if (stale) {
        ::unlink(path.c_str());
        rc = ::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr));
      }
    }
  }
  if (rc != 0 || ::listen(fd, backlog) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    throw Error("cannot listen on " + path + ": " + why);
  }
  Listener l;
  l.fd_ = fd;
  l.unlink_path_ = path;
  return l;
}

int serve_on(MappingService& service, Listener& listener,
             const ServeOptions& options) {
  RequestScheduler scheduler = make_scheduler(service, options);
  scheduler.start();

  // Session threads are reaped as they finish (a long-lived daemon must not
  // accumulate one joinable thread per past connection): each session
  // pushes its id when done, the accept loop joins those before spawning
  // the next session.
  std::mutex reap_mu;
  std::vector<std::uint64_t> done;
  std::map<std::uint64_t, std::thread> active;
  std::uint64_t next_id = 0;
  const auto reap = [&](bool all) {
    std::vector<std::uint64_t> finished;
    {
      const std::scoped_lock lock(reap_mu);
      finished.swap(done);
    }
    if (all) {
      for (auto& [id, t] : active) t.join();
      active.clear();
      return;
    }
    for (const std::uint64_t id : finished) {
      const auto it = active.find(id);
      if (it != active.end()) {
        it->second.join();
        active.erase(it);
      }
    }
  };

  std::string failure;
  std::size_t accepted = 0;
  while (options.max_connections == 0 ||
         accepted < options.max_connections) {
    const int conn = ::accept(listener.fd(), nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) continue;
      failure = std::string("accept() failed: ") + std::strerror(errno);
      break;
    }
    disarm_sigpipe(conn);
    ++accepted;
    reap(/*all=*/false);
    const std::uint64_t id = next_id++;
    active.emplace(id, std::thread([&scheduler, &reap_mu, &done, conn, id] {
                     serve_connection(scheduler, conn);
                     const std::scoped_lock lock(reap_mu);
                     done.push_back(id);
                   }));
  }
  reap(/*all=*/true);
  scheduler.stop();
  if (!failure.empty()) throw Error(failure);
  return 0;
}

int serve_unix_socket(MappingService& service, const std::string& path,
                      const ServeOptions& options) {
  Listener listener = Listener::unix_socket(path, options.backlog);
  return serve_on(service, listener, options);
}

StreamClient::StreamClient(StreamClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      framer_(std::exchange(other.framer_, {})) {}

StreamClient& StreamClient::operator=(StreamClient&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    framer_ = std::exchange(other.framer_, {});
  }
  return *this;
}

StreamClient::~StreamClient() {
  if (fd_ >= 0) ::close(fd_);
}

StreamClient StreamClient::connect_tcp(const std::string& host,
                                       std::uint16_t port) {
  return StreamClient(connect_tcp_fd(host, port));
}

StreamClient StreamClient::connect_unix(const std::string& path) {
  return StreamClient(connect_unix_fd(path));
}

void StreamClient::send_line(const std::string& line) {
  write_all(fd_, line + "\n");
}

void StreamClient::shutdown_writes() { (void)::shutdown(fd_, SHUT_WR); }

std::optional<std::string> StreamClient::read_line() {
  return framer_.next_line(fd_);
}

#else  // !OMEGA_HAVE_SOCKETS

namespace {
[[noreturn]] void no_sockets() {
  throw Error("sockets are not supported on this platform");
}
}  // namespace

Listener::Listener(Listener&&) noexcept = default;
Listener& Listener::operator=(Listener&&) noexcept = default;
Listener::~Listener() = default;
Listener Listener::tcp(const std::string&, std::uint16_t, int) {
  no_sockets();
}
Listener Listener::unix_socket(const std::string&, int) { no_sockets(); }

int serve_on(MappingService&, Listener&, const ServeOptions&) {
  no_sockets();
}
int serve_unix_socket(MappingService&, const std::string&,
                      const ServeOptions&) {
  no_sockets();
}

std::optional<std::string> LineFramer::next_line(int) { no_sockets(); }

StreamClient::StreamClient(StreamClient&&) noexcept = default;
StreamClient& StreamClient::operator=(StreamClient&&) noexcept = default;
StreamClient::~StreamClient() = default;
StreamClient StreamClient::connect_tcp(const std::string&, std::uint16_t) {
  no_sockets();
}
StreamClient StreamClient::connect_unix(const std::string&) { no_sockets(); }
void StreamClient::send_line(const std::string&) { no_sockets(); }
void StreamClient::shutdown_writes() { no_sockets(); }
std::optional<std::string> StreamClient::read_line() { no_sockets(); }

#endif

}  // namespace omega::service
