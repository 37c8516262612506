// Transports of the serving core (see DESIGN.md "Serving core"): stdio,
// TCP and Unix sockets all run the same NDJSON session on a
// RequestScheduler.
//
// A session frames NDJSON incrementally: it reads one line at a time,
// submits it to the request scheduler, and each response streams back the
// moment its request finishes. A fast request never waits behind a slow
// search. Blank lines are no-ops.
//
// Concurrency model:
//
//  * stdio (MappingService::serve) is one session on its own scheduler;
//  * a socket server runs one accept loop, and every accepted connection
//    gets its own session thread (reads + submits);
//  * the scheduler's dispatch threads execute requests and write
//    responses back; on a socket server the scheduler spans connections,
//    so priority bands and the admission bound apply to total load;
//  * a session holds at most `queue_depth` unemitted requests: at the cap
//    its reader waits instead of submitting, so one session (a long stdio
//    batch, say) never sheds its own requests. Load spread across
//    connections still sheds at the admission bound.
//
// Ordering contract (pinned by tests): responses stream in **per-session
// request order within a priority band**. Requests of one session and band
// emit in submission order even when they execute out of order or
// concurrently; requests in different bands (or sessions) may interleave
// freely. Since v1 requests carry no priority they all share band 0, so a
// v1 request stream yields byte-identical response bytes on every
// transport. Barrier requests (stats/metrics) drain the session's in-flight
// requests before and after dispatch, which keeps their counters
// deterministic per session.
//
// Backpressure caveat: responses are written under a per-session mutex from
// scheduler threads; a peer that stops reading eventually blocks those
// writes (and with them the session's reader). Clients that send a large
// stream before reading should read concurrently with sending.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace omega::service {

class MappingService;

/// Transport + scheduling knobs of the serving core. Stdio
/// (MappingService::serve) uses only the scheduler fields; max_connections
/// and backlog apply to socket servers.
struct ServeOptions {
  /// Accept this many connections then return (0 = serve until killed).
  std::size_t max_connections = 0;
  /// listen() backlog (pending-accept queue length).
  int backlog = 64;
  /// Scheduler admission bound: requests waiting across all sessions. Also
  /// each session's cap on its own unemitted requests.
  std::size_t queue_depth = 256;
  /// Scheduler dispatch threads (0 = one per hardware thread).
  std::size_t scheduler_threads = 0;
  /// Deadlines below this are shed at admission (0 = disabled).
  std::uint64_t min_feasible_deadline_ms = 0;
};

/// A bound+listening server socket (RAII: closes, and unlinks a Unix socket
/// path, on destruction). Two-step construction — bind first, serve_on
/// later — lets in-process callers bind TCP port 0 and read the resolved
/// port before any client races the server.
class Listener {
 public:
  /// Binds and listens on `bind_addr:port` (IPv4 dotted quad; port 0 picks
  /// an ephemeral port, readable via port()). Throws Error on failure.
  static Listener tcp(const std::string& bind_addr, std::uint16_t port,
                      int backlog = 64);

  /// Binds and listens on a Unix-domain socket at `path`. A stale socket
  /// file (no listener behind it) is detected by a connect probe and
  /// replaced; a live server at `path` is an error — the unlink-then-bind
  /// of the legacy path silently stole live sockets. Throws Error on
  /// failure.
  static Listener unix_socket(const std::string& path, int backlog = 64);

  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;
  ~Listener();

  /// The bound TCP port (resolved — meaningful after tcp() with port 0).
  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] int fd() const { return fd_; }

 private:
  Listener() = default;
  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::string unlink_path_;  // non-empty: unix socket file to remove
};

/// Runs the streaming accept loop on an already-bound listener: concurrent
/// per-connection sessions feeding one shared request scheduler. Returns 0
/// after `options.max_connections` connections have been accepted and fully
/// served (0 = loops until the process is killed). The listener's backlog
/// was fixed at bind time; options.backlog is ignored here.
int serve_on(MappingService& service, Listener& listener,
             const ServeOptions& options = {});

/// Binds a Unix-domain socket at `path` (Listener::unix_socket) and runs
/// serve_on on it.
int serve_unix_socket(MappingService& service, const std::string& path,
                      const ServeOptions& options = {});

/// Incremental NDJSON framing over a socket fd, shared by server sessions
/// and StreamClient: yields one line at a time as bytes arrive.
class LineFramer {
 public:
  /// Next complete line read from `fd` (newline stripped); a trailing
  /// unterminated line is yielded at EOF; nullopt once the stream is
  /// exhausted. Throws Error on a read failure or when a line grows past
  /// 64 MiB (a peer streaming garbage without a newline must exhaust this
  /// cap, not the heap).
  [[nodiscard]] std::optional<std::string> next_line(int fd);

 private:
  std::string buf_;
  std::size_t scan_ = 0;  // '\n' search resumes here (no rescan)
  bool eof_ = false;
};

/// Streaming client: sends request lines and reads response lines
/// incrementally on one connection — responses arrive as the server
/// completes them, concurrently with further sends. One thread may send
/// while another reads.
class StreamClient {
 public:
  static StreamClient connect_tcp(const std::string& host,
                                  std::uint16_t port);
  static StreamClient connect_unix(const std::string& path);

  StreamClient(StreamClient&& other) noexcept;
  StreamClient& operator=(StreamClient&& other) noexcept;
  StreamClient(const StreamClient&) = delete;
  StreamClient& operator=(const StreamClient&) = delete;
  ~StreamClient();

  /// Sends one request line (the newline is appended).
  void send_line(const std::string& line);
  /// Half-closes the write side: tells the server no more requests follow.
  void shutdown_writes();
  /// Blocks for the next full response line; nullopt once the server
  /// closes the connection.
  [[nodiscard]] std::optional<std::string> read_line();

 private:
  explicit StreamClient(int fd) : fd_(fd) {}
  int fd_ = -1;
  LineFramer framer_;
};

}  // namespace omega::service
