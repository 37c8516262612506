// Streaming TCP transport tests: TCP and stdio (serve()) round trips are
// byte-identical to a single-threaded handle_line replay for legacy (v1)
// requests at 1 and 4 scheduler threads,
// per-connection response ordering, v2 priority requests over the wire,
// structured shed/error responses, and the stale-socket-file recovery of
// Listener::unix_socket.
#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "service/server.hpp"
#include "service/tcp.hpp"
#include "util/json.hpp"

namespace omega::service {
namespace {

const char* kCoraQuarter =
    R"({"dataset":"Cora","scale":0.25})";

std::string line_evaluate(std::uint64_t id) {
  return R"({"id":)" + std::to_string(id) +
         R"(,"kind":"evaluate","workload":)" + kCoraQuarter +
         R"(,"out_features":16,"pattern":"SP2"})";
}

std::string line_search(std::uint64_t id) {
  return R"({"id":)" + std::to_string(id) +
         R"(,"kind":"search_mappings","workload":)" + kCoraQuarter +
         R"(,"out_features":16,"top_k":2})";
}

std::string line_evaluate_v2(std::uint64_t id, std::uint64_t priority) {
  return R"({"id":)" + std::to_string(id) + R"(,"version":2,"priority":)" +
         std::to_string(priority) + R"(,"kind":"evaluate","workload":)" +
         kCoraQuarter + R"(,"out_features":16,"pattern":"SP2"})";
}

/// Streams `lines` over one TCP connection against a fresh service with
/// `threads` scheduler threads and returns the response lines in arrival
/// order.
std::vector<std::string> tcp_exchange(const std::vector<std::string>& lines,
                                      std::size_t threads) {
  MappingService svc;
  Listener listener = Listener::tcp("127.0.0.1", 0);
  const std::uint16_t port = listener.port();
  ServeOptions so;
  so.max_connections = 1;
  so.scheduler_threads = threads;
  std::thread server([&] { serve_on(svc, listener, so); });
  std::vector<std::string> responses;
  {
    StreamClient client = StreamClient::connect_tcp("127.0.0.1", port);
    for (const std::string& line : lines) client.send_line(line);
    client.shutdown_writes();
    while (std::optional<std::string> r = client.read_line()) {
      responses.push_back(std::move(*r));
    }
  }
  server.join();
  return responses;
}

/// Replays `lines` through serve() (one stdio session) against a fresh
/// service with `threads` scheduler threads.
std::vector<std::string> stdio_exchange(const std::vector<std::string>& lines,
                                        std::size_t threads) {
  MappingService svc;
  std::string input;
  for (const std::string& line : lines) input += line + "\n";
  std::istringstream in(input);
  std::ostringstream out;
  ServeOptions so;
  so.scheduler_threads = threads;
  (void)svc.serve(in, out, so);
  std::vector<std::string> responses;
  std::istringstream reread(out.str());
  for (std::string l; std::getline(reread, l);) responses.push_back(l);
  return responses;
}

TEST(TcpStreamTest, RoundTripIsByteIdenticalToStdioBatch) {
  const std::vector<std::string> lines = {
      line_evaluate(1), line_search(2), line_evaluate(3),
      R"({"id":4,"kind":"stats"})", line_evaluate(5)};
  MappingService reference;
  std::vector<std::string> expected;
  for (const std::string& line : lines) {
    expected.push_back(reference.handle_line(line));
  }
  // Neither transport may change a single byte for legacy requests, whether
  // the scheduler runs serial or concurrent: v1 requests all share band 0,
  // per-band emission preserves submission order, and the stats barrier
  // sees exactly the requests before it.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    EXPECT_EQ(tcp_exchange(lines, threads), expected) << "threads=" << threads;
    EXPECT_EQ(stdio_exchange(lines, threads), expected)
        << "threads=" << threads;
  }
}

TEST(TcpStreamTest, PerConnectionOrderHoldsAcrossThreadCounts) {
  std::vector<std::string> lines;
  for (std::uint64_t id = 1; id <= 10; ++id) {
    lines.push_back(line_evaluate(id));
  }
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const std::vector<std::string> got = tcp_exchange(lines, threads);
    ASSERT_EQ(got.size(), lines.size()) << "threads=" << threads;
    for (std::uint64_t id = 1; id <= got.size(); ++id) {
      EXPECT_EQ(JsonValue::parse(got[id - 1]).find("id")->as_u64(), id)
          << "threads=" << threads;
    }
  }
}

TEST(TcpStreamTest, VersionTwoPriorityRequestsRoundTrip) {
  const std::vector<std::string> got = tcp_exchange(
      {line_evaluate_v2(1, 7), line_evaluate_v2(2, 0)}, /*threads=*/2);
  ASSERT_EQ(got.size(), 2u);
  for (const std::string& line : got) {
    const JsonValue v = JsonValue::parse(line);
    EXPECT_TRUE(v.find("ok")->as_bool());
    EXPECT_EQ(v.find("version")->as_u64(), 2u);
  }
}

TEST(TcpStreamTest, SchedulingFieldsOnV1LineYieldStructuredError) {
  // priority without "version":2 is a protocol violation — the server must
  // answer with a structured error on the stream, not drop the connection.
  const std::string bad = R"({"id":9,"priority":3,"kind":"evaluate",)"
                          R"("workload":)" +
                          std::string(kCoraQuarter) +
                          R"(,"out_features":16,"pattern":"SP2"})";
  const std::vector<std::string> got =
      tcp_exchange({bad, line_evaluate(10)}, /*threads=*/1);
  ASSERT_EQ(got.size(), 2u);
  const JsonValue err = JsonValue::parse(got[0]);
  EXPECT_EQ(err.find("id")->as_u64(), 9u);
  EXPECT_FALSE(err.find("ok")->as_bool());
  EXPECT_EQ(err.find("error")->find("type")->as_string(),
            "InvalidArgumentError");
  EXPECT_TRUE(JsonValue::parse(got[1]).find("ok")->as_bool());
}

TEST(TcpStreamTest, StaleUnixSocketFileIsReplaced) {
  const std::string path = ::testing::TempDir() + "omega_tcp_test_stale.sock";
  std::remove(path.c_str());
  {
    // Bind and immediately drop the listener WITHOUT unlinking by leaking
    // the file: simulate a crashed server by binding, closing via dtor…
    Listener first = Listener::unix_socket(path);
  }
  // …the dtor unlinks, so recreate a dead socket file the hard way: bind,
  // then move the listener into a scope we abandon after dup'ing nothing.
  // Simplest reliable stale state: create the file via a listener whose
  // unlink is defeated by renaming a fresh socket over the path.
  const std::string tmp = path + ".tmp";
  {
    Listener doomed = Listener::unix_socket(tmp);
    ASSERT_EQ(std::rename(tmp.c_str(), path.c_str()), 0);
  }  // doomed's dtor unlinks tmp (already renamed away): `path` is now a
     // socket file with no listener behind it — exactly the crash leftover.
  Listener recovered = Listener::unix_socket(path);  // must not throw
  EXPECT_GE(recovered.fd(), 0);
}

TEST(TcpStreamTest, LiveUnixSocketIsNotStolen) {
  const std::string path = ::testing::TempDir() + "omega_tcp_test_live.sock";
  std::remove(path.c_str());
  Listener live = Listener::unix_socket(path);
  EXPECT_THROW(Listener::unix_socket(path), Error);
}

}  // namespace
}  // namespace omega::service
