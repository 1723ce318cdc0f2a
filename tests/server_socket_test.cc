// TCP transport + connection supervision, end to end over loopback: the
// socket server must stream bit-identically to a direct vae::AqpClient,
// survive forced connection drops mid-stream via token resumption (same
// bytes, exactly once), reap silent connections without killing their
// sessions, shed overload with explicit SERVER_BUSY errors, answer
// heartbeats, and drain gracefully on shutdown.

#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "aqp/sql_parser.h"
#include "data/generators.h"
#include "server/server.h"
#include "server/socket_client.h"
#include "server/socket_transport.h"
#include "util/failpoint.h"
#include "vae/client.h"
#include "vae/vae_model.h"

namespace deepaqp::server {
namespace {

/// Arms a failpoint spec for one test body and guarantees a clean registry
/// afterwards (no spec leaks into the next test).
struct FailpointGuard {
  explicit FailpointGuard(const std::string& spec) {
    EXPECT_TRUE(util::ConfigureFailpoints(spec).ok());
  }
  ~FailpointGuard() { util::DisableFailpoints(); }
};

const std::vector<uint8_t>& ModelBytes() {
  static std::vector<uint8_t>* bytes = [] {
    auto table = data::GenerateTaxi({.rows = 4000, .seed = 21});
    vae::VaeAqpOptions opts;
    opts.epochs = 8;
    opts.hidden_dim = 48;
    opts.seed = 77;
    opts.encoder.numeric_bins = 16;
    auto model = vae::VaeAqpModel::Train(table, opts);
    EXPECT_TRUE(model.ok());
    return new std::vector<uint8_t>((*model)->Serialize());
  }();
  return *bytes;
}

vae::AqpClient::Options ClientOptions() {
  vae::AqpClient::Options copts;
  copts.initial_samples = 400;
  copts.max_samples = 6400;
  copts.population_rows = 4000;
  copts.seed = 2027;
  return copts;
}

AqpServer::Options ServerOptions() {
  AqpServer::Options opts;
  opts.client = ClientOptions();
  return opts;
}

struct QuerySpec {
  std::string sql;
  double max_relative_ci = 0.0;
};

std::vector<QuerySpec> DefaultQueries() {
  return {
      {"SELECT AVG(fare) FROM R WHERE trip_distance > 1", 0.03},
      {"SELECT COUNT(*) FROM R WHERE passengers >= 2", 0.05},
  };
}

/// The exact payload bytes a faithful stream must deliver for `queries`.
std::vector<std::vector<uint8_t>> ReferenceStream(
    const std::vector<QuerySpec>& queries) {
  auto client = vae::AqpClient::Open(ModelBytes(), ClientOptions());
  EXPECT_TRUE(client.ok());
  std::vector<std::vector<uint8_t>> out;
  for (const QuerySpec& spec : queries) {
    auto query = aqp::ParseSql(spec.sql, (*client)->pool());
    EXPECT_TRUE(query.ok()) << query.status().message();
    bool final = false;
    while (!final) {
      auto result =
          (*client)->QueryRefineStep(*query, spec.max_relative_ci, &final);
      EXPECT_TRUE(result.ok()) << result.status().message();
      Estimate estimate;
      estimate.pool_rows = (*client)->pool_size();
      estimate.result = std::move(*result);
      out.push_back(EncodeEstimate(estimate));
    }
  }
  return out;
}

/// One listening server over loopback, model pre-registered.
struct TcpServer {
  explicit TcpServer(const AqpServer::Options& opts = ServerOptions(),
                     SocketServer::Options sopts = {}) {
    srv = std::make_unique<AqpServer>(opts);
    auto model = vae::VaeAqpModel::Deserialize(ModelBytes());
    EXPECT_TRUE(model.ok());
    srv->registry().Install("taxi", std::move(*model));
    sopts.port = 0;  // ephemeral
    sock = std::make_unique<SocketServer>(srv.get(), sopts);
    EXPECT_TRUE(sock->Listen().ok());
    EXPECT_TRUE(sock->Start().ok());
  }
  // Destruction order matters: the socket loop must stop before the server.
  ~TcpServer() { sock->Shutdown(); }

  std::unique_ptr<AqpServer> srv;
  std::unique_ptr<SocketServer> sock;
};

RetryingConnection::Options ClientFor(const TcpServer& ts) {
  RetryingConnection::Options copts;
  copts.port = ts.sock->port();
  return copts;
}

std::vector<std::vector<uint8_t>> EncodeAll(
    const std::vector<Estimate>& estimates) {
  std::vector<std::vector<uint8_t>> out;
  out.reserve(estimates.size());
  for (const Estimate& e : estimates) out.push_back(EncodeEstimate(e));
  return out;
}

TEST(ServerSocketTest, FrameParserReassemblesSplitFrames) {
  // A frame split across arbitrary feed boundaries must reassemble exactly.
  std::vector<uint8_t> body = {1, 2, 3, 4, 5, 6, 7};
  std::vector<uint8_t> framed;
  ASSERT_TRUE(AppendFramed(body, &framed).ok());
  ASSERT_TRUE(AppendFramed(body, &framed).ok());  // two frames back to back
  for (size_t chunk = 1; chunk <= framed.size(); ++chunk) {
    FrameParser parser;
    std::vector<std::vector<uint8_t>> got;
    for (size_t off = 0; off < framed.size(); off += chunk) {
      const size_t n = std::min(chunk, framed.size() - off);
      ASSERT_TRUE(parser.Feed(framed.data() + off, n).ok());
      std::vector<uint8_t> frame;
      while (parser.Next(&frame)) got.push_back(frame);
    }
    ASSERT_EQ(got.size(), 2u) << "chunk=" << chunk;
    EXPECT_EQ(got[0], body);
    EXPECT_EQ(got[1], body);
  }
}

TEST(ServerSocketTest, FrameParserRejectsOversizedPrefix) {
  FrameParser parser;
  uint8_t evil[4] = {0xff, 0xff, 0xff, 0xff};  // ~4GB frame claim
  EXPECT_FALSE(parser.Feed(evil, 4).ok());
  // Poisoned: nothing is ever parseable again.
  uint8_t more[8] = {0};
  EXPECT_FALSE(parser.Feed(more, 8).ok());
  std::vector<uint8_t> frame;
  EXPECT_FALSE(parser.Next(&frame));
}

TEST(ServerSocketTest, LoopbackStreamMatchesDirectClientBitForBit) {
  const std::vector<QuerySpec> queries = DefaultQueries();
  const auto reference = ReferenceStream(queries);
  ASSERT_GT(reference.size(), queries.size());

  TcpServer ts;
  RetryingConnection client(ClientFor(ts));
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.OpenSession("taxi").ok());
  std::vector<std::vector<uint8_t>> got;
  for (const QuerySpec& spec : queries) {
    auto stream = client.RunQuery(spec.sql, spec.max_relative_ci);
    ASSERT_TRUE(stream.ok()) << stream.status().message();
    EXPECT_EQ(stream->resumes, 0u);
    for (auto& bytes : EncodeAll(stream->estimates)) {
      got.push_back(std::move(bytes));
    }
  }
  EXPECT_EQ(got, reference);
  EXPECT_TRUE(client.CloseSession().ok());
}

TEST(ServerSocketTest, PingPongRoundTrip) {
  TcpServer ts;
  RetryingConnection client(ClientFor(ts));
  ASSERT_TRUE(client.Connect().ok());
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(client.Ping().ok());
}

// The acceptance-criteria test: the connection is forcibly dropped
// mid-stream (injected write fault kills the socket server-side), the
// client reconnects with its resumption token, and the final answer is
// bit-identical to an uninterrupted run.
TEST(ServerSocketTest, DroppedConnectionResumesBitIdentical) {
  const std::vector<QuerySpec> queries = DefaultQueries();
  const auto reference = ReferenceStream(queries);

  TcpServer ts;
  RetryingConnection client(ClientFor(ts));
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.OpenSession("taxi").ok());
  ASSERT_NE(client.resume_token(), 0u);

  std::vector<std::vector<uint8_t>> got;
  uint64_t total_resumes = 0;
  {
    // Arm after the session handshake: the next server-side write attempt
    // (this stream's first delivery) kills the connection.
    FailpointGuard fp("socket/write=once");
    for (const QuerySpec& spec : queries) {
      auto stream = client.RunQuery(spec.sql, spec.max_relative_ci);
      ASSERT_TRUE(stream.ok()) << stream.status().message();
      total_resumes += stream->resumes;
      for (auto& bytes : EncodeAll(stream->estimates)) {
        got.push_back(std::move(bytes));
      }
    }
  }
  EXPECT_GE(total_resumes, 1u);
  EXPECT_GE(client.reconnects(), 1u);
  EXPECT_EQ(got, reference);  // exactly-once, in order, same bytes
  EXPECT_TRUE(client.CloseSession().ok());
}

// Same acceptance shape, cut by the supervision layer instead of the write
// path: the heartbeat reaper declares the connection dead mid-stream.
TEST(ServerSocketTest, HeartbeatReapMidStreamResumesBitIdentical) {
  const std::vector<QuerySpec> queries = DefaultQueries();
  const auto reference = ReferenceStream(queries);

  SocketServer::Options sopts;
  sopts.heartbeat_ms = 50;  // fast ticks so the injected miss fires quickly
  sopts.heartbeat_misses = 1000;  // ...but only the fault reaps, not time
  TcpServer ts(ServerOptions(), sopts);
  RetryingConnection client(ClientFor(ts));
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.OpenSession("taxi").ok());

  std::vector<std::vector<uint8_t>> got;
  uint64_t total_resumes = 0;
  {
    FailpointGuard fp("server/heartbeat_miss=once");
    for (const QuerySpec& spec : queries) {
      auto stream = client.RunQuery(spec.sql, spec.max_relative_ci);
      ASSERT_TRUE(stream.ok()) << stream.status().message();
      total_resumes += stream->resumes;
      for (auto& bytes : EncodeAll(stream->estimates)) {
        got.push_back(std::move(bytes));
      }
    }
  }
  EXPECT_GE(ts.sock->reaped_connections(), 1u);
  EXPECT_GE(total_resumes + client.reconnects(), 1u);
  EXPECT_EQ(got, reference);
  EXPECT_TRUE(client.CloseSession().ok());
}

TEST(ServerSocketTest, SilentConnectionReapedButSessionSurvives) {
  SocketServer::Options sopts;
  sopts.heartbeat_ms = 20;
  sopts.heartbeat_misses = 2;
  TcpServer ts(ServerOptions(), sopts);

  // Raw connection (no retry layer): open a session, then go silent.
  SocketConnection raw;
  ASSERT_TRUE(raw.Connect("127.0.0.1", ts.sock->port(), 2000).ok());
  ClientMessage open;
  open.kind = ClientMessageKind::kOpenSession;
  open.model_name = "taxi";
  ASSERT_TRUE(raw.Send(open).ok());
  // The open reply generates the initial pool, which can outlast the 40 ms
  // liveness budget (under sanitizers). Until it arrives, ping about every
  // 10 ms so the connection stays live, and skip the PONGs.
  std::optional<ServerMessage> opened;
  auto next_ping = std::chrono::steady_clock::now();
  const auto give_up = next_ping + std::chrono::seconds(5);
  while (!opened.has_value() && std::chrono::steady_clock::now() < give_up) {
    if (std::chrono::steady_clock::now() >= next_ping) {
      ClientMessage ping;
      ping.kind = ClientMessageKind::kPing;
      ASSERT_TRUE(raw.Send(ping).ok());
      next_ping += std::chrono::milliseconds(10);
    }
    auto msg = raw.Receive(2);
    ASSERT_TRUE(msg.ok());
    if (msg->has_value() && (*msg)->kind != ServerMessageKind::kPong) {
      opened = std::move(*msg);
    }
  }
  ASSERT_TRUE(opened.has_value());
  ASSERT_EQ(opened->kind, ServerMessageKind::kSessionOpened);
  const uint64_t session = opened->session;
  const uint64_t token = opened->resume_token;
  ASSERT_NE(token, 0u);

  // Silence past the liveness deadline: the CONNECTION must be reaped...
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (ts.sock->num_connections() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(ts.sock->num_connections(), 0u);
  EXPECT_GE(ts.sock->reaped_connections(), 1u);
  // ...but the SESSION must not: it is resumable on a fresh connection.
  EXPECT_EQ(ts.srv->num_sessions(), 1u);

  SocketConnection fresh;
  ASSERT_TRUE(fresh.Connect("127.0.0.1", ts.sock->port(), 2000).ok());
  ClientMessage resume;
  resume.kind = ClientMessageKind::kResumeSession;
  resume.session = session;
  resume.resume_token = token;
  ASSERT_TRUE(fresh.Send(resume).ok());
  auto resumed = fresh.Receive(5000);
  ASSERT_TRUE(resumed.ok());
  ASSERT_TRUE(resumed->has_value());
  EXPECT_EQ((*resumed)->kind, ServerMessageKind::kSessionResumed);
}

TEST(ServerSocketTest, ResumeWithBadTokenRejected) {
  TcpServer ts;
  SocketConnection raw;
  ASSERT_TRUE(raw.Connect("127.0.0.1", ts.sock->port(), 2000).ok());
  ClientMessage open;
  open.kind = ClientMessageKind::kOpenSession;
  open.model_name = "taxi";
  ASSERT_TRUE(raw.Send(open).ok());
  auto opened = raw.Receive(5000);
  ASSERT_TRUE(opened.ok() && opened->has_value());
  const uint64_t session = (*opened)->session;
  const uint64_t token = (*opened)->resume_token;

  SocketConnection thief;
  ASSERT_TRUE(thief.Connect("127.0.0.1", ts.sock->port(), 2000).ok());
  ClientMessage resume;
  resume.kind = ClientMessageKind::kResumeSession;
  resume.session = session;
  resume.resume_token = token ^ 0xdeadbeefULL;  // wrong secret
  ASSERT_TRUE(thief.Send(resume).ok());
  auto reply = thief.Receive(5000);
  ASSERT_TRUE(reply.ok() && reply->has_value());
  EXPECT_EQ((*reply)->kind, ServerMessageKind::kError);
  EXPECT_NE((*reply)->message.find("resume rejected"), std::string::npos);
}

TEST(ServerSocketTest, AdmissionControlShedsWithServerBusy) {
  AqpServer::Options opts = ServerOptions();
  opts.max_sessions = 1;
  TcpServer ts(opts);

  RetryingConnection first(ClientFor(ts));
  ASSERT_TRUE(first.Connect().ok());
  ASSERT_TRUE(first.OpenSession("taxi").ok());

  RetryingConnection second(ClientFor(ts));
  ASSERT_TRUE(second.Connect().ok());
  util::Status refused = second.OpenSession("taxi");
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), util::StatusCode::kUnavailable);
  EXPECT_NE(refused.message().find("SERVER_BUSY"), std::string::npos);

  // The admitted session is untouched by the shed one: it still streams.
  auto stream = first.RunQuery(DefaultQueries()[0].sql, 0.05);
  EXPECT_TRUE(stream.ok()) << stream.status().message();

  // Closing the first session frees the slot.
  ASSERT_TRUE(first.CloseSession().ok());
  EXPECT_TRUE(second.OpenSession("taxi").ok());
}

TEST(ServerSocketTest, GracefulShutdownFinishesInFlightStream) {
  const std::vector<QuerySpec> queries = DefaultQueries();
  const auto reference = ReferenceStream({queries[0]});

  auto ts = std::make_unique<TcpServer>();
  RetryingConnection client(ClientFor(*ts));
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.OpenSession("taxi").ok());

  util::Result<RetryingConnection::StreamResult> stream =
      util::Status::Internal("not run");
  std::thread driver([&] {
    stream = client.RunQuery(queries[0].sql, queries[0].max_relative_ci);
  });
  // Let the stream get going, then shut down while it is in flight. The
  // drain must let it finish (the client keeps acking), not truncate it.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const bool clean = ts->sock->Shutdown();
  driver.join();

  if (stream.ok()) {
    EXPECT_EQ(EncodeAll(stream->estimates), reference);
    EXPECT_TRUE(clean);
  } else {
    // The only acceptable failure is an explicit shutdown rejection —
    // never a silently truncated stream.
    EXPECT_NE(stream.status().message().find("SHUTTING_DOWN"),
              std::string::npos)
        << stream.status().message();
  }
  // New work after shutdown is refused outright (connection or open fails).
  RetryingConnection::Options copts = ClientFor(*ts);
  copts.max_attempts = 1;
  RetryingConnection late(copts);
  util::Status st = late.Connect();
  if (st.ok()) st = late.OpenSession("taxi");
  EXPECT_FALSE(st.ok());
}

TEST(ServerSocketTest, ShutdownRefusesNewSessionsDuringDrain) {
  TcpServer ts;
  RetryingConnection client(ClientFor(ts));
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.OpenSession("taxi").ok());

  ts.srv->BeginShutdown();
  RetryingConnection late(ClientFor(ts));
  ASSERT_TRUE(late.Connect().ok());  // socket still accepts during phase 1
  util::Status refused = late.OpenSession("taxi");
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), util::StatusCode::kUnavailable);
  EXPECT_NE(refused.message().find("SHUTTING_DOWN"), std::string::npos);
}

}  // namespace
}  // namespace deepaqp::server
