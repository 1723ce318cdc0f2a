// End-to-end server determinism: N concurrent sessions driven over the
// in-process pipe transport must produce estimate streams byte-identical to
// a direct vae::AqpClient refining the same query sequence — at every
// thread-pool width — while the per-session suffix-incremental cache keeps
// doing suffix-only work. Also locks down hot-swap cache invalidation and
// the error-is-a-response (never-kills-the-session) contract.

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "aqp/sql_parser.h"
#include "data/generators.h"
#include "server/scheduler.h"
#include "server/server.h"
#include "server/transport.h"
#include "util/thread_pool.h"
#include "vae/client.h"
#include "vae/vae_model.h"

namespace deepaqp::server {
namespace {

/// Trains one small taxi model per distinct training seed, once for the
/// whole suite, and serves it as bytes (every consumer re-opens or shares
/// the identical generator).
const std::vector<uint8_t>& ModelBytes(uint64_t train_seed = 77) {
  static std::map<uint64_t, std::vector<uint8_t>>* cache =
      new std::map<uint64_t, std::vector<uint8_t>>();
  auto it = cache->find(train_seed);
  if (it == cache->end()) {
    auto table = data::GenerateTaxi({.rows = 4000, .seed = 21});
    vae::VaeAqpOptions opts;
    opts.epochs = 8;
    opts.hidden_dim = 48;
    opts.seed = train_seed;
    opts.encoder.numeric_bins = 16;
    auto model = vae::VaeAqpModel::Train(table, opts);
    EXPECT_TRUE(model.ok());
    it = cache->emplace(train_seed, (*model)->Serialize()).first;
  }
  return it->second;
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

/// What a direct AqpClient produces for the same query sequence: the exact
/// frame payloads a faithful server session must emit.
std::vector<std::vector<uint8_t>> ReferenceStream(
    const std::vector<uint8_t>& model_bytes,
    const std::vector<QuerySpec>& queries) {
  auto client = vae::AqpClient::Open(model_bytes, ClientOptions());
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

uint64_t OpenSession(AqpServer& server, const std::shared_ptr<PipeTransport>& pipe,
                     const std::string& model = "taxi") {
  ClientMessage open;
  open.kind = ClientMessageKind::kOpenSession;
  open.model_name = model;
  server.Handle(open, pipe);
  ServerMessage reply = pipe->Pop();
  EXPECT_EQ(reply.kind, ServerMessageKind::kSessionOpened);
  return reply.session;
}

struct StreamOutcome {
  std::vector<std::vector<uint8_t>> payloads;
  util::Status error;  // OK unless the stream failed
};

/// Drives one query to completion over the pipe: submits it, acks every
/// DATA frame, reassembles the in-order payload stream. The pipe is ordered
/// and lossless, so the pump is strict: the reply to the query is its start
/// notification, every later message is a frame of this stream, and no
/// frame arrives twice.
StreamOutcome RunQuery(AqpServer& server, const std::shared_ptr<PipeTransport>& pipe,
                       uint64_t session, const QuerySpec& spec) {
  StreamOutcome outcome;
  ClientMessage query;
  query.kind = ClientMessageKind::kQuery;
  query.session = session;
  query.sql = spec.sql;
  query.max_relative_ci = spec.max_relative_ci;
  server.Handle(query, pipe);

  const ServerMessage first = pipe->Pop();
  if (first.kind != ServerMessageKind::kQueryStarted) {
    EXPECT_EQ(first.kind, ServerMessageKind::kError);
    outcome.error = util::Status::Internal(first.message);
    return outcome;
  }
  ChannelConsumer consumer(first.channel);
  while (!consumer.finished()) {
    ServerMessage msg = pipe->Pop();
    if (msg.kind != ServerMessageKind::kData) {
      EXPECT_EQ(msg.kind, ServerMessageKind::kError);
      outcome.error = util::Status::Internal(msg.message);
      return outcome;
    }
    EXPECT_EQ(msg.channel, first.channel);
    outcome.error = consumer.OnData(msg.data);
    EXPECT_TRUE(outcome.error.ok()) << outcome.error.message();
    if (!outcome.error.ok()) return outcome;
    for (auto& p : consumer.TakeDelivered()) {
      outcome.payloads.push_back(std::move(p));
    }
    ClientMessage ack;
    ack.kind = ClientMessageKind::kAck;
    ack.session = session;
    ack.ack = consumer.MakeAck();
    server.Handle(ack, pipe);
  }
  EXPECT_EQ(consumer.stats().duplicates, 0u);
  return outcome;
}

void DriveSession(AqpServer& server, const std::shared_ptr<PipeTransport>& pipe,
                  uint64_t session, const std::vector<QuerySpec>& queries,
                  std::vector<std::vector<uint8_t>>* stream) {
  for (const QuerySpec& spec : queries) {
    StreamOutcome outcome = RunQuery(server, pipe, session, spec);
    ASSERT_TRUE(outcome.error.ok()) << outcome.error.message();
    for (auto& p : outcome.payloads) stream->push_back(std::move(p));
  }
}

TEST(ServerSessionTest, StreamMatchesDirectClientBitForBit) {
  const std::vector<QuerySpec> queries = DefaultQueries();
  const std::vector<std::vector<uint8_t>> reference =
      ReferenceStream(ModelBytes(), queries);
  ASSERT_GT(reference.size(), queries.size());  // streams actually refined

  AqpServer server(ServerOptions());
  auto model = vae::VaeAqpModel::Deserialize(ModelBytes());
  ASSERT_TRUE(model.ok());
  server.registry().Install("taxi", std::move(*model));

  auto pipe = std::make_shared<PipeTransport>();
  uint64_t session = OpenSession(server, pipe);
  std::vector<std::vector<uint8_t>> stream;
  DriveSession(server, pipe, session, queries, &stream);
  EXPECT_EQ(stream, reference);

  // Suffix-only evaluation happened inside the session: across the whole
  // precision-on-demand trajectory of the first query, every pool row was
  // filtered exactly once (a cache-less client would rescan each prefix).
  auto stats = server.SessionCacheStats(session);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->filter_entries, 2u);  // one bitmap per distinct filter
  EXPECT_EQ(stats->invalidations, 0u);

  ClientMessage close;
  close.kind = ClientMessageKind::kCloseSession;
  close.session = session;
  server.Handle(close, pipe);
  EXPECT_EQ(pipe->Pop().kind, ServerMessageKind::kSessionClosed);
  EXPECT_EQ(server.num_sessions(), 0u);
}

TEST(ServerSessionTest, ConcurrentSessionsBitIdenticalAcrossThreadCounts) {
  const std::vector<QuerySpec> queries = DefaultQueries();
  const std::vector<std::vector<uint8_t>> reference =
      ReferenceStream(ModelBytes(), queries);

  constexpr int kSessions = 3;
  for (int threads : {1, 4, 8}) {
    util::SetGlobalThreads(threads);
    AqpServer server(ServerOptions());
    auto model = vae::VaeAqpModel::Deserialize(ModelBytes());
    ASSERT_TRUE(model.ok());
    server.registry().Install("taxi", std::move(*model));

    std::vector<std::shared_ptr<PipeTransport>> pipes;
    std::vector<uint64_t> ids;
    for (int s = 0; s < kSessions; ++s) {
      pipes.push_back(std::make_shared<PipeTransport>());
      ids.push_back(OpenSession(server, pipes.back()));
    }
    std::vector<std::vector<std::vector<uint8_t>>> streams(kSessions);
    {
      std::vector<std::thread> drivers;
      for (int s = 0; s < kSessions; ++s) {
        drivers.emplace_back([&, s] {
          DriveSession(server, pipes[s], ids[s], queries, &streams[s]);
        });
      }
      for (std::thread& t : drivers) t.join();
    }
    for (int s = 0; s < kSessions; ++s) {
      EXPECT_EQ(streams[s], reference)
          << "session " << s << " at --threads " << threads;
    }
  }
  util::SetGlobalThreads(0);  // restore hardware default
}

TEST(ServerSessionTest, PipelinedQueriesDrainOnAcksAlone) {
  const std::vector<QuerySpec> queries = DefaultQueries();
  const std::vector<std::vector<uint8_t>> reference =
      ReferenceStream(ModelBytes(), queries);

  AqpServer server(ServerOptions());
  auto model = vae::VaeAqpModel::Deserialize(ModelBytes());
  ASSERT_TRUE(model.ok());
  server.registry().Install("taxi", std::move(*model));
  auto pipe = std::make_shared<PipeTransport>();
  uint64_t session = OpenSession(server, pipe);

  // Submit every query up front. The second stream starts refining the
  // moment the first fully retires — the only client events after this
  // point are acks for received frames, so a session step that retires a
  // stream without pumping its successor would stall the pipeline forever.
  for (const QuerySpec& spec : queries) {
    ClientMessage query;
    query.kind = ClientMessageKind::kQuery;
    query.session = session;
    query.sql = spec.sql;
    query.max_relative_ci = spec.max_relative_ci;
    server.Handle(query, pipe);
  }

  std::map<uint64_t, ChannelConsumer> consumers;
  std::vector<std::vector<uint8_t>> stream;
  size_t finished = 0;
  while (finished < queries.size()) {
    ServerMessage msg = pipe->Pop();
    if (msg.kind == ServerMessageKind::kQueryStarted) {
      consumers.emplace(msg.channel, ChannelConsumer(msg.channel));
      continue;
    }
    ASSERT_EQ(msg.kind, ServerMessageKind::kData) << msg.message;
    auto it = consumers.find(msg.channel);
    ASSERT_NE(it, consumers.end());
    ASSERT_TRUE(it->second.OnData(msg.data).ok());
    for (auto& p : it->second.TakeDelivered()) stream.push_back(std::move(p));
    if (it->second.finished()) ++finished;
    ClientMessage ack;
    ack.kind = ClientMessageKind::kAck;
    ack.session = session;
    ack.ack = it->second.MakeAck();
    server.Handle(ack, pipe);
  }
  // Per-session serialization means the concatenated streams match a direct
  // client running the queries back to back.
  EXPECT_EQ(stream, reference);
  for (const auto& [channel, consumer] : consumers) {
    EXPECT_EQ(consumer.stats().duplicates, 0u) << "channel " << channel;
  }
}

TEST(ServerSessionTest, MidStreamSwapIsDeferredToStreamBoundary) {
  ModelRegistry registry;
  auto v1 = vae::VaeAqpModel::Deserialize(ModelBytes(77));
  ASSERT_TRUE(v1.ok());
  registry.Install("taxi", std::move(*v1));
  auto snap = registry.Get("taxi");
  ASSERT_TRUE(snap.ok());
  Session session(1, "taxi", *snap, ClientOptions());
  const QuerySpec spec = DefaultQueries()[0];
  ASSERT_TRUE(session.StartQuery(7, spec.sql, spec.max_relative_ci).ok());

  std::vector<ServerMessage> errors;
  std::vector<DataFrame> frames = session.Step(registry, &errors);
  ASSERT_TRUE(errors.empty());
  ASSERT_FALSE(frames.empty());

  // Hot swap while the stream has frames in flight: the session must keep
  // serving the old generator until the stream retires, so the stream stays
  // bit-identical to a fresh v1 client and pool_rows stays monotonic.
  ASSERT_TRUE(registry.Register("taxi", ModelBytes(78)).ok());

  ChannelConsumer consumer(7);
  std::vector<std::vector<uint8_t>> payloads;
  int rounds = 0;
  while (!consumer.finished() && rounds++ < 1000) {
    for (const DataFrame& f : frames) ASSERT_TRUE(consumer.OnData(f).ok());
    for (auto& p : consumer.TakeDelivered()) payloads.push_back(std::move(p));
    if (!consumer.finished()) {
      EXPECT_EQ(session.model_swaps(), 0u);  // deferred while mid-stream
    }
    session.HandleAck(consumer.MakeAck());
    frames = session.Step(registry, &errors);
    ASSERT_TRUE(errors.empty());
  }
  ASSERT_TRUE(consumer.finished());
  EXPECT_EQ(session.open_streams(), 0u);
  EXPECT_EQ(payloads, ReferenceStream(ModelBytes(77), {spec}));
  uint64_t prev_rows = 0;
  for (const auto& p : payloads) {
    auto est = DecodeEstimate(p);
    ASSERT_TRUE(est.ok());
    EXPECT_GE(est->pool_rows, prev_rows);
    prev_rows = est->pool_rows;
  }
  // With the stream retired, the next step is a boundary: the deferred swap
  // lands and resets the client.
  session.Step(registry, &errors);
  EXPECT_TRUE(errors.empty());
  EXPECT_EQ(session.model_swaps(), 1u);
  EXPECT_EQ(session.model_version(), 2u);
}

/// A precision target no group can meet: the stream refines until the pool
/// reaches max_samples.
QuerySpec UnmeetableSpec() {
  return {DefaultQueries()[0].sql, 1e-9};
}

TEST(ServerSessionTest, FirstStepSendsOneFrameBeforeAnyGrowth) {
  ModelRegistry registry;
  auto model = vae::VaeAqpModel::Deserialize(ModelBytes());
  ASSERT_TRUE(model.ok());
  registry.Install("taxi", std::move(*model));
  auto snap = registry.Get("taxi");
  ASSERT_TRUE(snap.ok());
  Session session(1, "taxi", *snap, ClientOptions());
  const QuerySpec spec = UnmeetableSpec();
  ASSERT_TRUE(session.StartQuery(7, spec.sql, spec.max_relative_ci).ok());
  ASSERT_TRUE(session.CanRefine());

  // The first estimate is computed on the pool the session already holds
  // and leaves in a frame of its own: the window has room for 8 frames, but
  // the step stops after one, before generating the growth that estimate
  // asked for.
  std::vector<ServerMessage> errors;
  std::vector<DataFrame> frames = session.Step(registry, &errors);
  ASSERT_TRUE(errors.empty());
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].seq, 0u);
  EXPECT_FALSE(frames[0].final);
  EXPECT_EQ(session.client().pool_size(), ClientOptions().initial_samples);
  auto estimate = DecodeEstimate(frames[0].payload);
  ASSERT_TRUE(estimate.ok());
  EXPECT_EQ(estimate->pool_rows, ClientOptions().initial_samples);
  // The stream can refine further with no client event due, which is what
  // tells the server to post a continuation.
  EXPECT_TRUE(session.CanRefine());

  // The next step pays the deferred doubling, then sends one more frame.
  frames = session.Step(registry, &errors);
  ASSERT_TRUE(errors.empty());
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].seq, 1u);
  EXPECT_EQ(session.client().pool_size(),
            2 * ClientOptions().initial_samples);
}

TEST(ServerSessionTest, UnmeetableStreamWalksToMaxSamplesAcrossThreadCounts) {
  const QuerySpec spec = UnmeetableSpec();
  const std::vector<std::vector<uint8_t>> reference =
      ReferenceStream(ModelBytes(), {spec});

  // Each estimate reports the sample size it was computed on: the held
  // pool first, then one doubling per frame up to max_samples.
  std::vector<uint64_t> rows;
  for (const auto& payload : reference) {
    auto estimate = DecodeEstimate(payload);
    ASSERT_TRUE(estimate.ok());
    rows.push_back(estimate->pool_rows);
  }
  EXPECT_EQ(rows, (std::vector<uint64_t>{400, 800, 1600, 3200, 6400}));

  for (int threads : {1, 4, 8}) {
    util::SetGlobalThreads(threads);
    AqpServer server(ServerOptions());
    auto model = vae::VaeAqpModel::Deserialize(ModelBytes());
    ASSERT_TRUE(model.ok());
    server.registry().Install("taxi", std::move(*model));
    auto pipe = std::make_shared<PipeTransport>();
    uint64_t session = OpenSession(server, pipe);
    StreamOutcome outcome = RunQuery(server, pipe, session, spec);
    ASSERT_TRUE(outcome.error.ok()) << outcome.error.message();
    EXPECT_EQ(outcome.payloads, reference) << "at --threads " << threads;
  }
  util::SetGlobalThreads(0);  // restore hardware default
}

TEST(ServerSessionTest, HotSwapResetsSessionCacheAndMatchesFreshClient) {
  const QuerySpec spec = DefaultQueries()[0];
  AqpServer server(ServerOptions());
  auto v1 = vae::VaeAqpModel::Deserialize(ModelBytes(77));
  ASSERT_TRUE(v1.ok());
  server.registry().Install("taxi", std::move(*v1));

  auto pipe = std::make_shared<PipeTransport>();
  uint64_t session = OpenSession(server, pipe);
  StreamOutcome before = RunQuery(server, pipe, session, spec);
  ASSERT_TRUE(before.error.ok()) << before.error.message();

  // Hot swap: a differently-seeded training run of the same schema. The
  // bytes genuinely differ, so any stale pool row or cached bitmap would
  // show up as a stream mismatch below.
  ASSERT_NE(ModelBytes(78), ModelBytes(77));
  auto version = server.registry().Register("taxi", ModelBytes(78));
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(*version, 2u);

  StreamOutcome after = RunQuery(server, pipe, session, spec);
  ASSERT_TRUE(after.error.ok()) << after.error.message();
  server.WaitIdle();

  auto swaps = server.SessionModelSwaps(session);
  ASSERT_TRUE(swaps.ok());
  EXPECT_EQ(*swaps, 1u);
  auto stats = server.SessionCacheStats(session);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->invalidations, 1u);

  // The post-swap stream is exactly what a fresh client on the new model
  // produces — pool, rng and caches were all reset.
  const std::vector<std::vector<uint8_t>> fresh =
      ReferenceStream(ModelBytes(78), {spec});
  EXPECT_EQ(after.payloads, fresh);
  EXPECT_NE(before.payloads, after.payloads);
}

TEST(ServerSessionTest, ErrorsAreResponsesNotSessionDeath) {
  AqpServer server(ServerOptions());
  auto model = vae::VaeAqpModel::Deserialize(ModelBytes());
  ASSERT_TRUE(model.ok());
  server.registry().Install("taxi", std::move(*model));
  auto pipe = std::make_shared<PipeTransport>();

  // Unknown model: the open fails, nothing leaks.
  ClientMessage bad_open;
  bad_open.kind = ClientMessageKind::kOpenSession;
  bad_open.model_name = "nope";
  server.Handle(bad_open, pipe);
  ServerMessage err = pipe->Pop();
  EXPECT_EQ(err.kind, ServerMessageKind::kError);
  EXPECT_EQ(server.num_sessions(), 0u);

  uint64_t session = OpenSession(server, pipe);

  // Malformed SQL: an error response on the query's channel; the session
  // lives on.
  StreamOutcome bad =
      RunQuery(server, pipe, session, {"SELECT FROM WHERE", 0.05});
  EXPECT_FALSE(bad.error.ok());

  // Nonsensical precision target: rejected up front.
  StreamOutcome bad_ci =
      RunQuery(server, pipe, session, {DefaultQueries()[0].sql, -1.0});
  EXPECT_FALSE(bad_ci.error.ok());

  // Unknown session id: an error response, not a crash.
  ClientMessage stray;
  stray.kind = ClientMessageKind::kQuery;
  stray.session = 999;
  stray.sql = DefaultQueries()[0].sql;
  stray.max_relative_ci = 0.05;
  server.Handle(stray, pipe);
  EXPECT_EQ(pipe->Pop().kind, ServerMessageKind::kError);

  // The same session still answers real queries, identically to a direct
  // client (the failed requests consumed no pool growth).
  StreamOutcome good = RunQuery(server, pipe, session, DefaultQueries()[0]);
  ASSERT_TRUE(good.error.ok()) << good.error.message();
  EXPECT_EQ(good.payloads, ReferenceStream(ModelBytes(), {DefaultQueries()[0]}));
  EXPECT_EQ(server.num_sessions(), 1u);
}

TEST(ServerSessionTest, PerSessionOverridesApply) {
  AqpServer server(ServerOptions());
  auto model = vae::VaeAqpModel::Deserialize(ModelBytes());
  ASSERT_TRUE(model.ok());
  server.registry().Install("taxi", std::move(*model));
  auto pipe = std::make_shared<PipeTransport>();

  ClientMessage open;
  open.kind = ClientMessageKind::kOpenSession;
  open.model_name = "taxi";
  open.initial_samples = 800;
  open.seed = 4242;
  server.Handle(open, pipe);
  ServerMessage reply = pipe->Pop();
  ASSERT_EQ(reply.kind, ServerMessageKind::kSessionOpened);
  server.WaitIdle();

  // A direct client with the same overrides produces the same stream.
  vae::AqpClient::Options copts = ClientOptions();
  copts.initial_samples = 800;
  copts.seed = 4242;
  auto direct = vae::AqpClient::Open(ModelBytes(), copts);
  ASSERT_TRUE(direct.ok());
  const QuerySpec spec = DefaultQueries()[0];
  auto query = aqp::ParseSql(spec.sql, (*direct)->pool());
  ASSERT_TRUE(query.ok());
  std::vector<std::vector<uint8_t>> expect;
  bool final = false;
  while (!final) {
    auto result =
        (*direct)->QueryRefineStep(*query, spec.max_relative_ci, &final);
    ASSERT_TRUE(result.ok());
    Estimate estimate;
    estimate.pool_rows = (*direct)->pool_size();
    estimate.result = std::move(*result);
    expect.push_back(EncodeEstimate(estimate));
  }
  StreamOutcome got = RunQuery(server, pipe, reply.session, spec);
  ASSERT_TRUE(got.error.ok()) << got.error.message();
  EXPECT_EQ(got.payloads, expect);
}

/// Splits the whole-session reference stream into one payload vector per
/// query (queries refine sequentially in a session, so query i's frames are
/// a contiguous segment).
std::vector<std::vector<std::vector<uint8_t>>> ReferenceSegments(
    const std::vector<QuerySpec>& queries) {
  std::vector<std::vector<std::vector<uint8_t>>> segments;
  std::vector<QuerySpec> prefix;
  size_t consumed = 0;
  for (const QuerySpec& spec : queries) {
    prefix.push_back(spec);
    std::vector<std::vector<uint8_t>> whole =
        ReferenceStream(ModelBytes(), prefix);
    segments.emplace_back(whole.begin() + consumed, whole.end());
    consumed = whole.size();
  }
  return segments;
}

TEST(ServerSessionTest, GracefulShutdownNeverTruncatesAcrossThreadCounts) {
  const std::vector<QuerySpec> queries = DefaultQueries();
  const std::vector<std::vector<std::vector<uint8_t>>> segments =
      ReferenceSegments(queries);

  constexpr int kSessions = 3;
  for (int threads : {1, 4, 8}) {
    util::SetGlobalThreads(threads);
    AqpServer server(ServerOptions());
    auto model = vae::VaeAqpModel::Deserialize(ModelBytes());
    ASSERT_TRUE(model.ok());
    server.registry().Install("taxi", std::move(*model));

    std::vector<std::shared_ptr<PipeTransport>> pipes;
    std::vector<uint64_t> ids;
    for (int s = 0; s < kSessions; ++s) {
      pipes.push_back(std::make_shared<PipeTransport>());
      ids.push_back(OpenSession(server, pipes.back()));
    }

    // Each driver runs the query sequence tolerantly, recording per-query
    // outcomes. Shutdown begins while the first queries are mid-stream.
    std::vector<std::vector<StreamOutcome>> outcomes(kSessions);
    std::vector<std::thread> drivers;
    for (int s = 0; s < kSessions; ++s) {
      drivers.emplace_back([&, s] {
        for (const QuerySpec& spec : queries) {
          outcomes[s].push_back(RunQuery(server, pipes[s], ids[s], spec));
          if (!outcomes[s].back().error.ok()) break;
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    server.BeginShutdown();
    // Acks keep flowing from the drivers, so in-flight streams finish well
    // inside the deadline and the drain is clean (no force-abort).
    EXPECT_TRUE(server.Drain(/*deadline_ms=*/20000))
        << "drain forced an abort at --threads " << threads;
    for (std::thread& t : drivers) t.join();

    size_t refused = 0;
    for (int s = 0; s < kSessions; ++s) {
      for (size_t q = 0; q < outcomes[s].size(); ++q) {
        const StreamOutcome& out = outcomes[s][q];
        if (out.error.ok()) {
          // The never-truncation contract: a stream that reports success is
          // the complete reference segment, bit for bit.
          EXPECT_EQ(out.payloads, segments[q])
              << "session " << s << " query " << q << " at --threads "
              << threads;
        } else {
          ++refused;
          EXPECT_NE(out.error.message().find("SHUTTING_DOWN"),
                    std::string::npos)
              << out.error.message();
          // A refused or aborted stream delivered a bit-identical prefix of
          // its reference segment — never reordered or corrupted frames.
          ASSERT_LE(out.payloads.size(), segments[q].size());
          for (size_t i = 0; i < out.payloads.size(); ++i) {
            EXPECT_EQ(out.payloads[i], segments[q][i]);
          }
        }
      }
    }
    // Shutdown raced ahead of the second queries, so at least one was shed
    // with the clean error (all of them, with this timing).
    EXPECT_GT(refused, 0u) << "at --threads " << threads;
    EXPECT_EQ(server.ActiveStreams(), 0u);

    // Post-drain opens are refused with the same clean error.
    auto late = std::make_shared<PipeTransport>();
    ClientMessage open;
    open.kind = ClientMessageKind::kOpenSession;
    open.model_name = "taxi";
    server.Handle(open, late);
    ServerMessage reply = late->Pop();
    EXPECT_EQ(reply.kind, ServerMessageKind::kError);
    EXPECT_NE(reply.message.find("SHUTTING_DOWN"), std::string::npos);
  }
  util::SetGlobalThreads(0);  // restore hardware default
}

TEST(ServerSessionTest, ClosedSessionsLeaveNoSchedulerStrands) {
  // Each session's work runs on its own scheduler strand. A strand whose
  // queue drains is dropped, so opening and closing many sessions, some of
  // them after a query, leaves the scheduler holding nothing.
  for (int threads : {1, 4}) {
    util::SetGlobalThreads(threads);
    AqpServer server(ServerOptions());
    auto model = vae::VaeAqpModel::Deserialize(ModelBytes());
    ASSERT_TRUE(model.ok());
    server.registry().Install("taxi", std::move(*model));
    auto pipe = std::make_shared<PipeTransport>();
    constexpr int kSessions = 300;
    for (int i = 0; i < kSessions; ++i) {
      const uint64_t session = OpenSession(server, pipe);
      if (i % 100 == 0) {
        StreamOutcome outcome =
            RunQuery(server, pipe, session, DefaultQueries()[1]);
        ASSERT_TRUE(outcome.error.ok()) << outcome.error.message();
      }
      ClientMessage close;
      close.kind = ClientMessageKind::kCloseSession;
      close.session = session;
      server.Handle(close, pipe);
      ASSERT_EQ(pipe->Pop().kind, ServerMessageKind::kSessionClosed);
    }
    server.WaitIdle();
    EXPECT_EQ(server.num_sessions(), 0u) << "threads=" << threads;
    EXPECT_EQ(server.scheduler_pending(), 0u) << "threads=" << threads;
    EXPECT_EQ(server.scheduler_strands(), 0u) << "threads=" << threads;
  }
  util::SetGlobalThreads(0);  // restore hardware default
}

TEST(ServerSessionTest, SchedulerQueueBoundShedsWithServerBusy) {
  // A dedicated pool with a real worker thread: the pool of parallelism 1
  // runs Submit inline, which would park the gate task on this thread.
  util::ThreadPool pool(2);
  RequestScheduler scheduler(&pool, /*max_queue_per_strand=*/2);

  // Park the strand on a gate so queued tasks pile up deterministically.
  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::atomic<int> ran{0};
  ASSERT_TRUE(scheduler
                  .Post(7,
                        [&] {
                          started.set_value();
                          gate.wait();
                          ++ran;
                        })
                  .ok());
  started.get_future().wait();  // gate task is running; queue is empty

  ASSERT_TRUE(scheduler.Post(7, [&] { ++ran; }).ok());
  ASSERT_TRUE(scheduler.Post(7, [&] { ++ran; }).ok());

  // Queue at the bound: the next client post is shed with SERVER_BUSY
  // instead of growing without limit.
  util::Status shed = scheduler.Post(7, [&] { ++ran; });
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.code(), util::StatusCode::kUnavailable);
  EXPECT_NE(shed.message().find("SERVER_BUSY"), std::string::npos);

  // Internal progress work is exempt — a backlogged session can still
  // drain itself — and other strands are unaffected by this one's backlog.
  EXPECT_TRUE(scheduler.PostInternal(7, [&] { ++ran; }).ok());
  EXPECT_TRUE(scheduler.Post(8, [&] { ++ran; }).ok());

  release.set_value();
  scheduler.WaitIdle();
  EXPECT_EQ(ran.load(), 5);  // everything accepted ran; the shed task never did
  EXPECT_EQ(scheduler.strands(), 0u);
}

TEST(ServerSessionTest, BusyStrandYieldsToAnotherStrandAfterEachTask) {
  // One worker: strands take turns on a single lane.
  util::ThreadPool pool(2);
  RequestScheduler scheduler(&pool);

  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::mutex mu;
  std::vector<std::string> order;
  auto record = [&](const char* name) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(name);
  };
  ASSERT_TRUE(scheduler
                  .Post(1,
                        [&] {
                          started.set_value();
                          gate.wait();
                          record("a1");
                        })
                  .ok());
  started.get_future().wait();  // the lane is busy with a1
  ASSERT_TRUE(scheduler.Post(1, [&] { record("a2"); }).ok());
  ASSERT_TRUE(scheduler.Post(2, [&] { record("b1"); }).ok());

  // Strand 2 was queued on the pool while strand 1 held the lane; after a1
  // strand 1 goes to the back of the queue, so b1 runs before a2.
  release.set_value();
  scheduler.WaitIdle();
  EXPECT_EQ(order, (std::vector<std::string>{"a1", "b1", "a2"}));
}

TEST(ServerSessionTest, SerialPoolDrainsLongSelfPostingStrandWithoutRecursion) {
  // A pool of parallelism 1 runs Submit inline. A strand runner that
  // yielded through Submit there would nest one stack frame per task; this
  // chain is long enough that it would overflow the stack.
  util::ThreadPool pool(1);
  RequestScheduler scheduler(&pool);
  constexpr int kTasks = 100000;
  int ran = 0;
  std::function<void()> task = [&] {
    if (++ran < kTasks) {
      ASSERT_TRUE(scheduler.PostInternal(3, task).ok());
    }
  };
  ASSERT_TRUE(scheduler.PostInternal(3, task).ok());
  scheduler.WaitIdle();
  EXPECT_EQ(ran, kTasks);
  EXPECT_EQ(scheduler.pending(), 0u);
  EXPECT_EQ(scheduler.strands(), 0u);
}

}  // namespace
}  // namespace deepaqp::server
