// aqpbench: the repository benchmark program.
//
//   aqpbench --workload serve_cold|serve_warm|build --seed N --seconds S
//            [--trace 0|1]
//
// Drives the real serving stack from outside: one process hosts an
// in-process server::AqpServer behind a server::SocketServer on loopback
// TCP, and kConnections client threads talk to it through
// server::SocketConnection with their own ack loop (server::ChannelConsumer),
// so every stream's first and final estimate are timed where a client sees
// them. Query inputs are seeded IDEBench-style data::GenerateWorkload
// queries rendered to SQL; the server sees only SQL text.
//
// Every workload runs the same pipeline with a different emphasis (see
// BENCHMARK.md next to this file):
//   serve_cold  short fresh sessions whose first query grows the pool;
//   serve_warm  long sessions on a pool grown during set-up, fresh queries
//               mixed with repeats;
//   build       Train (VRS) + EliminateModelBias + Serialize, each artifact
//               then loaded and served to a short burst of cold sessions.
//
// With --trace 1 the run is traced: per-query cache counters, pings, replay
// timings and per-layer timings of public module functions. The output is
// one JSON line with the run configuration and the outcome. run.py runs an
// untraced and a traced process on the same seed, prints both by name, and
// turns them into the benchmark result.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "aqp/engine.h"
#include "aqp/executor.h"
#include "aqp/metrics.h"
#include "aqp/query.h"
#include "aqp/sql_parser.h"
#include "data/generators.h"
#include "data/workload.h"
#include "nn/kernels.h"
#include "nn/kernels_quant.h"
#include "nn/optimizer.h"
#include "relation/table.h"
#include "server/channel.h"
#include "server/server.h"
#include "server/socket_client.h"
#include "server/socket_transport.h"
#include "server/wire.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/topology.h"
#include "vae/client.h"
#include "vae/vae_model.h"
#include "vae/workflow.h"

namespace deepaqp::aqpbench {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double SecondsSince(Clock::time_point start) { return MsSince(start) / 1e3; }

// ---------------------------------------------------------------------------
// The fixed benchmark definition. Changing any of these changes what the
// benchmark measures, so they are constants, not flags.

constexpr size_t kDataRows = 20000;      ///< census rows (training relation)
constexpr int kEpochs = 6;
constexpr int kConnections = 4;          ///< = nproc of the reference machine
constexpr size_t kInitialSamples = 400;
constexpr size_t kColdMaxSamples = 6400;
constexpr size_t kWarmMaxSamples = 100000;
/// Warm sessions per connection, each grown in set-up and served for an
/// equal share of the window, then closed. The client query cache keeps one
/// selection bitmap per distinct predicate for the session's lifetime, so
/// taking turns bounds the run's memory without changing the mix.
constexpr size_t kWarmSessionsPerConnection = 4;
/// Tight enough that no group meets it before the pool cap: every first
/// query of a session grows the pool all the way to max_samples.
constexpr double kTightCi = 1e-4;
/// One query per cold session: follow-up queries on a full pool queue behind
/// other sessions' generation chunks on the shared thread pool, some for
/// ~2 ms and some not at all, which left the p50 flipping between the two.
constexpr size_t kColdQueriesPerSession = 1;
constexpr double kWarmRepeatShare = 0.35;
/// Queries generated per run. Cold and build sessions cycle through theirs,
/// so they never run out. Every warm session walks the whole de-duplicated
/// supply from its own offset, so a warm session can send about 60 000
/// fresh queries, over ten times what one used on the reference machine.
/// A warm session that runs out fails the run.
constexpr size_t kColdSupply = 4096;
constexpr size_t kWarmSupplyPerSecond = 8000;
/// Set-ups per run; setup_s is their median. build's set-up is only the
/// dataset and query supply (milliseconds), so it takes more repeats.
constexpr int kSetupRepeats = 3;
constexpr int kBuildSetupRepeats = 31;
/// Builds behind build_s on a serve workload: the set-up builds, then more
/// after the window (outside every timed slice) up to about as many as
/// build's window makes. Training time swings with the thread pool, and a
/// median of three set-up builds moved ~15% between seeds.
constexpr size_t kServeBuilds = 7;
/// Global pool size during a build. Training on every core of a shared host
/// waits on whichever core another tenant holds: at 4 threads on 4 cores
/// build_s spread 15-26% across seeds. One thread needs one free core.
constexpr int kBuildThreads = 1;
/// Cold sessions served from each freshly built artifact, per connection.
constexpr size_t kBuildServeSessions = 16;
/// Accuracy probes: sessions on the cold pool cap that answer this many
/// queries each, after each build's cold sessions and after serve_cold's
/// window. The cold queries alone are too few for a steady
/// relative_error.p50; probe latencies are not part of the latency metrics.
constexpr size_t kProbeQueries = 100;
constexpr size_t kColdProbeSessions = 4;  ///< per connection
/// Replay budget of a checked warm session (queries, in sent order).
constexpr size_t kWarmReplayLimit = 1500;
/// Served queries per connection whose error against the exact answer is
/// computed (the first ones of the window, in sent order).
constexpr size_t kErrorSamplesPerConnection = 2000;
/// Equal slices of a serve window; see Slices.
constexpr int kWindowSlices = 5;
constexpr int kIoTimeoutMs = 30000;
constexpr size_t kChunkRows = 512;       ///< vae generation chunk size
constexpr size_t kTrainBatch = 128;      ///< VaeAqpOptions::batch_size

enum class Workload { kServeCold, kServeWarm, kBuild };

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kServeCold:
      return "serve_cold";
    case Workload::kServeWarm:
      return "serve_warm";
    case Workload::kBuild:
      return "build";
  }
  return "?";
}

uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Independent nonzero seed for (purpose `tag`, item `index`) of a run.
uint64_t Derive(uint64_t seed, uint64_t tag, uint64_t index) {
  return Mix(Mix(seed ^ Mix(tag)) + index) | 1;
}

/// The relation and the model are fixed parts of the benchmark, so every
/// seed builds and serves the same model and the work per build is the
/// same; --seed picks the query streams and session seeds.
constexpr uint64_t kDataSeed = 1;
constexpr uint64_t kModelSeed = 97;
constexpr uint64_t kBiasSeed = 17;

enum SeedTag : uint64_t {
  kTagQueries = 1,
  kTagSession,
  kTagProbe,
  kTagMix,
  kTagCheck,
  kTagLayers,
};

/// Item index of session `i` of connection `c`, unique within a run.
uint64_t SessionIndex(int c, size_t i) {
  return (static_cast<uint64_t>(c) << 32) + i;
}

/// Runs `fn(c)` on kConnections threads and joins them.
void OnConnections(const std::function<void(int)>& fn) {
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) threads.emplace_back(fn, c);
  for (std::thread& t : threads) t.join();
}

/// 0 for an empty sample, so every metric stays a number.
double Quantile(std::vector<double> v, double q) {
  return v.empty() ? 0.0 : aqp::EmpiricalQuantile(std::move(v), q);
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------
// Queries.

struct Query {
  std::string sql;
  aqp::AggregateQuery ast;
};

struct QueryHygiene {
  size_t generated = 0;
  size_t parse_failures = 0;
  /// Parsed queries whose ToString differs from the SQL that was parsed.
  size_t text_mismatches = 0;
  /// Parsed queries whose AST differs from the generator's, because the
  /// rendering rounded a constant. The parsed AST is the query of record,
  /// so these stay in the stream.
  size_t rounded = 0;

  void Add(const QueryHygiene& o) {
    generated += o.generated;
    parse_failures += o.parse_failures;
    text_mismatches += o.text_mismatches;
    rounded += o.rounded;
  }
};

bool SameAst(const aqp::AggregateQuery& a, const aqp::AggregateQuery& b) {
  if (a.agg != b.agg || a.measure_attr != b.measure_attr ||
      a.group_by_attr != b.group_by_attr ||
      (a.agg == aqp::AggFunc::kQuantile && a.quantile != b.quantile) ||
      a.filter.conjunctive != b.filter.conjunctive ||
      a.filter.conditions.size() != b.filter.conditions.size()) {
    return false;
  }
  for (size_t i = 0; i < a.filter.conditions.size(); ++i) {
    const aqp::Condition& x = a.filter.conditions[i];
    const aqp::Condition& y = b.filter.conditions[i];
    if (x.attr != y.attr || x.op != y.op || x.value != y.value) return false;
  }
  return true;
}

/// Seeded workload queries rendered to SQL. Each SQL text is parsed once,
/// and the parsed AST is the query of record: exact answers and replays use
/// it, so they see what the server sees. The text must render back from the
/// parsed AST unchanged. A query that fails either test is counted and left
/// out, and Run fails the run.
std::vector<Query> MakeQueries(const relation::Table& screen,
                               const relation::Table& data, size_t n,
                               uint64_t seed, QueryHygiene* hygiene) {
  data::WorkloadConfig config;
  config.num_queries = n;
  config.seed = seed;
  std::vector<Query> out;
  for (const aqp::AggregateQuery& q : data::GenerateWorkload(screen, config)) {
    ++hygiene->generated;
    std::string sql = q.ToString(data.schema());
    util::Result<aqp::AggregateQuery> parsed = aqp::ParseSql(sql, data);
    if (!parsed.ok()) {
      ++hygiene->parse_failures;
      continue;
    }
    if (parsed->ToString(data.schema()) != sql) {
      ++hygiene->text_mismatches;
      continue;
    }
    if (!SameAst(q, *parsed)) ++hygiene->rounded;
    out.push_back({std::move(sql), std::move(*parsed)});
  }
  return out;
}

/// True when the query filters on a numeric column (a range predicate).
bool HasNumericCondition(const Query& q, const relation::Schema& schema) {
  for (const aqp::Condition& c : q.ast.filter.conditions) {
    if (!schema.IsCategorical(c.attr)) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Model build: Train with VRS, Algorithm 1, Serialize.

struct BuildResult {
  std::vector<uint8_t> bytes;
  double build_s = 0.0;
  double train_s = 0.0;
  double bias_s = 0.0;
  double serialize_ms = 0.0;
  vae::TrainingStats train;
  vae::BiasEliminationResult bias;
};

vae::VaeAqpOptions ModelOptions() {
  vae::VaeAqpOptions options;
  options.epochs = kEpochs;
  options.hidden_dim = 64;
  options.depth = 2;
  options.encoder.numeric_bins = 24;
  options.seed = kModelSeed;
  options.vrs_training = true;
  return options;
}

/// A build runs on a global pool of its own size; the serving pool (hardware
/// concurrency) comes back when the build returns. Builds never overlap
/// serving, so resizing the pool is safe.
class BuildThreads {
 public:
  explicit BuildThreads(int threads) { util::SetGlobalThreads(threads); }
  ~BuildThreads() { util::SetGlobalThreads(0); }
  BuildThreads(const BuildThreads&) = delete;
  BuildThreads& operator=(const BuildThreads&) = delete;
};

/// `threads` sizes the global pool for the build (0: hardware concurrency).
util::Result<BuildResult> Build(const relation::Table& data,
                                int threads = kBuildThreads) {
  BuildThreads pool(threads);
  BuildResult b;
  const Clock::time_point start = Clock::now();
  DEEPAQP_ASSIGN_OR_RETURN(
      std::unique_ptr<vae::VaeAqpModel> model,
      vae::VaeAqpModel::Train(data, ModelOptions(), &b.train));
  b.train_s = SecondsSince(start);
  vae::BiasEliminationOptions bias;
  bias.seed = kBiasSeed;
  const Clock::time_point bias_start = Clock::now();
  DEEPAQP_ASSIGN_OR_RETURN(b.bias,
                           vae::EliminateModelBias(*model, data, bias));
  b.bias_s = SecondsSince(bias_start);
  const Clock::time_point ser_start = Clock::now();
  b.bytes = model->Serialize();
  b.serialize_ms = MsSince(ser_start);
  b.build_s = SecondsSince(start);
  return b;
}

// ---------------------------------------------------------------------------
// Client side of the wire: one TCP connection with its own ack loop.

struct Served {
  const Query* query = nullptr;
  bool timed = true;  ///< false for set-up warm-up queries
  bool latency = true;  ///< false for accuracy probes
  bool ok = false;
  std::string error;
  Clock::time_point sent{};
  double first_ms = 0.0;  ///< send -> first estimate delivered
  double final_ms = 0.0;  ///< send -> final estimate delivered
  std::vector<std::vector<uint8_t>> payloads;  ///< EncodeEstimate bytes
  uint64_t duplicates = 0;
  /// Traced: the session's cumulative cache counters after this query.
  bool has_cache = false;
  uint64_t rows_filtered = 0;
  uint64_t rows_aggregated = 0;
};

struct SessionLog {
  uint64_t id = 0;  ///< server session id
  uint64_t seed = 0;
  size_t max_samples = 0;
  bool checked = false;  ///< replayed on a direct client after the window
  std::vector<Served> served;
};

class BenchClient {
 public:
  util::Status Connect(uint16_t port) {
    return conn_.Connect("127.0.0.1", port, 2000);
  }

  /// Opens a session; its id goes to `*session`.
  util::Status Open(uint64_t seed, size_t max_samples, uint64_t* session) {
    server::ClientMessage open;
    open.kind = server::ClientMessageKind::kOpenSession;
    open.model_name = "census";
    open.initial_samples = kInitialSamples;
    open.max_samples = max_samples;
    open.population_rows = kDataRows;
    open.seed = seed;
    DEEPAQP_RETURN_IF_ERROR(conn_.Send(open));
    for (;;) {
      DEEPAQP_ASSIGN_OR_RETURN(server::ServerMessage msg, Next());
      if (msg.kind == server::ServerMessageKind::kSessionOpened) {
        *session = msg.session;
        return util::Status::OK();
      }
      if (msg.kind == server::ServerMessageKind::kError) {
        return util::Status::Internal("open refused: " + msg.message);
      }
    }
  }

  util::Status Close(uint64_t session) {
    server::ClientMessage close;
    close.kind = server::ClientMessageKind::kCloseSession;
    close.session = session;
    DEEPAQP_RETURN_IF_ERROR(conn_.Send(close));
    for (;;) {
      DEEPAQP_ASSIGN_OR_RETURN(server::ServerMessage msg, Next());
      if (msg.kind == server::ServerMessageKind::kSessionClosed) break;
      if (msg.kind == server::ServerMessageKind::kError) {
        return util::Status::Internal("close refused: " + msg.message);
      }
    }
    return util::Status::OK();
  }

  /// One precision-on-demand stream to completion, acking every frame.
  void Run(uint64_t session, const Query& query, Served* out) {
    out->query = &query;
    const uint64_t channel = next_channel_++;
    server::ClientMessage msg;
    msg.kind = server::ClientMessageKind::kQuery;
    msg.session = session;
    msg.sql = query.sql;
    msg.max_relative_ci = kTightCi;
    msg.channel = channel;
    server::ChannelConsumer consumer(channel);
    const Clock::time_point start = Clock::now();
    out->sent = start;
    if (util::Status st = conn_.Send(msg); !st.ok()) {
      out->error = st.ToString();
      return;
    }
    while (!consumer.finished()) {
      util::Result<server::ServerMessage> next = Next();
      if (!next.ok()) {
        out->error = next.status().ToString();
        return;
      }
      if (next->kind == server::ServerMessageKind::kError &&
          (next->channel == channel || next->channel == 0)) {
        out->error = next->message;
        return;
      }
      if (next->kind != server::ServerMessageKind::kData ||
          next->channel != channel) {
        continue;
      }
      consumer.OnData(next->data);
      for (std::vector<uint8_t>& payload : consumer.TakeDelivered()) {
        if (out->payloads.empty()) out->first_ms = MsSince(start);
        out->payloads.push_back(std::move(payload));
      }
      if (consumer.finished()) out->final_ms = MsSince(start);
      server::ClientMessage ack;
      ack.kind = server::ClientMessageKind::kAck;
      ack.session = session;
      ack.ack = consumer.MakeAck();
      if (util::Status st = conn_.Send(ack); !st.ok()) {
        out->error = st.ToString();
        return;
      }
    }
    out->duplicates = consumer.stats().duplicates;
    out->ok = true;
  }

  /// kPing -> kPong round trip in microseconds.
  util::Result<double> PingUs() {
    server::ClientMessage ping;
    ping.kind = server::ClientMessageKind::kPing;
    ping.nonce = next_nonce_++;
    const Clock::time_point start = Clock::now();
    DEEPAQP_RETURN_IF_ERROR(conn_.Send(ping));
    for (;;) {
      DEEPAQP_ASSIGN_OR_RETURN(server::ServerMessage msg, Next());
      if (msg.kind == server::ServerMessageKind::kPong &&
          msg.nonce == ping.nonce) {
        return MsSince(start) * 1e3;
      }
    }
  }

 private:
  util::Result<server::ServerMessage> Next() {
    DEEPAQP_ASSIGN_OR_RETURN(std::optional<server::ServerMessage> msg,
                             conn_.Receive(kIoTimeoutMs));
    if (!msg.has_value()) {
      return util::Status::IOError("receive timed out");
    }
    return std::move(*msg);
  }

  server::SocketConnection conn_;
  uint64_t next_channel_ = 1;
  uint64_t next_nonce_ = 1;
};

// ---------------------------------------------------------------------------
// Server side: one AqpServer behind one loopback SocketServer.

class ServerStack {
 public:
  explicit ServerStack(std::shared_ptr<const vae::VaeAqpModel> model) {
    server::AqpServer::Options options;
    options.client.initial_samples = kInitialSamples;
    options.client.max_samples = kColdMaxSamples;
    options.client.population_rows = kDataRows;
    server_ = std::make_unique<server::AqpServer>(options);
    server_->registry().Install("census", std::move(model));
    socket_ = std::make_unique<server::SocketServer>(
        server_.get(), server::SocketServer::Options{});
  }

  ~ServerStack() { socket_->Shutdown(); }

  ServerStack(const ServerStack&) = delete;
  ServerStack& operator=(const ServerStack&) = delete;

  util::Status Start() {
    DEEPAQP_RETURN_IF_ERROR(socket_->Listen());
    return socket_->Start();
  }

  uint16_t port() const { return socket_->port(); }
  server::AqpServer& server() { return *server_; }

 private:
  std::unique_ptr<server::AqpServer> server_;
  std::unique_ptr<server::SocketServer> socket_;
};

// ---------------------------------------------------------------------------
// The run's query supply and sessions (made in set-up), and the logs the
// window fills. Every session has its own seed, so no session's pool ever
// answers another session's query.

/// The run's seeded queries, generated on kConnections threads. For
/// serve_warm, duplicates of an earlier SQL text are dropped: generated
/// workloads repeat short queries (COUNT(*) without a filter, say), and a
/// warm session's "fresh" query must be the first with its text in the
/// session, so the cache-hit share equals the repeat share.
std::vector<Query> MakeSupply(Workload w, const relation::Table& data,
                              uint64_t seed, int seconds,
                              QueryHygiene* hygiene) {
  const size_t total =
      w == Workload::kServeWarm
          ? static_cast<size_t>(seconds) * kWarmSupplyPerSecond
          : kColdSupply;
  // Candidate filters are screened for selectivity on a prefix of the
  // relation: same schema and value distribution, a tenth of the cost.
  std::vector<size_t> prefix(std::min<size_t>(data.num_rows(), 2000));
  for (size_t i = 0; i < prefix.size(); ++i) prefix[i] = i;
  const relation::Table screen = data.Gather(prefix);
  std::vector<std::vector<Query>> parts(kConnections);
  std::vector<QueryHygiene> part_hygiene(kConnections);
  OnConnections([&](int c) {
    parts[c] = MakeQueries(screen, data, total / kConnections,
                           Derive(seed, kTagQueries, static_cast<uint64_t>(c)),
                           &part_hygiene[c]);
  });
  std::vector<Query> supply;
  std::set<std::string> seen;
  for (int c = 0; c < kConnections; ++c) {
    hygiene->Add(part_hygiene[c]);
    for (Query& q : parts[c]) {
      if (w == Workload::kServeWarm && !seen.insert(q.sql).second) continue;
      supply.push_back(std::move(q));
    }
  }
  return supply;
}

struct ColdSession {
  uint64_t seed = 0;
  std::vector<const Query*> queries;
  bool latency = true;  ///< see Served::latency
};

/// The endless cold sessions of one connection: session i has its own seed
/// and takes `per_session` consecutive queries of the supply, interleaved
/// across connections and wrapping around. Any query is fresh to a new
/// session, so cycling the supply never turns a miss into a cache hit.
struct ColdStream {
  const std::vector<Query>* supply = nullptr;
  uint64_t run_seed = 0;
  SeedTag tag = kTagSession;  ///< kTagProbe for accuracy probes
  int conn = 0;
  size_t per_session = kColdQueriesPerSession;
  bool latency = true;

  ColdSession Session(size_t i) const {
    ColdSession s;
    s.seed = Derive(run_seed, tag, SessionIndex(conn, i));
    s.latency = latency;
    const size_t first = (i * kConnections + static_cast<size_t>(conn)) *
                         per_session;
    for (size_t k = 0; k < per_session; ++k) {
      s.queries.push_back(&(*supply)[(first + k) % supply->size()]);
    }
    return s;
  }
};

/// A warm session: its seed, and the offset into the supply where it starts.
/// The query there grows the pool in set-up; the window then sends the
/// following queries as fresh ones (wrapping around, so each at most once)
/// and mixes them with repeats in the order drawn from `mix_seed`.
struct WarmSession {
  uint64_t seed = 0;
  uint64_t mix_seed = 0;
  size_t start = 0;
};

std::vector<WarmSession> MakeWarmSessions(uint64_t seed, int c,
                                          size_t supply_size) {
  std::vector<WarmSession> sessions;
  constexpr size_t kAll = kConnections * kWarmSessionsPerConnection;
  for (size_t s = 0; s < kWarmSessionsPerConnection; ++s) {
    const size_t g = static_cast<size_t>(c) * kWarmSessionsPerConnection + s;
    WarmSession session;
    session.seed = Derive(seed, kTagSession, SessionIndex(c, s));
    session.mix_seed = Derive(seed, kTagMix, SessionIndex(c, s));
    session.start = g * supply_size / kAll;
    sessions.push_back(session);
  }
  return sessions;
}

struct ConnLog {
  std::vector<SessionLog> sessions;
  std::vector<double> ping_us;
  bool exhausted = false;  ///< a warm session ran out of fresh queries
  size_t fresh_sent = 0;
  size_t repeats_sent = 0;
  size_t max_fresh_per_session = 0;
  size_t session_failures = 0;
};

/// Tracing hooks of the window; all no-ops in an untraced run.
struct Tracer {
  bool on = false;
  server::AqpServer* server = nullptr;

  void AfterQuery(uint64_t session, Served* served) const {
    if (!on) return;
    util::Result<vae::AqpClient::CacheStats> stats =
        server->SessionCacheStats(session);
    if (!stats.ok()) return;
    served->has_cache = true;
    served->rows_filtered = stats->rows_filtered;
    served->rows_aggregated = stats->rows_aggregated;
  }

  void Ping(BenchClient& client, ConnLog* log) const {
    if (!on) return;
    util::Result<double> us = client.PingUs();
    if (us.ok()) log->ping_us.push_back(*us);
  }
};

/// Runs sessions from `stream.Session(*next)` on until `deadline` (or, when
/// `max_sessions` > 0, that many sessions). Every query of a session is
/// sent in order; no new query starts after the deadline.
void DriveCold(BenchClient& client, const ColdStream& stream, size_t* next,
               Clock::time_point deadline, size_t max_sessions,
               const Tracer& tracer, uint64_t check_seed, ConnLog* log) {
  size_t ran = 0;
  while (max_sessions == 0 ? Clock::now() < deadline : ran < max_sessions) {
    const ColdSession session = stream.Session((*next)++);
    ++ran;
    uint64_t id = 0;
    if (!client.Open(session.seed, kColdMaxSamples, &id).ok()) {
      ++log->session_failures;
      continue;
    }
    SessionLog slog;
    slog.seed = session.seed;
    slog.max_samples = kColdMaxSamples;
    // A seeded quarter of the sessions is replayed for correctness.
    slog.checked = Mix(check_seed ^ session.seed) % 4 == 0;
    tracer.Ping(client, log);
    for (const Query* q : session.queries) {
      if (max_sessions == 0 && Clock::now() >= deadline) break;
      Served served;
      served.latency = session.latency;
      client.Run(id, *q, &served);
      tracer.AfterQuery(id, &served);
      const bool ok = served.ok;
      slog.served.push_back(std::move(served));
      if (!ok) break;
    }
    log->sessions.push_back(std::move(slog));
    if (!client.Close(id).ok()) ++log->session_failures;
  }
}

/// Warm sessions in turn, each for an equal share of the window: fresh
/// queries mixed with repeats of the session's earlier queries, in an order
/// fixed by the session's mix seed.
void DriveWarm(BenchClient& client, const std::vector<Query>& supply,
               const std::vector<WarmSession>& sessions,
               Clock::time_point start, Clock::time_point deadline,
               const Tracer& tracer, ConnLog* log) {
  const Clock::duration turn =
      (deadline - start) / static_cast<int64_t>(sessions.size());
  size_t sent = 0;
  for (size_t s = 0; s < sessions.size(); ++s) {
    const WarmSession& session = sessions[s];
    SessionLog& slog = log->sessions[s];
    const Clock::time_point turn_end =
        s + 1 == sessions.size()
            ? deadline
            : start + turn * static_cast<int64_t>(s + 1);
    std::vector<const Query*> history = {&supply[session.start]};
    util::Rng mix(session.mix_seed);
    size_t fresh = 0;
    while (Clock::now() < turn_end) {
      const Query* q = nullptr;
      if (mix.NextDouble() < kWarmRepeatShare) {
        q = history[mix.NextIndex(history.size())];
        ++log->repeats_sent;
      } else if (fresh + 1 < supply.size()) {
        q = &supply[(session.start + 1 + fresh++) % supply.size()];
        history.push_back(q);
      } else {
        log->exhausted = true;  // fails the run: the mix would change
        break;
      }
      if (sent++ % 32 == 0) tracer.Ping(client, log);
      Served served;
      client.Run(slog.id, *q, &served);
      tracer.AfterQuery(slog.id, &served);
      const bool ok = served.ok;
      slog.served.push_back(std::move(served));
      if (!ok) break;
    }
    log->fresh_sent += fresh;
    log->max_fresh_per_session = std::max(log->max_fresh_per_session, fresh);
    if (!client.Close(slog.id).ok()) ++log->session_failures;
  }
}

// ---------------------------------------------------------------------------
// Correctness: replay on a direct client, exact answers on the true table.

struct ReplayTiming {
  std::vector<double> refine_step_ms;   ///< every QueryRefineStep
  std::vector<double> overhead_ms;      ///< final latency - replayed steps
  std::vector<double> first_gap_ms;     ///< first latency - first step
};

/// Replays a session's first `limit` served queries, in order, on
/// AqpClient::Share with the session's seed and requires every served
/// estimate to equal the direct one byte for byte. Returns the number of
/// mismatching queries.
size_t ReplaySession(const std::shared_ptr<const vae::VaeAqpModel>& model,
                     const SessionLog& log, size_t limit,
                     ReplayTiming* timing) {
  vae::AqpClient::Options options;
  options.initial_samples = kInitialSamples;
  options.max_samples = log.max_samples;
  options.population_rows = kDataRows;
  options.seed = log.seed;
  std::unique_ptr<vae::AqpClient> client =
      vae::AqpClient::Share(model, options);
  size_t mismatches = 0;
  for (size_t i = 0; i < log.served.size() && i < limit; ++i) {
    const Served& served = log.served[i];
    if (!served.ok) break;  // the session's state past a failure is unknown
    util::Result<aqp::AggregateQuery> query =
        aqp::ParseSql(served.query->sql, client->pool());
    if (!query.ok()) {
      ++mismatches;
      break;
    }
    std::vector<std::vector<uint8_t>> direct;
    std::vector<double> steps;
    bool final = false;
    while (!final) {
      const Clock::time_point start = Clock::now();
      util::Result<aqp::QueryResult> result =
          client->QueryRefineStep(*query, kTightCi, &final);
      const double ms = MsSince(start);
      if (!result.ok()) break;
      server::Estimate estimate;
      estimate.pool_rows = client->pool_size();
      estimate.result = std::move(*result);
      direct.push_back(server::EncodeEstimate(estimate));
      steps.push_back(ms);
    }
    if (direct != served.payloads) {
      ++mismatches;
      continue;
    }
    // Layer timings cover the queries the latency metrics cover.
    if (timing != nullptr && served.timed && served.latency) {
      double steps_ms = 0.0;
      for (double ms : steps) steps_ms += ms;
      timing->refine_step_ms.insert(timing->refine_step_ms.end(),
                                    steps.begin(), steps.end());
      timing->overhead_ms.push_back(served.final_ms - steps_ms);
      timing->first_gap_ms.push_back(served.first_ms - steps.front());
    }
  }
  return mismatches;
}

/// Relative error of each timed query's final served estimate against the
/// exact answer on the true table (paper Eq. 3).
std::vector<double> RelativeErrors(const relation::Table& data,
                                   const std::vector<ConnLog>& logs) {
  std::map<const Query*, aqp::QueryResult> exact;
  std::vector<double> errors;
  for (const ConnLog& log : logs) {
    size_t taken = 0;
    for (const SessionLog& s : log.sessions) {
      for (const Served& served : s.served) {
        if (!served.ok || !served.timed) continue;
        if (++taken > kErrorSamplesPerConnection) break;
        auto it = exact.find(served.query);
        if (it == exact.end()) {
          util::Result<aqp::QueryResult> truth =
              aqp::ExecuteExact(served.query->ast, data);
          if (!truth.ok()) continue;
          it = exact.emplace(served.query, std::move(*truth)).first;
        }
        util::Result<server::Estimate> est =
            server::DecodeEstimate(served.payloads.back());
        if (!est.ok()) continue;
        errors.push_back(aqp::ResultRelativeError(est->result, it->second));
      }
    }
  }
  return errors;
}

// ---------------------------------------------------------------------------
// Results.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::vector<Metric> e2e;
  std::vector<Metric> layers;
  std::vector<std::pair<std::string, double>> notes;  ///< sample counts etc.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  bool correct = true;
  std::vector<std::string> problems;
};

void Fail(Outcome* out, const std::string& why) {
  out->correct = false;
  out->problems.push_back(why);
}

/// Per-layer timings of public module functions on a private copy of the
/// served model (traced runs only).
void MeasureModelLayers(const std::vector<uint8_t>& bytes,
                        const relation::Table& data, uint64_t seed,
                        Outcome* out) {
  util::Result<std::unique_ptr<vae::VaeAqpModel>> loaded =
      vae::VaeAqpModel::Deserialize(bytes);
  if (!loaded.ok()) {
    Fail(out, "layer model load: " + loaded.status().ToString());
    return;
  }
  vae::VaeAqpModel& model = **loaded;
  const vae::VaeNet& net = model.net();
  util::Rng rng(Derive(seed, kTagLayers, 0));
  constexpr int kReps = 60;

  std::vector<double> decoder_us, ratio_us, decode_us;
  nn::Matrix z = net.SamplePrior(kChunkRows, rng);
  for (int r = 0; r < kReps; ++r) {
    Clock::time_point t0 = Clock::now();
    nn::Matrix logits = net.DecodeLogitsConst(z);
    decoder_us.push_back(MsSince(t0) * 1e3);

    nn::Matrix bits(logits.rows(), logits.cols());
    nn::SigmoidBernoulliVec(logits.data(), bits.size(), rng, bits.data());
    t0 = Clock::now();
    vae::VaeNet::Posterior post = net.EncodeConst(bits);
    nn::Matrix ratio = net.LogRatioRowsConst(bits, post, z);
    ratio_us.push_back(MsSince(t0) * 1e3);

    t0 = Clock::now();
    relation::Table decoded =
        model.tuple_encoder().DecodeLogits(logits, model.options().decode, rng);
    decode_us.push_back(MsSince(t0) * 1e3);
    if (decoded.num_rows() != kChunkRows || ratio.rows() != kChunkRows) {
      Fail(out, "layer shapes");
    }
  }

  // One VRS training step at the training shape on the loaded weights, on
  // the pool size the builds behind build_s use.
  BuildThreads pool(kBuildThreads);
  std::vector<size_t> rows(kTrainBatch);
  for (size_t i = 0; i < kTrainBatch; ++i) rows[i] = i;
  nn::Matrix batch = model.tuple_encoder().EncodeRows(data, rows);
  vae::VaeNet& train_net = model.net();
  nn::Adam adam(train_net.Parameters(), 1e-3f);
  std::vector<float> row_t(kTrainBatch, 0.0f);
  vae::TrainStepOptions step;
  step.use_vrs = true;
  step.row_t = &row_t;
  std::vector<double> step_ms;
  for (int r = 0; r < kReps; ++r) {
    const Clock::time_point t0 = Clock::now();
    train_net.TrainStep(batch, adam, rng, step);
    step_ms.push_back(MsSince(t0));
  }

  out->layers.push_back({"nn.decoder_forward_us", Median(decoder_us), "us"});
  out->layers.push_back({"vae.log_ratio_us", Median(ratio_us), "us"});
  out->layers.push_back({"encoding.decode_us", Median(decode_us), "us"});
  out->layers.push_back({"nn.train_step_ms", Median(step_ms), "ms"});
}

/// Generate over the pool-doubling increments a session of the checked
/// logs went through: initial_samples, then doublings up to its cap.
void MeasureGenerate(const std::shared_ptr<const vae::VaeAqpModel>& model,
                     const std::vector<const SessionLog*>& sessions,
                     Outcome* out) {
  std::vector<double> session_ms;
  double rows = 0.0;
  double seconds = 0.0;
  const double t = std::isnan(model->default_t()) ? vae::kTPlusInf
                                                  : model->default_t();
  for (const SessionLog* s : sessions) {
    util::Rng rng(s->seed);
    size_t pool = 0;
    size_t target = kInitialSamples;
    double ms = 0.0;
    while (pool < s->max_samples) {
      target = std::min(target, s->max_samples);
      const Clock::time_point t0 = Clock::now();
      relation::Table extra = model->Generate(target - pool, t, rng);
      ms += MsSince(t0);
      if (extra.num_rows() == 0) break;  // degraded generation gave up
      pool += extra.num_rows();
      target = pool * 2;
    }
    session_ms.push_back(ms);
    rows += static_cast<double>(pool);
    seconds += ms / 1e3;
  }
  out->layers.push_back({"vae.generate_ms", Median(session_ms), "ms"});
  out->layers.push_back(
      {"vae.generate_rows_per_s", seconds > 0 ? rows / seconds : 0.0,
       "rows/s"});
}

/// Engine and wire timings over the checked sessions' queries.
void MeasureQueryLayers(const std::shared_ptr<const vae::VaeAqpModel>& model,
                        const SessionLog& pool_session,
                        const std::vector<const SessionLog*>& sessions,
                        Outcome* out) {
  std::vector<const Query*> queries;
  std::vector<const std::vector<uint8_t>*> payloads;
  for (const SessionLog* s : sessions) {
    for (const Served& served : s->served) {
      if (!served.ok) continue;
      queries.push_back(served.query);
      for (const auto& p : served.payloads) payloads.push_back(&p);
    }
  }
  std::sort(queries.begin(), queries.end());
  queries.erase(std::unique(queries.begin(), queries.end()), queries.end());
  if (queries.size() > 400) queries.resize(400);
  if (payloads.size() > 400) payloads.resize(400);

  // A direct client grown to the pool cap of `pool_session`.
  vae::AqpClient::Options options;
  options.initial_samples = pool_session.max_samples;
  options.max_samples = pool_session.max_samples;
  options.population_rows = kDataRows;
  options.seed = pool_session.seed;
  std::unique_ptr<vae::AqpClient> client =
      vae::AqpClient::Share(model, options);
  const relation::Table& pool = client->pool();
  const double n = static_cast<double>(pool.num_rows());

  std::vector<double> parse_us, filter_ns, agg_ns;
  for (const Query* q : queries) {
    Clock::time_point t0 = Clock::now();
    util::Result<aqp::AggregateQuery> parsed = aqp::ParseSql(q->sql, pool);
    parse_us.push_back(MsSince(t0) * 1e3);
    if (!parsed.ok()) {
      Fail(out, "parse of a served query failed");
      continue;
    }
    aqp::SelectionVector sel;
    t0 = Clock::now();
    aqp::EvalPredicate(parsed->filter, pool, 0, pool.num_rows(), &sel);
    filter_ns.push_back(MsSince(t0) * 1e6 / n);

    const size_t groups =
        parsed->IsGroupBy()
            ? static_cast<size_t>(pool.Cardinality(
                  static_cast<size_t>(parsed->group_by_attr)))
            : 1;
    aqp::DenseGroupMoments acc;
    acc.EnsureGroups(std::max<size_t>(groups, 1),
                     parsed->agg == aqp::AggFunc::kQuantile);
    t0 = Clock::now();
    aqp::AccumulateSelected(*parsed, pool, sel, 0, pool.num_rows(), &acc);
    agg_ns.push_back(MsSince(t0) * 1e6 / n);
  }

  std::vector<double> encode_us, bytes;
  for (const std::vector<uint8_t>* p : payloads) {
    util::Result<server::Estimate> est = server::DecodeEstimate(*p);
    if (!est.ok()) {
      Fail(out, "served payload does not decode");
      continue;
    }
    const Clock::time_point t0 = Clock::now();
    server::ServerMessage msg;
    msg.kind = server::ServerMessageKind::kData;
    msg.data.payload = server::EncodeEstimate(*est);
    const std::vector<uint8_t> wire = server::EncodeServerMessage(msg);
    encode_us.push_back(MsSince(t0) * 1e3);
    bytes.push_back(static_cast<double>(wire.size()));
  }

  out->layers.push_back({"aqp.parse_us", Median(parse_us), "us"});
  out->layers.push_back({"aqp.filter_ns_per_row", Median(filter_ns), "ns"});
  out->layers.push_back(
      {"aqp.aggregate_ns_per_row", Median(agg_ns), "ns"});
  out->layers.push_back({"server.wire_encode_us", Median(encode_us), "us"});
  out->layers.push_back({"server.estimate_bytes", Median(bytes), "bytes"});
}

/// Consecutive measuring slices: equal parts of a serve window, or the
/// serve bursts of build's cycles. Throughput and p50 latencies are the
/// median over slices of each slice's figure, so a burst of load from
/// outside the process that covers less than half of the slices does not
/// move them.
struct Slices {
  std::vector<Clock::time_point> begin;
  std::vector<double> seconds;

  void Add(Clock::time_point at, double length_s) {
    begin.push_back(at);
    seconds.push_back(length_s);
  }

  /// Index of the slice a query sent at `t` belongs to.
  size_t Of(Clock::time_point t) const {
    const auto it = std::upper_bound(begin.begin(), begin.end(), t);
    return it == begin.begin()
               ? 0
               : static_cast<size_t>(it - begin.begin()) - 1;
  }
};

/// Median over slices of `stat` applied to each non-empty slice.
double SliceMedian(
    const std::vector<std::vector<double>>& per_slice,
    const std::function<double(const std::vector<double>&)>& stat) {
  std::vector<double> values;
  for (const std::vector<double>& v : per_slice) {
    if (!v.empty()) values.push_back(stat(v));
  }
  return Median(std::move(values));
}

/// Metrics that come from the window's logs.
void Summarize(Workload w, const relation::Table& data,
               const std::shared_ptr<const vae::VaeAqpModel>& model,
               const std::vector<ConnLog>& logs, size_t supply_size,
               const Slices& slices, bool traced, Outcome* out) {
  std::vector<std::vector<double>> first(slices.begin.size());
  std::vector<std::vector<double>> final(slices.begin.size());
  size_t ok_count = 0, sent_count = 0, numeric_count = 0;
  uint64_t estimates = 0, duplicates = 0;
  uint64_t cache_queries = 0, cache_hits = 0, filtered = 0, aggregated = 0;
  size_t fresh_sent = 0, repeats_sent = 0, max_fresh = 0;
  std::vector<const SessionLog*> checked;
  for (const ConnLog& log : logs) {
    if (log.exhausted) Fail(out, "a warm session ran out of fresh queries");
    fresh_sent += log.fresh_sent;
    repeats_sent += log.repeats_sent;
    max_fresh = std::max(max_fresh, log.max_fresh_per_session);
    out->attempted += log.session_failures;
    out->failed += log.session_failures;
    for (const SessionLog& s : log.sessions) {
      if (s.checked) checked.push_back(&s);
      uint64_t prev_f = 0, prev_a = 0;
      for (const Served& served : s.served) {
        const uint64_t df = served.rows_filtered - prev_f;
        const uint64_t da = served.rows_aggregated - prev_a;
        prev_f = served.rows_filtered;
        prev_a = served.rows_aggregated;
        if (!served.timed) continue;
        ++out->attempted;
        ++sent_count;
        if (HasNumericCondition(*served.query, data.schema())) {
          ++numeric_count;
        }
        if (!served.ok) {
          ++out->failed;
          out->problems.push_back("query failed: " + served.error);
          continue;
        }
        duplicates += served.duplicates;
        // Cache counters cover every traced query, accuracy probes too.
        if (served.has_cache) {
          ++cache_queries;
          filtered += df;
          aggregated += da;
          if (df == 0 && da == 0) ++cache_hits;
        }
        if (!served.latency) continue;
        const size_t slice = slices.Of(served.sent);
        first[slice].push_back(served.first_ms);
        final[slice].push_back(served.final_ms);
        ++ok_count;
        estimates += served.payloads.size();
      }
    }
  }
  const double ok_queries = static_cast<double>(ok_count);

  // Correctness: byte-identical replay of the checked sessions.
  ReplayTiming timing;
  for (const SessionLog* s : checked) {
    const size_t limit =
        w == Workload::kServeWarm ? kWarmReplayLimit : s->served.size();
    const size_t bad =
        ReplaySession(model, *s, limit, traced ? &timing : nullptr);
    out->mismatches += bad;
    out->failed += bad;
  }
  if (checked.empty()) Fail(out, "no session was checked");
  if (out->mismatches > 0) Fail(out, "served estimates differ from replay");
  if (out->failed > 0) out->correct = false;

  std::vector<double> errors = RelativeErrors(data, logs);

  std::vector<double> rates;
  for (size_t k = 0; k < slices.seconds.size(); ++k) {
    if (slices.seconds[k] > 0) {
      rates.push_back(static_cast<double>(final[k].size()) / slices.seconds[k]);
    }
  }
  auto p50 = [](const std::vector<double>& v) { return Quantile(v, 0.5); };
  // A slice of serve_cold holds ~180 queries (a build burst 64), under ten
  // beyond its p95, so the p95 is taken over the whole run's queries.
  auto pooled_p95 = [](const std::vector<std::vector<double>>& per_slice) {
    std::vector<double> all;
    for (const std::vector<double>& v : per_slice) {
      all.insert(all.end(), v.begin(), v.end());
    }
    return Quantile(std::move(all), 0.95);
  };
  out->e2e.push_back({"queries_per_s", Median(rates), "1/s"});
  out->e2e.push_back({"first_estimate_ms.p50", SliceMedian(first, p50), "ms"});
  out->e2e.push_back({"first_estimate_ms.p95", pooled_p95(first), "ms"});
  out->e2e.push_back({"final_estimate_ms.p50", SliceMedian(final, p50), "ms"});
  out->e2e.push_back({"final_estimate_ms.p95", pooled_p95(final), "ms"});
  out->e2e.push_back({"relative_error.p50", Quantile(errors, 0.5), "ratio"});
  out->notes.push_back({"latency_samples", ok_queries});
  out->notes.push_back({"slices", static_cast<double>(slices.begin.size())});
  out->notes.push_back({"relative_error_samples",
                        static_cast<double>(errors.size())});
  out->notes.push_back(
      {"numeric_filter_share",
       static_cast<double>(numeric_count) /
           std::max(1.0, static_cast<double>(sent_count))});
  if (w == Workload::kServeWarm) {
    const double warm_sent = static_cast<double>(fresh_sent + repeats_sent);
    out->notes.push_back({"fresh_sent", static_cast<double>(fresh_sent)});
    out->notes.push_back(
        {"fresh_share", static_cast<double>(fresh_sent) /
                            std::max(1.0, warm_sent)});
    // Largest share of a session's fresh supply that was used.
    out->notes.push_back(
        {"fresh_supply_used",
         static_cast<double>(max_fresh) /
             std::max(1.0, static_cast<double>(supply_size - 1))});
  }
  out->notes.push_back({"checked_sessions",
                        static_cast<double>(checked.size())});
  // A loopback connection that never reconnects should deliver no frame
  // twice; a nonzero count points at the channel protocol.
  out->notes.push_back({"duplicates", static_cast<double>(duplicates)});
  out->notes.push_back({"failed_ratio",
                        out->attempted > 0
                            ? static_cast<double>(out->failed) /
                                  static_cast<double>(out->attempted)
                            : 1.0});

  if (!traced) return;
  std::vector<double> ping;
  for (const ConnLog& log : logs) {
    ping.insert(ping.end(), log.ping_us.begin(), log.ping_us.end());
  }
  const double q = std::max(1.0, ok_queries);
  out->layers.push_back(
      {"vae.refine_step_ms", Median(timing.refine_step_ms), "ms"});
  out->layers.push_back(
      {"server.overhead_ms", Median(timing.overhead_ms), "ms"});
  out->layers.push_back(
      {"server.first_frame_gap_ms", Median(timing.first_gap_ms), "ms"});
  out->layers.push_back({"server.ping_rtt_us", Median(ping), "us"});
  out->layers.push_back(
      {"server.estimates_per_query", static_cast<double>(estimates) / q,
       "count"});
  const double cq = std::max<double>(1.0, static_cast<double>(cache_queries));
  out->layers.push_back({"aqp.rows_filtered_per_query",
                         static_cast<double>(filtered) / cq, "rows"});
  out->layers.push_back({"aqp.rows_aggregated_per_query",
                         static_cast<double>(aggregated) / cq, "rows"});
  out->layers.push_back({"aqp.cache_hit_ratio",
                         static_cast<double>(cache_hits) / cq, "ratio"});
  out->layers.push_back(
      {"aqp.cache_lookups", static_cast<double>(cache_queries), "count"});

  std::vector<const SessionLog*> layer_sessions = checked;
  if (layer_sessions.size() > 8) layer_sessions.resize(8);
  MeasureGenerate(model, layer_sessions, out);
  if (!checked.empty()) {
    MeasureQueryLayers(model, *checked.front(), layer_sessions, out);
  }
}

void AddBuildLayers(const std::vector<BuildResult>& builds, Outcome* out) {
  std::vector<double> train, epoch, bias, iters, snapshot;
  for (const BuildResult& b : builds) {
    train.push_back(b.train_s);
    for (const vae::EpochStats& e : b.train.epochs) epoch.push_back(e.seconds);
    bias.push_back(b.bias_s);
    iters.push_back(b.bias.iterations);
    snapshot.push_back(b.serialize_ms);
  }
  const vae::TrainingStats& last = builds.back().train;
  out->layers.push_back({"vae.train_s", Median(train), "s"});
  out->layers.push_back({"vae.epoch_s", Median(epoch), "s"});
  out->layers.push_back(
      {"vae.train_acceptance",
       last.epochs.empty() ? 0.0 : last.epochs.back().acceptance, "ratio"});
  out->layers.push_back({"stats.bias_elimination_s", Median(bias), "s"});
  out->layers.push_back({"stats.bias_iterations", Median(iters), "count"});
  out->layers.push_back({"util.snapshot_write_ms", Median(snapshot), "ms"});
}

// ---------------------------------------------------------------------------
// Workloads.

struct RunArgs {
  Workload workload = Workload::kServeCold;
  uint64_t seed = 1;
  int seconds = 10;
  bool traced = false;
  int setups = kSetupRepeats;
};

/// What one set-up leaves behind for the window.
struct Prepared {
  explicit Prepared(relation::Table census) : data(std::move(census)) {}

  relation::Table data;
  std::vector<Query> supply;  ///< every query the run sends
  std::vector<std::vector<WarmSession>> warm;  ///< per connection
  QueryHygiene hygiene;
  /// Serve workloads: the set-up build; build: every build of the window.
  std::vector<BuildResult> builds;
  std::vector<uint8_t> bytes;
  std::shared_ptr<const vae::VaeAqpModel> model;
  std::unique_ptr<ServerStack> stack;
  std::vector<std::unique_ptr<BenchClient>> clients;
  std::vector<ConnLog> logs;
};

/// Connection `c`'s latency sessions (`probes` false) or accuracy probes.
ColdStream MakeColdStream(const RunArgs& args, const Prepared& p, int c,
                          bool probes) {
  ColdStream stream;
  stream.supply = &p.supply;
  stream.run_seed = args.seed;
  stream.conn = c;
  if (probes) {
    stream.tag = kTagProbe;
    stream.per_session = kProbeQueries;
    stream.latency = false;
  }
  return stream;
}

util::Status LoadModel(const std::vector<uint8_t>& bytes,
                       std::shared_ptr<const vae::VaeAqpModel>* model) {
  DEEPAQP_ASSIGN_OR_RETURN(std::unique_ptr<vae::VaeAqpModel> loaded,
                           vae::VaeAqpModel::Deserialize(bytes));
  *model = std::move(loaded);
  return util::Status::OK();
}

util::Status StartServing(Prepared* p) {
  p->stack = std::make_unique<ServerStack>(p->model);
  DEEPAQP_RETURN_IF_ERROR(p->stack->Start());
  p->clients.clear();
  for (int c = 0; c < kConnections; ++c) {
    p->clients.push_back(std::make_unique<BenchClient>());
    DEEPAQP_RETURN_IF_ERROR(p->clients.back()->Connect(p->stack->port()));
  }
  return util::Status::OK();
}

/// Stops the server and trims the heap, so the next phase (a build cycle,
/// the post-window builds) starts from a trimmed heap and the peak RSS is
/// one phase's, not how earlier frees happened to fragment the heap.
void StopServing(Prepared* p) {
  p->clients.clear();
  p->stack.reset();
  malloc_trim(0);
}

/// Set-up after the dataset: the query supply, model build and load (serve
/// workloads), server start, and for serve_warm the pool warm-up of every
/// session.
util::Status Setup(const RunArgs& args, Prepared* p) {
  p->supply = MakeSupply(args.workload, p->data, args.seed, args.seconds,
                         &p->hygiene);
  if (p->supply.empty()) return util::Status::Internal("no queries");
  p->logs.assign(kConnections, ConnLog{});
  if (args.workload == Workload::kBuild) return util::Status::OK();

  DEEPAQP_ASSIGN_OR_RETURN(BuildResult build, Build(p->data));
  p->bytes = build.bytes;
  p->builds.push_back(std::move(build));
  DEEPAQP_RETURN_IF_ERROR(LoadModel(p->bytes, &p->model));
  DEEPAQP_RETURN_IF_ERROR(StartServing(p));
  if (args.workload != Workload::kServeWarm) return util::Status::OK();

  for (int c = 0; c < kConnections; ++c) {
    p->warm.push_back(MakeWarmSessions(args.seed, c, p->supply.size()));
  }
  Tracer tracer;
  tracer.on = args.traced;
  tracer.server = &p->stack->server();
  std::vector<util::Status> status(kConnections);
  OnConnections([&](int c) {
    BenchClient& client = *p->clients[c];
    for (const WarmSession& session : p->warm[c]) {
      SessionLog slog;
      slog.seed = session.seed;
      slog.max_samples = kWarmMaxSamples;
      status[c] = client.Open(session.seed, kWarmMaxSamples, &slog.id);
      if (!status[c].ok()) return;
      Served grow;
      grow.timed = false;
      client.Run(slog.id, p->supply[session.start], &grow);
      // The cache counters' baseline for the window's first query.
      tracer.AfterQuery(slog.id, &grow);
      if (!grow.ok) {
        status[c] = util::Status::Internal("warm-up failed: " + grow.error);
      }
      slog.served.push_back(std::move(grow));
      p->logs[c].sessions.push_back(std::move(slog));
      if (!status[c].ok()) return;
    }
  });
  for (const util::Status& st : status) DEEPAQP_RETURN_IF_ERROR(st);
  // One seeded warm session is replayed for correctness.
  const uint64_t pick = Derive(args.seed, kTagCheck, 0) %
                        (kConnections * kWarmSessionsPerConnection);
  p->logs[pick % kConnections]
      .sessions[pick / kConnections]
      .checked = true;
  return util::Status::OK();
}

Outcome RunServe(const RunArgs& args, Prepared* p) {
  Outcome out;
  Tracer tracer;
  tracer.on = args.traced;
  tracer.server = &p->stack->server();
  const uint64_t check_seed = Derive(args.seed, kTagCheck, 0);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = start + std::chrono::seconds(args.seconds);
  OnConnections([&](int c) {
    if (args.workload == Workload::kServeWarm) {
      DriveWarm(*p->clients[c], p->supply, p->warm[c], start, deadline,
                tracer, &p->logs[c]);
    } else {
      size_t next = 0;
      DriveCold(*p->clients[c], MakeColdStream(args, *p, c, false), &next,
                deadline, 0, tracer, check_seed, &p->logs[c]);
    }
  });
  const double window = SecondsSince(start);
  Slices slices;
  const double slice_s = static_cast<double>(args.seconds) / kWindowSlices;
  for (int k = 0; k < kWindowSlices; ++k) {
    const bool last = k + 1 == kWindowSlices;
    slices.Add(start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(k * slice_s)),
               last ? window - k * slice_s : slice_s);
  }
  if (args.workload == Workload::kServeCold) {
    OnConnections([&](int c) {
      size_t next_probe = 0;
      DriveCold(*p->clients[c], MakeColdStream(args, *p, c, true),
                &next_probe, Clock::time_point{}, kColdProbeSessions, tracer,
                check_seed, &p->logs[c]);
    });
  }
  StopServing(p);
  Summarize(args.workload, p->data, p->model, p->logs, p->supply.size(),
            slices, args.traced, &out);
  return out;
}

/// build: repeated Train + EliminateModelBias + Serialize until the window
/// closes. Each artifact is checked against the first one (builds are
/// deterministic), loaded, served to a short cold burst (timed as load +
/// burst), and then to one accuracy probe session per connection.
Outcome RunBuild(const RunArgs& args, Prepared* p) {
  Outcome out;
  const uint64_t check_seed = Derive(args.seed, kTagCheck, 0);
  std::vector<BuildResult> builds;
  std::vector<size_t> next(kConnections, 0);
  std::vector<size_t> next_probe(kConnections, 0);
  Slices slices;  // one per cycle: load + cold burst
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = start + std::chrono::seconds(args.seconds);
  while (builds.empty() || Clock::now() < deadline) {
    util::Result<BuildResult> build = Build(p->data);
    ++out.attempted;
    if (!build.ok()) {
      ++out.failed;
      Fail(&out, "build failed: " + build.status().ToString());
      break;
    }
    if (!builds.empty() && build->bytes != builds.front().bytes) {
      ++out.failed;
      Fail(&out, "rebuilt model differs from the first build");
    }
    p->bytes = build->bytes;
    builds.push_back(std::move(*build));

    const Clock::time_point serve_start = Clock::now();
    util::Status st = LoadModel(p->bytes, &p->model);
    if (st.ok()) st = StartServing(p);
    if (!st.ok()) {
      ++out.failed;
      Fail(&out, "serving the artifact failed: " + st.ToString());
      break;
    }
    Tracer tracer;
    tracer.on = args.traced;
    tracer.server = &p->stack->server();
    OnConnections([&](int c) {
      DriveCold(*p->clients[c], MakeColdStream(args, *p, c, false), &next[c],
                Clock::time_point{}, kBuildServeSessions, tracer, check_seed,
                &p->logs[c]);
    });
    slices.Add(serve_start, SecondsSince(serve_start));
    OnConnections([&](int c) {
      DriveCold(*p->clients[c], MakeColdStream(args, *p, c, true),
                &next_probe[c], Clock::time_point{}, 1, tracer, check_seed,
                &p->logs[c]);
    });
    StopServing(p);
  }
  out.notes.push_back({"builds", static_cast<double>(builds.size())});
  // One build on the default pool after the window, so the thread-pool cost
  // of training stays on record; builds are deterministic at any pool size.
  ++out.attempted;
  if (util::Result<BuildResult> pooled = Build(p->data, 0); !pooled.ok()) {
    ++out.failed;
    Fail(&out, "build failed: " + pooled.status().ToString());
  } else {
    if (pooled->bytes != builds.front().bytes) {
      ++out.failed;
      Fail(&out, "a build on the default pool differs from the first build");
    }
    out.notes.push_back({"build_s_default_pool", pooled->build_s});
  }
  Summarize(args.workload, p->data, p->model, p->logs, p->supply.size(),
            slices, args.traced, &out);
  p->builds = std::move(builds);
  return out;
}

/// Set-up repeated args.setups times (the median is setup_s), then the
/// window on the last set-up.
Outcome Run(const RunArgs& args) {
  std::vector<double> setup_s;
  std::vector<BuildResult> setup_builds;
  std::unique_ptr<Prepared> prepared;
  for (int i = 0; i < args.setups; ++i) {
    prepared.reset();  // tears the previous set-up's server down first
    malloc_trim(0);
    const Clock::time_point start = Clock::now();
    prepared = std::make_unique<Prepared>(data::GenerateCensus(
        {.rows = kDataRows, .seed = kDataSeed}));
    if (util::Status st = Setup(args, prepared.get()); !st.ok()) {
      Outcome out;
      Fail(&out, "set-up failed: " + st.ToString());
      return out;
    }
    setup_s.push_back(SecondsSince(start));
    for (const BuildResult& b : prepared->builds) setup_builds.push_back(b);
  }
  Outcome out = args.workload == Workload::kBuild
                    ? RunBuild(args, prepared.get())
                    : RunServe(args, prepared.get());
  while (args.workload != Workload::kBuild &&
         setup_builds.size() < kServeBuilds) {
    util::Result<BuildResult> build = Build(prepared->data);
    if (!build.ok()) {
      Fail(&out, "build failed: " + build.status().ToString());
      break;
    }
    if (build->bytes != prepared->bytes) {
      Fail(&out, "rebuilt model differs from the set-up build");
    }
    setup_builds.push_back(std::move(*build));
  }
  const std::vector<BuildResult>& builds =
      args.workload == Workload::kBuild ? prepared->builds : setup_builds;
  std::vector<double> build_s;
  for (const BuildResult& b : builds) build_s.push_back(b.build_s);
  out.e2e.push_back({"build_s", Median(build_s), "s"});
  if (args.traced) {
    AddBuildLayers(builds, &out);
    MeasureModelLayers(prepared->bytes, prepared->data, args.seed, &out);
  }
  out.e2e.push_back({"model_bytes", static_cast<double>(prepared->bytes.size()),
                     "bytes"});
  out.e2e.push_back({"setup_s", Median(setup_s), "s"});
  out.e2e.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  const QueryHygiene& h = prepared->hygiene;
  out.notes.push_back({"queries_generated", static_cast<double>(h.generated)});
  out.notes.push_back(
      {"queries_parse_failures", static_cast<double>(h.parse_failures)});
  out.notes.push_back({"queries_text_mismatches",
                       static_cast<double>(h.text_mismatches)});
  out.notes.push_back(
      {"queries_constants_rounded", static_cast<double>(h.rounded)});
  out.notes.push_back(
      {"query_supply", static_cast<double>(prepared->supply.size())});
  if (h.parse_failures > 0) Fail(&out, "generated queries failed to parse");
  if (h.text_mismatches > 0) {
    Fail(&out, "parsed queries do not render back to their SQL text");
  }
  return out;
}

// ---------------------------------------------------------------------------
// Output.

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) + ", \"unit\": " +
           JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string NotesJson(const std::vector<std::pair<std::string, double>>& n) {
  std::string out = "{";
  for (size_t i = 0; i < n.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(n[i].first) + ": " + JsonNumber(n[i].second);
  }
  return out + "}";
}

std::string OutcomeJson(const Outcome& o) {
  std::string problems = "[";
  for (size_t i = 0; i < o.problems.size() && i < 20; ++i) {
    if (i > 0) problems += ", ";
    problems += JsonString(o.problems[i]);
  }
  problems += "]";
  return "{\"correct\": " + std::string(o.correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(o.attempted) +
         ", \"failed\": " + std::to_string(o.failed) +
         ", \"mismatches\": " + std::to_string(o.mismatches) +
         ", \"e2e\": " + MetricsJson(o.e2e) +
         ", \"layers\": " + MetricsJson(o.layers) +
         ", \"notes\": " + NotesJson(o.notes) + ", \"problems\": " + problems +
         "}";
}

std::string ConfigJson(const RunArgs& args) {
  auto field = [](const char* k, const std::string& v) {
    return JsonString(k) + ": " + v;
  };
  const std::vector<std::string> fields = {
      field("workload", JsonString(WorkloadName(args.workload))),
      field("seed", std::to_string(args.seed)),
      field("seconds", std::to_string(args.seconds)),
      field("nproc", std::to_string(std::thread::hardware_concurrency())),
      field("threads", std::to_string(util::GlobalThreads())),
      field("gemm_kernel",
            JsonString(nn::GemmKernelKindName(nn::ActiveGemmKernel()))),
      field("quant", JsonString(nn::QuantModeName(nn::ActiveQuantMode()))),
      field("pin", JsonString(util::PinPolicyName(util::ActivePinPolicy()))),
      field("engine", JsonString(aqp::EngineName(aqp::ActiveEngine()))),
      field("dataset", JsonString("census")),
      field("dataset_rows", std::to_string(kDataRows)),
      field("epochs", std::to_string(kEpochs)),
      field("connections", std::to_string(kConnections)),
      field("initial_samples", std::to_string(kInitialSamples)),
      field("max_samples",
            std::to_string(args.workload == Workload::kServeWarm
                               ? kWarmMaxSamples
                               : kColdMaxSamples)),
      field("setup_repeats", std::to_string(args.setups)),
      field("traced", args.traced ? "true" : "false"),
  };
  std::string out = "{";
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out += ", ";
    out += fields[i];
  }
  return out + "}";
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "aqpbench: %s\nusage: aqpbench --workload "
               "serve_cold|serve_warm|build --seed N --seconds S "
               "[--trace 0|1]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace deepaqp::aqpbench

int main(int argc, char** argv) {
  using namespace deepaqp::aqpbench;
  RunArgs args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      have_workload = true;
      if (value == "serve_cold") {
        args.workload = Workload::kServeCold;
      } else if (value == "serve_warm") {
        args.workload = Workload::kServeWarm;
      } else if (value == "build") {
        args.workload = Workload::kBuild;
      } else {
        return Usage(("unknown workload " + value).c_str());
      }
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("bad --seed");
    } else if (flag == "--seconds") {
      args.seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (*end != '\0' || args.seconds < 1) return Usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace");
      args.traced = value == "1";
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  if (args.workload == Workload::kBuild) args.setups = kBuildSetupRepeats;
  deepaqp::util::SetLogLevel(deepaqp::util::LogLevel::kWarning);

  // A traced run is a process of its own, so its peak RSS and timings are
  // comparable with an untraced run of the same seed.
  const std::string json = "{\"config\": " + ConfigJson(args) +
                           ", \"outcome\": " + OutcomeJson(Run(args));
  std::printf("%s}\n", json.c_str());
  return 0;
}
