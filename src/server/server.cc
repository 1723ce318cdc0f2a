#include "server/server.h"

#include <chrono>
#include <future>
#include <random>
#include <thread>
#include <utility>

#include "util/failpoint.h"

namespace deepaqp::server {

namespace {

/// Resume-token entropy: tokens are secrets tied to a server instance, so
/// unlike everything else in the library they must NOT be reproducible from
/// a configured seed.
uint64_t TokenSeed() {
  std::random_device rd;
  return (static_cast<uint64_t>(rd()) << 32) ^ rd();
}

util::Status SessionMissing(uint64_t session_id) {
  return util::Status::FailedPrecondition(
      "session " + std::to_string(session_id) + " failed to initialize");
}

util::Status ShuttingDown() {
  return util::Status::Unavailable(
      "SHUTTING_DOWN: server is draining; no new work accepted");
}

}  // namespace

// ---------------------------------------------------------------------------
// SessionState: the sink is the only field touched off-strand (transports
// detach/resume from their own threads), so it gets its own lock.

std::shared_ptr<MessageSink> AqpServer::SessionState::Sink() const {
  std::lock_guard<std::mutex> lock(sink_mu_);
  return sink_;
}

void AqpServer::SessionState::SetSink(std::shared_ptr<MessageSink> sink) {
  std::lock_guard<std::mutex> lock(sink_mu_);
  sink_ = std::move(sink);
}

util::Status AqpServer::SessionState::Send(const ServerMessage& message) const {
  std::shared_ptr<MessageSink> sink = Sink();
  if (sink == nullptr) {
    // Detached: the connection died and nobody resumed yet. Dropping is
    // correct — unacked channel frames stay in their stream's window and
    // the resume replays them, and other messages (errors, pongs) have no
    // one to hear them anyway.
    return util::Status::IOError(std::string(kPeerClosedMarker) +
                                 ": session detached");
  }
  return sink->Deliver(message);
}

// ---------------------------------------------------------------------------

AqpServer::AqpServer(const Options& options, util::ThreadPool* pool)
    : options_(options),
      scheduler_(pool, options.max_queued_per_session),
      token_rng_(TokenSeed()) {}

AqpServer::~AqpServer() {
  // Drain before members go away: strand tasks hold their own SessionState
  // refs, but they also touch the registry and scheduler internals.
  scheduler_.WaitIdle();
}

void AqpServer::Handle(const ClientMessage& message,
                       const std::shared_ptr<MessageSink>& sink) {
  switch (message.kind) {
    case ClientMessageKind::kOpenSession:
      HandleOpenSession(message, sink);
      return;
    case ClientMessageKind::kQuery:
      HandleQuery(message, sink);
      return;
    case ClientMessageKind::kAck:
      HandleAck(message, sink);
      return;
    case ClientMessageKind::kCloseSession:
      HandleCloseSession(message, sink);
      return;
    case ClientMessageKind::kResumeSession:
      HandleResumeSession(message, sink);
      return;
    case ClientMessageKind::kPing: {
      // Liveness probe; answered inline (no strand hop) so a PONG proves the
      // server process is responsive even when every session is busy.
      ServerMessage pong;
      pong.kind = ServerMessageKind::kPong;
      pong.session = message.session;
      pong.nonce = message.nonce;
      sink->Deliver(pong);
      return;
    }
  }
  sink->Deliver(MakeError(
      0, 0,
      util::Status::InvalidArgument("unhandled client message kind")));
}

void AqpServer::HandleOpenSession(const ClientMessage& message,
                                  const std::shared_ptr<MessageSink>& sink) {
  // Admission control: shed before any session state is allocated. The
  // failpoint simulates the table-full path deterministically.
  if (draining_.load(std::memory_order_relaxed)) {
    sink->Deliver(MakeError(0, 0, ShuttingDown()));
    return;
  }
  if (util::FailpointTriggered("server/admission")) {
    sink->Deliver(MakeError(
        0, 0,
        util::Status::Unavailable(
            "SERVER_BUSY: admission rejected (injected fault); "
            "retry with backoff")));
    return;
  }
  auto snapshot = registry_.Get(message.model_name);
  if (!snapshot.ok()) {
    sink->Deliver(MakeError(0, 0, snapshot.status()));
    return;
  }
  vae::AqpClient::Options copts = options_.client;
  if (message.initial_samples > 0) copts.initial_samples = message.initial_samples;
  if (message.max_samples > 0) copts.max_samples = message.max_samples;
  if (message.population_rows > 0) copts.population_rows = message.population_rows;
  if (message.seed > 0) copts.seed = message.seed;

  auto state = std::make_shared<SessionState>();
  state->SetSink(sink);
  uint64_t session_id = 0;
  bool table_full = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (options_.max_sessions > 0 &&
        sessions_.size() >= options_.max_sessions) {
      table_full = true;
    } else {
      session_id = next_session_id_++;
      state->resume_token = token_rng_.NextUint64() | 1;  // nonzero
      sessions_[session_id] = state;
    }
  }
  if (table_full) {
    sink->Deliver(MakeError(
        0, 0,
        util::Status::Unavailable(
            "SERVER_BUSY: session table full (" +
            std::to_string(options_.max_sessions) +
            " sessions); retry with backoff")));
    return;
  }
  // Building the session generates the initial pool — do it on the strand
  // so Handle stays non-blocking and open requests pipeline with queries.
  const std::string model_name = message.model_name;
  auto snap = std::move(*snapshot);
  util::Status posted = scheduler_.Post(
      session_id, [this, state, session_id, model_name, snap, copts] {
        state->session = std::make_unique<Session>(
            session_id, model_name, snap, copts);
        ServerMessage opened;
        opened.kind = ServerMessageKind::kSessionOpened;
        opened.session = session_id;
        opened.resume_token = state->resume_token;
        state->Send(opened);
      });
  if (!posted.ok()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      sessions_.erase(session_id);
    }
    sink->Deliver(MakeError(session_id, 0, posted));
  }
}

std::shared_ptr<AqpServer::SessionState> AqpServer::FindSession(
    uint64_t session_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(session_id);
  return it == sessions_.end() ? nullptr : it->second;
}

void AqpServer::StepSession(const std::shared_ptr<SessionState>& state) {
  Session& session = *state->session;
  std::vector<ServerMessage> errors;
  std::vector<DataFrame> frames = session.Step(registry_, &errors);
  for (const ServerMessage& e : errors) state->Send(e);
  for (DataFrame& frame : frames) {
    ServerMessage msg;
    msg.kind = ServerMessageKind::kData;
    msg.session = session.id();
    msg.channel = frame.channel;
    msg.data = std::move(frame);
    state->Send(msg);
  }
  // A stream that can refine has no client event coming (its consumer
  // waits for the next frame), so the session re-posts itself. A queued
  // continuation re-checks when it runs, so one per session is enough.
  while (!state->continuation_queued && session.CanRefine()) {
    util::Status posted =
        scheduler_.PostInternal(session.id(), [this, state] {
          state->continuation_queued = false;
          StepSession(state);
        });
    if (posted.ok()) {
      state->continuation_queued = true;
      break;
    }
    errors.clear();
    session.FailFrontStream(posted, &errors);
    for (const ServerMessage& e : errors) state->Send(e);
  }
  state->open_streams.store(session.open_streams(),
                            std::memory_order_relaxed);
}

void AqpServer::HandleQuery(const ClientMessage& message,
                            const std::shared_ptr<MessageSink>& sink) {
  if (draining_.load(std::memory_order_relaxed)) {
    sink->Deliver(MakeError(message.session, message.channel, ShuttingDown()));
    return;
  }
  auto state = FindSession(message.session);
  if (state == nullptr) {
    sink->Deliver(MakeError(
        message.session, 0,
        util::Status::NotFound("unknown session " +
                               std::to_string(message.session))));
    return;
  }
  // A nonzero client-chosen channel id makes the query idempotent across
  // reconnects (Session::StartQuery dedups); server-assigned ids live in a
  // disjoint range so the two schemes can mix within one session.
  uint64_t channel = message.channel;
  if (channel == 0) {
    std::lock_guard<std::mutex> lock(mu_);
    channel = next_channel_id_++;
  }
  const std::string sql = message.sql;
  const double max_relative_ci = message.max_relative_ci;
  const uint64_t session_id = message.session;
  util::Status posted =
      scheduler_.Post(message.session, [this, state, session_id, channel,
                                        sql, max_relative_ci] {
        if (state->session == nullptr) {
          state->Send(
              MakeError(session_id, channel, SessionMissing(session_id)));
          return;
        }
        util::Status status =
            state->session->StartQuery(channel, sql, max_relative_ci);
        if (!status.ok()) {
          state->Send(MakeError(state->session->id(), channel, status));
          return;
        }
        ServerMessage started;
        started.kind = ServerMessageKind::kQueryStarted;
        started.session = state->session->id();
        started.channel = channel;
        state->Send(started);
        StepSession(state);
      });
  if (!posted.ok()) {
    sink->Deliver(MakeError(message.session, channel, posted));
  }
}

void AqpServer::HandleAck(const ClientMessage& message,
                          const std::shared_ptr<MessageSink>& sink) {
  auto state = FindSession(message.session);
  if (state == nullptr) {
    sink->Deliver(MakeError(
        message.session, message.ack.channel,
        util::Status::NotFound("unknown session " +
                               std::to_string(message.session))));
    return;
  }
  const AckFrame ack = message.ack;
  const uint64_t session_id = message.session;
  util::Status posted =
      scheduler_.Post(message.session, [this, state, session_id, ack] {
        if (state->session == nullptr) {
          state->Send(
              MakeError(session_id, ack.channel, SessionMissing(session_id)));
          return;
        }
        // The ack may open the window or retire the front stream (promoting
        // a pipelined successor); the step acts on it.
        state->session->HandleAck(ack);
        StepSession(state);
      });
  if (!posted.ok()) {
    sink->Deliver(MakeError(message.session, ack.channel, posted));
  }
}

void AqpServer::HandleCloseSession(const ClientMessage& message,
                                   const std::shared_ptr<MessageSink>& sink) {
  std::shared_ptr<SessionState> state;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(message.session);
    if (it != sessions_.end()) {
      state = it->second;
      sessions_.erase(it);
    }
  }
  if (state == nullptr) {
    sink->Deliver(MakeError(
        message.session, 0,
        util::Status::NotFound("unknown session " +
                               std::to_string(message.session))));
    return;
  }
  ServerMessage closed;
  closed.kind = ServerMessageKind::kSessionClosed;
  closed.session = message.session;
  // Deliver from the strand so the close trails any in-flight responses.
  // The explicit close may arrive over a fresh connection while the session
  // is detached; answer on the closer's sink so the confirmation is heard.
  const uint64_t session_id = message.session;
  util::Status posted =
      scheduler_.PostInternal(session_id, [state, sink, closed] {
        // A closed session refines nothing more: its streams go, so a
        // continuation still queued behind this task finds no work.
        if (state->session != nullptr) {
          state->session->AbortOpenStreams(
              util::Status::Unavailable("session closed"), nullptr);
        }
        state->SetSink(sink);
        state->open_streams.store(0, std::memory_order_relaxed);
        state->Send(closed);
      });
  if (!posted.ok()) sink->Deliver(closed);
}

void AqpServer::HandleResumeSession(const ClientMessage& message,
                                    const std::shared_ptr<MessageSink>& sink) {
  // Resumption is allowed while draining: the whole point of the drain is
  // to let in-flight streams finish, and a reconnected client is how a
  // detached stream finishes.
  auto state = FindSession(message.session);
  if (state == nullptr) {
    sink->Deliver(MakeError(
        message.session, 0,
        util::Status::NotFound("unknown session " +
                               std::to_string(message.session))));
    return;
  }
  if (message.resume_token != state->resume_token) {
    sink->Deliver(MakeError(
        message.session, 0,
        util::Status::FailedPrecondition(
            "resume rejected: bad token for session " +
            std::to_string(message.session))));
    return;
  }
  const uint64_t session_id = message.session;
  // Attach + replay on the strand so the swap serializes against in-flight
  // deliveries to the old sink. Exempt from the admission bound: a resume
  // is recovery, not new load.
  util::Status posted =
      scheduler_.PostInternal(session_id, [this, state, sink, session_id] {
        state->SetSink(sink);
        ServerMessage resumed;
        resumed.kind = ServerMessageKind::kSessionResumed;
        resumed.session = session_id;
        state->Send(resumed);
        if (state->session == nullptr) {
          state->Send(MakeError(session_id, 0, SessionMissing(session_id)));
          return;
        }
        // The replay rewinds each stream's send cursor; the step re-sends.
        state->session->ReplayUnacked();
        StepSession(state);
      });
  if (!posted.ok()) {
    sink->Deliver(MakeError(session_id, 0, posted));
  }
}

void AqpServer::DetachSink(const std::shared_ptr<MessageSink>& sink) {
  std::vector<std::shared_ptr<SessionState>> affected;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, state] : sessions_) {
      if (state->Sink() == sink) affected.push_back(state);
    }
  }
  // Swap immediately (off-strand is fine: SetSink has its own lock, and a
  // strand task mid-delivery holds its own shared_ptr copy). Frames the old
  // sink loses are replayed on resume.
  for (auto& state : affected) state->SetSink(nullptr);
}

void AqpServer::BeginShutdown() {
  draining_.store(true, std::memory_order_relaxed);
}

size_t AqpServer::ActiveStreams() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t total = 0;
  for (const auto& [id, state] : sessions_) {
    total += state->open_streams.load(std::memory_order_relaxed);
  }
  return total;
}

bool AqpServer::Drain(int deadline_ms) {
  BeginShutdown();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(deadline_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (ActiveStreams() == 0 && scheduler_.pending() == 0) {
      scheduler_.WaitIdle();
      // Re-check: a task that ran between the probes may have opened
      // nothing new (queries are refused while draining), but an accepted
      // pre-drain query could still have materialized a stream.
      if (ActiveStreams() == 0 && scheduler_.pending() == 0) return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Deadline exceeded: force-abort the stragglers, each with an explicit
  // SHUTTING_DOWN stream error — never a silent truncation.
  std::vector<std::pair<uint64_t, std::shared_ptr<SessionState>>> snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, state] : sessions_) snapshot.emplace_back(id, state);
  }
  for (auto& [id, state] : snapshot) {
    scheduler_.PostInternal(id, [state] {
      if (state->session == nullptr) return;
      std::vector<ServerMessage> errors;
      state->session->AbortOpenStreams(
          util::Status::Unavailable(
              "SHUTTING_DOWN: drain deadline exceeded, stream aborted"),
          &errors);
      for (const ServerMessage& e : errors) state->Send(e);
      state->open_streams.store(0, std::memory_order_relaxed);
    });
  }
  scheduler_.WaitIdle();
  return false;
}

void AqpServer::WaitIdle() { scheduler_.WaitIdle(); }

size_t AqpServer::num_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

util::Result<vae::AqpClient::CacheStats> AqpServer::SessionCacheStats(
    uint64_t session_id) {
  auto state = FindSession(session_id);
  if (state == nullptr) {
    return util::Status::NotFound("unknown session " +
                                  std::to_string(session_id));
  }
  std::promise<util::Result<vae::AqpClient::CacheStats>> promise;
  auto future = promise.get_future();
  DEEPAQP_RETURN_IF_ERROR(
      scheduler_.PostInternal(session_id, [&state, &promise, session_id] {
        if (state->session == nullptr) {
          promise.set_value(SessionMissing(session_id));
          return;
        }
        promise.set_value(state->session->client().cache_stats());
      }));
  return future.get();
}

util::Result<uint64_t> AqpServer::SessionModelSwaps(uint64_t session_id) {
  auto state = FindSession(session_id);
  if (state == nullptr) {
    return util::Status::NotFound("unknown session " +
                                  std::to_string(session_id));
  }
  std::promise<util::Result<uint64_t>> promise;
  auto future = promise.get_future();
  DEEPAQP_RETURN_IF_ERROR(
      scheduler_.PostInternal(session_id, [&state, &promise, session_id] {
        if (state->session == nullptr) {
          promise.set_value(SessionMissing(session_id));
          return;
        }
        promise.set_value(state->session->model_swaps());
      }));
  return future.get();
}

}  // namespace deepaqp::server
