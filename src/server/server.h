#ifndef DEEPAQP_SERVER_SERVER_H_
#define DEEPAQP_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "server/registry.h"
#include "server/scheduler.h"
#include "server/session.h"
#include "server/transport.h"
#include "server/wire.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "vae/client.h"

namespace deepaqp::server {

/// The transport-agnostic AQP serving daemon: model registry (shared
/// read-only snapshots) + per-session AqpClient state + a strand scheduler
/// multiplexing sessions over the shared thread pool + one windowed,
/// cumulatively acked channel per query stream.
///
/// A transport is anything that decodes ClientMessages, calls Handle, and
/// owns a MessageSink for the responses — the in-process PipeTransport, the
/// length-prefixed stdio framing, and the TCP socket transport all reduce
/// to exactly that. Each is an ordered, reliable byte stream, so channels
/// recover no loss: a frame is missing only when its connection died, and
/// resuming the session replays every unacked frame.
///
/// Handle is cheap and non-blocking: session work (estimate computation,
/// frame transmission, resume replays) happens on the session's scheduler
/// strand, and responses can reach the sink from those threads at any time
/// after Handle returns. A query's first estimate is computed on the pool
/// the session holds and sent before any pool growth; each later
/// refinement is one strand task, so other sessions' requests interleave
/// with a long stream instead of waiting for all of it.
///
/// Connection supervision contract: sessions are decoupled from
/// connections. kSessionOpened carries a resumption token; when a
/// connection dies the transport calls DetachSink (the session keeps
/// refining until its channel windows fill, then stalls bounded), and a
/// reconnecting client presents the token via kResumeSession to re-attach
/// and have every unacked frame replayed. Admission control (max_sessions,
/// max_queued_per_session) sheds overload with explicit kUnavailable
/// SERVER_BUSY errors instead of queueing unboundedly, and the
/// BeginShutdown/Drain pair refuses new work while in-flight streams finish
/// (or, past the drain deadline, die with a clean SHUTTING_DOWN error —
/// never a silent truncation).
class AqpServer {
 public:
  struct Options {
    /// Per-session client defaults; non-zero OpenSession fields override
    /// individual knobs. Sessions that do not pin a seed share `client.seed`
    /// and therefore produce identical sample pools — the determinism the
    /// multi-session bit-identity tests pin down.
    vae::AqpClient::Options client;
    /// Admission bounds. max_sessions caps live sessions (including
    /// detached ones awaiting resumption); max_queued_per_session caps one
    /// strand's queued client requests. 0 = unbounded.
    size_t max_sessions = 256;
    size_t max_queued_per_session = 256;
  };

  /// `pool` = nullptr uses the process-global thread pool (--threads).
  explicit AqpServer(const Options& options,
                     util::ThreadPool* pool = nullptr);

  /// Drains all in-flight session work.
  ~AqpServer();

  AqpServer(const AqpServer&) = delete;
  AqpServer& operator=(const AqpServer&) = delete;

  /// Models are registered/hot-swapped directly on the registry.
  ModelRegistry& registry() { return registry_; }

  /// Dispatches one client request. Responses — including the whole
  /// asynchronous estimate stream triggered by a query — are delivered
  /// through `sink`. Errors are responses too (kError): a malformed or
  /// failed request never kills the session, let alone the server.
  void Handle(const ClientMessage& message,
              const std::shared_ptr<MessageSink>& sink);

  /// Connection-death notification from a transport: every session whose
  /// current sink is `sink` is detached — deliveries are dropped (each
  /// channel keeps its unacked frames for the resume replay) until the
  /// client resumes with its token or the session is closed. Never destroys
  /// session state.
  void DetachSink(const std::shared_ptr<MessageSink>& sink);

  /// Graceful shutdown, phase 1: refuse new sessions and new queries with
  /// kUnavailable (SHUTTING_DOWN); already-open streams keep refining and
  /// acks keep flowing. Idempotent.
  void BeginShutdown();
  bool draining() const { return draining_.load(std::memory_order_relaxed); }

  /// Graceful shutdown, phase 2 (blocking): waits up to `deadline_ms` for
  /// every open stream to retire, then force-aborts the stragglers with a
  /// clean SHUTTING_DOWN error per stream. Returns true when the drain
  /// completed without aborts. Calls BeginShutdown itself.
  bool Drain(int deadline_ms);

  /// Streams currently open across all sessions (admission/drain probe;
  /// pair with scheduler_pending()==0 for a quiescence check).
  size_t ActiveStreams() const;
  size_t scheduler_pending() const { return scheduler_.pending(); }
  size_t scheduler_strands() const { return scheduler_.strands(); }

  /// Blocks until no session has scheduled work. Quiescence, not
  /// completion: a stream stalled on missing acks is idle, not busy.
  void WaitIdle();

  size_t num_sessions() const;

  /// Cache statistics of a session's AqpClient, read on the session's
  /// strand (tests assert suffix-only evaluation through this).
  util::Result<vae::AqpClient::CacheStats> SessionCacheStats(
      uint64_t session_id);

  /// Model hot-swaps a session has performed (registry-version bumps it
  /// observed), read on the session's strand.
  util::Result<uint64_t> SessionModelSwaps(uint64_t session_id);

 private:
  struct SessionState {
    std::unique_ptr<Session> session;
    uint64_t resume_token = 0;
    /// Open-stream count mirrored out of the strand after every step so
    /// drain/admission probes never have to block on a strand.
    std::atomic<size_t> open_streams{0};
    /// A continuation step is queued on the strand. Read and written only
    /// on the strand, so a refining session keeps at most one queued.
    bool continuation_queued = false;

    /// The delivery target, swapped on resume/detach. Guarded by its own
    /// mutex because transports detach from their own threads while strand
    /// tasks deliver.
    std::shared_ptr<MessageSink> Sink() const;
    void SetSink(std::shared_ptr<MessageSink> sink);
    util::Status Send(const ServerMessage& message) const;

   private:
    mutable std::mutex sink_mu_;
    std::shared_ptr<MessageSink> sink_;
  };

  std::shared_ptr<SessionState> FindSession(uint64_t session_id) const;

  /// Runs on the session's strand, after the task's own event (query,
  /// ack, resume) was applied: steps the session once (at most one
  /// refinement), delivers what the step produced, and while the front
  /// stream can still refine posts a continuation that steps again. Being
  /// a separate strand task, it lets the scheduler hand the lane to waiting
  /// work between refinements. Continuations are exempt from the per-strand
  /// admission bound (internal progress must never be shed); one that
  /// cannot be posted at all fails its stream with an error on the
  /// stream's channel, since no event might ever resume it and it would
  /// block every later query of the session.
  void StepSession(const std::shared_ptr<SessionState>& state);

  void HandleOpenSession(const ClientMessage& message,
                         const std::shared_ptr<MessageSink>& sink);
  void HandleQuery(const ClientMessage& message,
                   const std::shared_ptr<MessageSink>& sink);
  void HandleAck(const ClientMessage& message,
                 const std::shared_ptr<MessageSink>& sink);
  void HandleCloseSession(const ClientMessage& message,
                          const std::shared_ptr<MessageSink>& sink);
  void HandleResumeSession(const ClientMessage& message,
                           const std::shared_ptr<MessageSink>& sink);

  Options options_;
  ModelRegistry registry_;
  RequestScheduler scheduler_;
  std::atomic<bool> draining_{false};
  mutable std::mutex mu_;
  uint64_t next_session_id_ = 1;
  /// Server-assigned stream ids live above 2^32 so they can never collide
  /// with client-chosen ids (which reconnect-safe clients pick small).
  uint64_t next_channel_id_ = (1ull << 32) + 1;
  util::Rng token_rng_;  ///< resume-token stream, entropy-seeded; under mu_
  std::map<uint64_t, std::shared_ptr<SessionState>> sessions_;
};

}  // namespace deepaqp::server

#endif  // DEEPAQP_SERVER_SERVER_H_
