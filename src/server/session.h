#ifndef DEEPAQP_SERVER_SESSION_H_
#define DEEPAQP_SERVER_SESSION_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "server/channel.h"
#include "server/registry.h"
#include "server/wire.h"
#include "util/status.h"
#include "vae/client.h"

namespace deepaqp::server {

/// Per-session serving state: one vae::AqpClient (own sample pool, own
/// suffix-incremental query cache, own deterministic rng stream) bound to a
/// registry model by name. NOT thread-safe — the scheduler serializes all
/// access on the session's strand.
///
/// Queries are precision-on-demand streams: StartQuery opens a channel and
/// Step() pushes one refining estimate per call while the channel window
/// has room, so a slow consumer (unacked frames) pauses estimate generation
/// instead of buffering unboundedly. A stream's first estimate is computed
/// on the pool the session already holds; the pool growth each estimate
/// asks for is paid by the next Step (AqpClient::QueryRefineStep defers
/// it). Streams of one session execute strictly in submission order — a
/// later query starts refining only after the earlier stream pushed its
/// final estimate, which keeps the pool growth trajectory (and therefore
/// every estimate) bit-identical to a direct AqpClient::QueryRefineStep
/// loop issuing the same sequence.
class Session {
 public:
  /// Binds to `snapshot` (current registry version of `model_name`).
  Session(uint64_t id, std::string model_name,
          std::shared_ptr<const ModelSnapshot> snapshot,
          const vae::AqpClient::Options& client_options);

  uint64_t id() const { return id_; }
  const std::string& model_name() const { return model_name_; }
  uint64_t model_version() const { return snapshot_->version; }

  /// Opens a stream for `sql` on channel id `channel`. The query is parsed
  /// against the session pool's schema immediately; a parse/validation
  /// error fails the request, not the session. Re-submitting a channel id
  /// that already has an open stream is an idempotent no-op (a reconnecting
  /// client may not know whether its query survived the old connection).
  util::Status StartQuery(uint64_t channel, const std::string& sql,
                          double max_relative_ci);

  /// True when the front stream can compute another estimate now: it has
  /// not pushed its final one and its window has room. While this holds,
  /// the owner must schedule another Step — no client event is due to
  /// trigger one (the consumer is waiting for the frame this Step makes).
  bool CanRefine() const;

  /// One cooperative scheduling step:
  ///  1. Registry staleness probe: at a stream boundary (no open stream has
  ///     emitted an estimate yet) a version bump hot-swaps the session's
  ///     model and resets the client (pool + caches) — the stale-cache
  ///     invalidation hook. Mid-stream the swap is deferred so the
  ///     in-flight stream keeps its generator and its monotonic
  ///     pool_rows/precision trajectory; the old refcounted snapshot serves
  ///     until the stream retires.
  ///  2. When CanRefine(), the front stream computes exactly one refining
  ///     estimate (first generating the pool growth its previous estimate
  ///     deferred) and pushes it.
  ///  3. Due frames of every open stream are collected for transmission,
  ///     and streams whose final frame is acknowledged retire.
  /// So a step costs at most one refinement, and its frame leaves as soon
  /// as it is computed. Returns the frames to send; failed streams are
  /// reported through `errors` (one ServerMessage::kError each) and
  /// dropped.
  std::vector<DataFrame> Step(const ModelRegistry& registry,
                              std::vector<ServerMessage>* errors);

  /// Fails the front stream with `reason` (reported through `errors`) and
  /// drops it; the next queued stream becomes the front. The server uses it
  /// when it cannot schedule the Step a refining stream needs, so no stream
  /// is left open that nothing will resume.
  void FailFrontStream(const util::Status& reason,
                       std::vector<ServerMessage>* errors);

  /// Routes a cumulative acknowledgment to its stream, releasing the
  /// frames it covers from the stream's window. Unknown channel ids are
  /// ignored (late acks of completed streams are legal).
  void HandleAck(const AckFrame& ack);

  /// Session-resumption replay: every stream re-sends its unacked frames
  /// at the next Step (the reconnecting consumer drops what it already
  /// holds). Estimates are NOT recomputed — the replay buffers carry the
  /// original bytes, which is what keeps a resumed stream bit-identical to
  /// an uninterrupted one.
  void ReplayUnacked();

  /// Forced drain (shutdown deadline exceeded): every open stream dies with
  /// `reason` reported through `errors`, never a silent truncation.
  void AbortOpenStreams(const util::Status& reason,
                        std::vector<ServerMessage>* errors);

  /// Model hot-swaps observed by this session.
  uint64_t model_swaps() const { return model_swaps_; }

  /// Streams not yet fully delivered+acked.
  size_t open_streams() const { return streams_.size(); }

  const vae::AqpClient& client() const { return *client_; }

 private:
  struct QueryStream {
    ChannelProducer producer;  ///< channel_id() is the stream's channel
    aqp::AggregateQuery query;
    double max_relative_ci = 0.0;
  };

  uint64_t id_;
  std::string model_name_;
  std::shared_ptr<const ModelSnapshot> snapshot_;
  std::unique_ptr<vae::AqpClient> client_;
  std::deque<QueryStream> streams_;  ///< FIFO; front refines first
  uint64_t model_swaps_ = 0;
};

}  // namespace deepaqp::server

#endif  // DEEPAQP_SERVER_SESSION_H_
