#ifndef DEEPAQP_SERVER_CHANNEL_H_
#define DEEPAQP_SERVER_CHANNEL_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "util/status.h"

namespace deepaqp::server {

/// Single-producer ordered channel: the stream protocol of
/// precision-on-demand. Each query opens one channel; every refining
/// estimate is one DATA frame carrying a sequence number, the consumer
/// answers with cumulative acks, and the producer holds a bounded window of
/// unacknowledged frames (backpressure).
///
/// Every transport in the tree is an ordered, reliable byte stream (the
/// in-process pipe, stdio pipes, TCP), so the channel does no loss
/// recovery. The one way a frame goes missing is a dead connection; the
/// session then resumes on a new one and ReplayUnacked re-sends every
/// unacknowledged frame in order, and the consumer drops the replayed
/// frames it already holds. Both endpoints are pure state machines with no
/// threads and no clock.

/// Most unacknowledged frames one stream keeps; CanPush() is false at the
/// bound. A slow or absent consumer halts estimate generation instead of
/// ballooning the replay buffer.
inline constexpr size_t kChannelWindow = 8;

/// Memory bound on the replay buffer: CanPush() is false while the unacked
/// payload bytes reach it, whatever the frame count. A stalled consumer
/// therefore caps a stream's server-side memory at about this plus one
/// frame.
inline constexpr size_t kChannelMaxBufferedBytes = 8u << 20;

/// One refinement estimate in flight. `seq` starts at 0 per channel;
/// `final` marks the stream's last frame (the estimate that met the
/// requested precision or exhausted the sample budget).
struct DataFrame {
  uint64_t channel = 0;
  uint64_t seq = 0;
  bool final = false;
  std::vector<uint8_t> payload;
};

/// Consumer -> producer acknowledgment. `cumulative` is the next expected
/// sequence number: every seq < cumulative has been delivered in order.
struct AckFrame {
  uint64_t channel = 0;
  uint64_t cumulative = 0;
};

/// Producer endpoint. Owned by the server session generating a query's
/// estimate stream.
///
///   while (!done) {
///     if (producer.CanPush()) producer.Push(NextEstimate(), final);
///     for (frame : producer.PollSend()) transport.Send(frame);
///     ... on ack arrival: producer.OnAck(ack);
///   }
class ChannelProducer {
 public:
  struct Stats {
    uint64_t transmissions = 0;     ///< DATA frames handed to PollSend callers
    uint64_t resume_replays = 0;    ///< frames re-sent by ReplayUnacked
    uint64_t stale_acks = 0;        ///< acks that acknowledged nothing new
    size_t buffered_bytes = 0;      ///< payload bytes currently unacked
    size_t peak_buffered_bytes = 0; ///< high-water mark of buffered_bytes
  };

  explicit ChannelProducer(uint64_t channel_id) : channel_(channel_id) {}

  /// True when the window has room for another estimate.
  bool CanPush() const;

  /// Queues `payload` as the next sequence number. Refuses when the window
  /// is full (backpressure; state unchanged), after `final` has been pushed,
  /// or after the channel failed.
  util::Status Push(std::vector<uint8_t> payload, bool final);

  /// Frames to transmit now: every pushed frame past the send cursor, in
  /// sequence order. Calling PollSend twice in a row returns nothing new the
  /// second time.
  std::vector<DataFrame> PollSend();

  /// Applies a cumulative acknowledgment, dropping every acked frame from
  /// the replay buffer. An ack for frames never pushed fails the channel:
  /// the consumer claims frames it cannot hold.
  void OnAck(const AckFrame& ack);

  /// Rewinds the send cursor to the oldest unacked frame — the
  /// session-resumption replay. A reconnecting consumer may have lost any
  /// suffix of the window with its old connection, so everything unacked is
  /// re-sent at the next PollSend; the consumer drops what it already holds.
  void ReplayUnacked();

  /// True once the final frame was pushed and every frame is acknowledged.
  bool complete() const { return final_pushed_ && unacked_.empty(); }

  /// True when the channel gave up (an injected fault or an impossible
  /// ack); error() carries the reason.
  bool failed() const { return !error_.ok(); }
  const util::Status& error() const { return error_; }

  uint64_t channel_id() const { return channel_; }
  uint64_t next_seq() const { return acked_ + unacked_.size(); }
  const Stats& stats() const { return stats_; }

 private:
  struct Pending {
    std::vector<uint8_t> payload;
    bool final = false;
  };

  uint64_t channel_;
  uint64_t acked_ = 0;      ///< seq of unacked_.front(): the cumulative ack
  uint64_t next_send_ = 0;  ///< seq PollSend sends next
  bool final_pushed_ = false;
  std::deque<Pending> unacked_;  ///< seqs [acked_, next_seq()), in order
  util::Status error_;
  Stats stats_;
};

/// Consumer endpoint. Frames arrive in order; a frame at an already
/// delivered seq (a resume replay) is dropped and counted, and a frame
/// ahead of sequence is an error — an ordered transport cannot produce it.
/// TakeDelivered() yields each payload exactly once, in sequence order.
class ChannelConsumer {
 public:
  struct Stats {
    uint64_t frames = 0;      ///< DATA frames observed
    uint64_t duplicates = 0;  ///< dropped as already delivered
    uint64_t delivered = 0;   ///< payloads released in order
  };

  explicit ChannelConsumer(uint64_t channel_id) : channel_(channel_id) {}

  /// Accepts one frame. Returns an error, and delivers nothing, for a frame
  /// past next_expected() or past the final frame; the consumer's state is
  /// unchanged, so in-order delivery can continue.
  util::Status OnData(const DataFrame& frame);

  /// Drains every payload delivered so far; each is returned exactly once
  /// across the consumer's lifetime.
  std::vector<std::vector<uint8_t>> TakeDelivered();

  /// True once the final frame and all its predecessors were delivered.
  bool finished() const { return finished_; }

  /// The acknowledgment of everything delivered so far.
  AckFrame MakeAck() const { return {channel_, next_expected_}; }

  uint64_t next_expected() const { return next_expected_; }
  const Stats& stats() const { return stats_; }

 private:
  uint64_t channel_;
  uint64_t next_expected_ = 0;
  bool finished_ = false;
  std::vector<std::vector<uint8_t>> ready_;
  Stats stats_;
};

}  // namespace deepaqp::server

#endif  // DEEPAQP_SERVER_CHANNEL_H_
