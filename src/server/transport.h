#ifndef DEEPAQP_SERVER_TRANSPORT_H_
#define DEEPAQP_SERVER_TRANSPORT_H_

#include <condition_variable>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>

#include "server/wire.h"
#include "util/status.h"

namespace deepaqp::server {

/// Server -> client delivery interface. The server pushes every response
/// (session lifecycle, estimate DATA frames, errors) through one of these;
/// implementations may be called from any scheduler thread and must be
/// internally synchronized. The client -> server direction is uniform
/// already: every transport ends up calling AqpServer::Handle with a
/// decoded ClientMessage.
class MessageSink {
 public:
  virtual ~MessageSink() = default;
  /// Delivery outcome: a non-OK status means the bytes did not reach the
  /// peer (dead connection, I/O error). Channel frames are not re-sent on
  /// the same connection: a resume on a new one replays the unacked ones,
  /// and a consumer that sees a later frame after a lost one rejects the
  /// gap as an error. A sink must never silently drop bytes and report
  /// success.
  virtual util::Status Deliver(const ServerMessage& message) = 0;
};

/// In-process pipe: a thread-safe FIFO the client side drains. This is the
/// transport of the in-process tests and of `deepaqp_cli serve --text` —
/// structs pass through unserialized, delivery is reliable and ordered,
/// and the only nondeterminism is scheduling (which the protocol already
/// tolerates).
class PipeTransport : public MessageSink {
 public:
  util::Status Deliver(const ServerMessage& message) override;

  /// Blocks until a message is available and pops it.
  ServerMessage Pop();

  /// Non-blocking pop; false when the pipe is empty.
  bool TryPop(ServerMessage* out);

  size_t pending() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<ServerMessage> queue_;
};

/// Length-prefixed binary framing over a stdio stream pair — the transport
/// behind `deepaqp_cli serve`. Each ServerMessage is encoded and written as
/// one frame (u32 length + body); writes are mutex-serialized so scheduler
/// threads can deliver concurrently.
class StdioTransport : public MessageSink {
 public:
  explicit StdioTransport(std::FILE* out) : out_(out) {}

  util::Status Deliver(const ServerMessage& message) override;

  /// Reads and decodes the next client frame from `in`. nullopt = clean EOF.
  static util::Result<std::optional<ClientMessage>> ReadRequest(std::FILE* in);

  /// I/O errors observed by Deliver (a sink cannot return Status upward).
  util::Status last_error() const;

 private:
  std::FILE* out_;
  mutable std::mutex mu_;
  util::Status last_error_;
};

}  // namespace deepaqp::server

#endif  // DEEPAQP_SERVER_TRANSPORT_H_
