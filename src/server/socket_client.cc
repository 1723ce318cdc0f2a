#include "server/socket_client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "server/channel.h"

namespace deepaqp::server {

namespace {

util::Status Errno(const char* what) {
  const int err = errno;
  if (err == EPIPE || err == ECONNRESET) {
    return util::Status::IOError(std::string(what) + ": " + kPeerClosedMarker +
                                 " (" + std::strerror(err) + ")");
  }
  return util::Status::IOError(std::string(what) + ": " + std::strerror(err));
}

util::Status PeerClosed(const char* what) {
  return util::Status::IOError(std::string(what) + ": " + kPeerClosedMarker);
}

/// Reconstructs the util::Status a kError message projected onto the wire.
util::Status FromWire(const ServerMessage& error) {
  return util::Status(static_cast<util::StatusCode>(error.code),
                      error.message);
}

}  // namespace

// ---------------------------------------------------------------------------
// SocketConnection

SocketConnection::~SocketConnection() { Close(); }

void SocketConnection::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  parser_ = FrameParser();
}

util::Status SocketConnection::Connect(const std::string& host, uint16_t port,
                                       int timeout_ms) {
  Close();
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return util::Status::InvalidArgument("bad host address: " + host);
  }

  // Nonblocking connect + poll gives a real deadline; the socket goes back
  // to blocking afterwards (sends block briefly, receives poll explicitly).
  int flags = fcntl(fd, F_GETFL, 0);
  fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc < 0 && errno != EINPROGRESS) {
    util::Status status = Errno("connect");
    ::close(fd);
    return status;
  }
  if (rc < 0) {
    pollfd pfd{fd, POLLOUT, 0};
    rc = ::poll(&pfd, 1, timeout_ms);
    if (rc <= 0) {
      ::close(fd);
      return util::Status::IOError("connect timed out to " + host + ":" +
                                   std::to_string(port));
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0 || err != 0) {
      ::close(fd);
      errno = err;
      return Errno("connect");
    }
  }
  fcntl(fd, F_SETFL, flags);
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_ = fd;
  return util::Status::OK();
}

util::Status SocketConnection::WriteAll(const uint8_t* data, size_t n) {
  size_t written = 0;
  while (written < n) {
    ssize_t rc = ::send(fd_, data + written, n - written, MSG_NOSIGNAL);
    if (rc > 0) {
      written += static_cast<size_t>(rc);
      continue;
    }
    if (rc < 0 && errno == EINTR) continue;
    return Errno("send");
  }
  return util::Status::OK();
}

util::Status SocketConnection::Send(const ClientMessage& message) {
  if (fd_ < 0) return PeerClosed("send");
  std::vector<uint8_t> framed;
  DEEPAQP_RETURN_IF_ERROR(
      AppendFramed(EncodeClientMessage(message), &framed));
  return WriteAll(framed.data(), framed.size());
}

util::Result<std::optional<ServerMessage>> SocketConnection::Receive(
    int timeout_ms) {
  if (fd_ < 0) return PeerClosed("recv");
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (true) {
    std::vector<uint8_t> frame;
    if (parser_.Next(&frame)) {
      DEEPAQP_ASSIGN_OR_RETURN(ServerMessage msg, DecodeServerMessage(frame));
      return std::optional<ServerMessage>(std::move(msg));
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return std::optional<ServerMessage>();
    const int remaining = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
            .count());
    pollfd pfd{fd_, POLLIN, 0};
    int rc = ::poll(&pfd, 1, std::max(1, remaining));
    if (rc < 0) {
      if (errno == EINTR) continue;
      return Errno("poll");
    }
    if (rc == 0) return std::optional<ServerMessage>();  // timeout
    uint8_t buf[64 * 1024];
    ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      DEEPAQP_RETURN_IF_ERROR(parser_.Feed(buf, static_cast<size_t>(n)));
      continue;
    }
    if (n == 0) return PeerClosed("recv");
    if (errno == EINTR) continue;
    return Errno("recv");
  }
}

// ---------------------------------------------------------------------------
// RetryingConnection

RetryingConnection::RetryingConnection(const Options& options)
    : options_(options), jitter_(options.backoff_seed) {}

int RetryingConnection::BackoffDelayMs(int attempt) {
  double nominal = static_cast<double>(options_.initial_backoff_ms);
  for (int i = 0; i < attempt; ++i) nominal *= 2.0;
  nominal = std::min(nominal, static_cast<double>(options_.max_backoff_ms));
  // Jitter in [0.5, 1.0) of nominal: desynchronizes a thundering herd of
  // clients all backing off from the same SERVER_BUSY moment.
  const double jittered = nominal * (0.5 + 0.5 * jitter_.NextDouble());
  return std::max(1, static_cast<int>(jittered));
}

util::Status RetryingConnection::Dial() {
  util::Status last = util::Status::IOError("no connect attempt made");
  for (int attempt = 0; attempt < std::max(1, options_.max_attempts);
       ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(BackoffDelayMs(attempt - 1)));
    }
    last = conn_.Connect(options_.host, options_.port,
                         options_.connect_timeout_ms);
    if (last.ok()) return last;
  }
  return util::Status::IOError(
      "connect to " + options_.host + ":" + std::to_string(options_.port) +
      " failed after " + std::to_string(options_.max_attempts) +
      " attempts: " + last.message());
}

util::Status RetryingConnection::Connect() {
  if (conn_.connected()) return util::Status::OK();
  return Dial();
}

void RetryingConnection::Close() { conn_.Close(); }

util::Status RetryingConnection::Reconnect() {
  conn_.Close();
  DEEPAQP_RETURN_IF_ERROR(Dial());
  ++reconnects_;
  if (session_ == 0) return util::Status::OK();
  // Re-attach: the server swaps our fresh connection in as the session's
  // sink and replays every unacked frame.
  ClientMessage resume;
  resume.kind = ClientMessageKind::kResumeSession;
  resume.session = session_;
  resume.resume_token = resume_token_;
  DEEPAQP_RETURN_IF_ERROR(conn_.Send(resume));
  while (true) {
    DEEPAQP_ASSIGN_OR_RETURN(std::optional<ServerMessage> msg,
                             conn_.Receive(options_.io_timeout_ms));
    if (!msg.has_value()) {
      return util::Status::IOError("resume handshake timed out");
    }
    if (msg->kind == ServerMessageKind::kSessionResumed &&
        msg->session == session_) {
      return util::Status::OK();
    }
    if (msg->kind == ServerMessageKind::kError && msg->channel == 0) {
      return FromWire(*msg);
    }
    // Anything else (stale pong, late frame from the old incarnation) is
    // skipped; replayed frames proper arrive after kSessionResumed.
  }
}

util::Status RetryingConnection::TryOpenOnce(const ClientMessage& open) {
  DEEPAQP_RETURN_IF_ERROR(conn_.Send(open));
  while (true) {
    DEEPAQP_ASSIGN_OR_RETURN(std::optional<ServerMessage> msg,
                             conn_.Receive(options_.io_timeout_ms));
    if (!msg.has_value()) {
      return util::Status::IOError("open-session handshake timed out");
    }
    if (msg->kind == ServerMessageKind::kSessionOpened) {
      session_ = msg->session;
      resume_token_ = msg->resume_token;
      return util::Status::OK();
    }
    if (msg->kind == ServerMessageKind::kError) return FromWire(*msg);
  }
}

util::Status RetryingConnection::OpenSession(const std::string& model,
                                             uint64_t initial_samples,
                                             uint64_t max_samples,
                                             uint64_t population_rows,
                                             uint64_t seed) {
  ClientMessage open;
  open.kind = ClientMessageKind::kOpenSession;
  open.model_name = model;
  open.initial_samples = initial_samples;
  open.max_samples = max_samples;
  open.population_rows = population_rows;
  open.seed = seed;
  // A connection that dies under the handshake (dropped accept, reaped or
  // faulted socket) is redialed with backoff; typed server rejections
  // (SERVER_BUSY, SHUTTING_DOWN, unknown model) surface immediately —
  // shedding only works if shed clients actually back off, so the caller
  // owns that retry decision. Caveat: if the server opened the session but
  // its reply was lost, the retry opens a fresh session and the orphan
  // stays idle server-side (no token ever reached us to close it with).
  util::Status last = util::Status::OK();
  const int attempts = std::max(1, options_.max_attempts);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      conn_.Close();
      std::this_thread::sleep_for(
          std::chrono::milliseconds(BackoffDelayMs(attempt - 1)));
      ++reconnects_;
    }
    last = Connect();
    if (!last.ok()) continue;
    last = TryOpenOnce(open);
    if (last.ok() || last.code() != util::StatusCode::kIOError) return last;
  }
  return util::Status::IOError("open-session failed after " +
                               std::to_string(attempts) +
                               " attempts: " + last.message());
}

util::Result<RetryingConnection::StreamResult> RetryingConnection::RunQuery(
    const std::string& sql, double max_relative_ci) {
  if (session_ == 0) {
    return util::Status::FailedPrecondition("RunQuery before OpenSession");
  }
  StreamResult result;
  result.channel = next_channel_++;
  ChannelConsumer consumer(result.channel);

  ClientMessage query;
  query.kind = ClientMessageKind::kQuery;
  query.session = session_;
  query.sql = sql;
  query.max_relative_ci = max_relative_ci;
  query.channel = result.channel;

  // (Re)connect-and-resend loop: a connection loss at ANY point below comes
  // back here. The query send is idempotent (client-chosen channel id) and
  // the consumer dedups replayed frames, so re-entering is always safe.
  util::Status io = conn_.connected() ? util::Status::OK()
                                      : util::Status::IOError("not connected");
  if (io.ok()) io = conn_.Send(query);
  while (true) {
    if (!io.ok()) {
      if (!IsPeerClosed(io) &&
          io.code() != util::StatusCode::kIOError) {
        return io;  // protocol/decode error, not a connection problem
      }
      if (result.resumes >= 64) {
        return util::Status::IOError(
            "stream abandoned after 64 resume cycles: " + io.message());
      }
      DEEPAQP_RETURN_IF_ERROR(Reconnect());
      ++result.resumes;
      // Idempotent re-send (the original may never have arrived), then our
      // current ack state so the server drops what we already hold.
      io = conn_.Send(query);
      if (io.ok()) {
        ClientMessage ackmsg;
        ackmsg.kind = ClientMessageKind::kAck;
        ackmsg.session = session_;
        ackmsg.ack = consumer.MakeAck();
        io = conn_.Send(ackmsg);
      }
      continue;
    }
    if (consumer.finished()) break;

    util::Result<std::optional<ServerMessage>> received =
        conn_.Receive(options_.io_timeout_ms);
    if (!received.ok()) {
      io = received.status();
      continue;
    }
    if (!received->has_value()) {
      return util::Status::IOError("stream receive timed out (channel " +
                                   std::to_string(result.channel) + ")");
    }
    const ServerMessage& msg = **received;
    switch (msg.kind) {
      case ServerMessageKind::kData: {
        if (msg.channel != result.channel) break;  // stale stream
        // An ordered connection cannot skip a frame, so a gap is a protocol
        // fault: report it instead of waiting out io_timeout_ms.
        DEEPAQP_RETURN_IF_ERROR(consumer.OnData(msg.data));
        ClientMessage ackmsg;
        ackmsg.kind = ClientMessageKind::kAck;
        ackmsg.session = session_;
        ackmsg.ack = consumer.MakeAck();
        io = conn_.Send(ackmsg);
        break;
      }
      case ServerMessageKind::kError:
        if (msg.channel == result.channel || msg.channel == 0) {
          return FromWire(msg);
        }
        break;
      default:
        break;  // kQueryStarted, stale pongs, resumed notices
    }
  }

  for (std::vector<uint8_t>& payload : consumer.TakeDelivered()) {
    DEEPAQP_ASSIGN_OR_RETURN(Estimate est, DecodeEstimate(payload));
    result.estimates.push_back(std::move(est));
  }
  result.duplicates = consumer.stats().duplicates;
  return result;
}

util::Status RetryingConnection::Ping() {
  DEEPAQP_RETURN_IF_ERROR(Connect());
  ClientMessage ping;
  ping.kind = ClientMessageKind::kPing;
  ping.session = session_;
  ping.nonce = next_nonce_++;
  DEEPAQP_RETURN_IF_ERROR(conn_.Send(ping));
  while (true) {
    DEEPAQP_ASSIGN_OR_RETURN(std::optional<ServerMessage> msg,
                             conn_.Receive(options_.io_timeout_ms));
    if (!msg.has_value()) return util::Status::IOError("ping timed out");
    if (msg->kind == ServerMessageKind::kPong && msg->nonce == ping.nonce) {
      return util::Status::OK();
    }
    // Skip unrelated traffic; pings are for idle connections.
  }
}

util::Status RetryingConnection::CloseSession() {
  if (session_ == 0) return util::Status::OK();
  ClientMessage close;
  close.kind = ClientMessageKind::kCloseSession;
  close.session = session_;
  util::Status io = conn_.Send(close);
  if (io.ok()) {
    while (true) {
      util::Result<std::optional<ServerMessage>> msg =
          conn_.Receive(options_.io_timeout_ms);
      if (!msg.ok() || !msg->has_value()) break;  // close is best-effort
      if ((*msg)->kind == ServerMessageKind::kSessionClosed) break;
      if ((*msg)->kind == ServerMessageKind::kError) break;
    }
  }
  session_ = 0;
  resume_token_ = 0;
  conn_.Close();
  return util::Status::OK();
}

}  // namespace deepaqp::server
