#include "server/socket_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "util/failpoint.h"

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

util::Status SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0) return Errno("fcntl(F_GETFL)");
  if (fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(F_SETFL)");
  }
  return util::Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// FrameParser

util::Status FrameParser::Feed(const uint8_t* data, size_t n) {
  if (poisoned_) {
    return util::Status::InvalidArgument("frame stream poisoned");
  }
  // Compact lazily: only when the already-consumed prefix dominates the
  // buffer, so steady-state feeding is amortized O(bytes).
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + n);
  // Validate the pending length prefix eagerly so an oversized frame is
  // rejected before its body is ever buffered.
  if (buffer_.size() - consumed_ >= 4) {
    uint32_t len = 0;
    std::memcpy(&len, buffer_.data() + consumed_, 4);
    if (len > kMaxFrameBytes) {
      poisoned_ = true;
      return util::Status::InvalidArgument(
          "frame length " + std::to_string(len) + " exceeds limit " +
          std::to_string(kMaxFrameBytes) + " (corrupt stream)");
    }
  }
  return util::Status::OK();
}

bool FrameParser::Next(std::vector<uint8_t>* frame) {
  if (poisoned_) return false;
  const size_t avail = buffer_.size() - consumed_;
  if (avail < 4) return false;
  uint32_t len = 0;
  std::memcpy(&len, buffer_.data() + consumed_, 4);
  if (avail < 4 + static_cast<size_t>(len)) return false;
  frame->assign(buffer_.begin() + static_cast<ptrdiff_t>(consumed_ + 4),
                buffer_.begin() + static_cast<ptrdiff_t>(consumed_ + 4 + len));
  consumed_ += 4 + len;
  return true;
}

// ---------------------------------------------------------------------------
// Connection + its sink

class SocketServer::Connection {
 public:
  Connection(uint64_t id_in, int fd_in) : id(id_in), fd(fd_in) {
    last_read = std::chrono::steady_clock::now();
  }

  const uint64_t id;
  const int fd;
  FrameParser parser;
  std::shared_ptr<ConnectionSink> sink;
  std::atomic<bool> open{true};
  std::chrono::steady_clock::time_point last_read;  ///< loop thread only

  // Outbox: encoded frames queued for the socket, appended by scheduler
  // threads (via the sink) and drained by the poll loop on POLLOUT.
  std::mutex out_mu;
  std::deque<std::vector<uint8_t>> outbox;
  size_t out_offset = 0;  ///< bytes of outbox.front() already written

  bool HasOutput() {
    std::lock_guard<std::mutex> lock(out_mu);
    return !outbox.empty();
  }
};

class SocketServer::ConnectionSink : public MessageSink {
 public:
  ConnectionSink(SocketServer* server, std::weak_ptr<Connection> conn)
      : server_(server), conn_(std::move(conn)) {}

  util::Status Deliver(const ServerMessage& message) override {
    std::shared_ptr<Connection> conn = conn_.lock();
    if (conn == nullptr || !conn->open.load(std::memory_order_acquire)) {
      return util::Status::IOError(std::string(kPeerClosedMarker) +
                                   ": connection gone");
    }
    std::vector<uint8_t> framed;
    util::Status status = AppendFramed(EncodeServerMessage(message), &framed);
    if (!status.ok()) return status;
    {
      std::lock_guard<std::mutex> lock(conn->out_mu);
      conn->outbox.push_back(std::move(framed));
    }
    server_->Wake();
    return util::Status::OK();
  }

 private:
  SocketServer* server_;
  std::weak_ptr<Connection> conn_;
};

// ---------------------------------------------------------------------------
// SocketServer

SocketServer::SocketServer(AqpServer* server, const Options& options)
    : server_(server), options_(options) {}

SocketServer::~SocketServer() {
  Shutdown();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
}

util::Status SocketServer::Listen() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Errno("socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return util::Status::InvalidArgument("bad bind address: " +
                                         options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return Errno("bind");
  }
  if (::listen(listen_fd_, 64) < 0) return Errno("listen");
  DEEPAQP_RETURN_IF_ERROR(SetNonBlocking(listen_fd_));

  sockaddr_in bound;
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) <
      0) {
    return Errno("getsockname");
  }
  bound_port_ = ntohs(bound.sin_port);

  int pipefd[2];
  if (::pipe(pipefd) < 0) return Errno("pipe");
  wake_read_fd_ = pipefd[0];
  wake_write_fd_ = pipefd[1];
  DEEPAQP_RETURN_IF_ERROR(SetNonBlocking(wake_read_fd_));
  DEEPAQP_RETURN_IF_ERROR(SetNonBlocking(wake_write_fd_));
  return util::Status::OK();
}

util::Status SocketServer::Start() {
  if (listen_fd_ < 0 || wake_read_fd_ < 0) {
    return util::Status::FailedPrecondition("Start before successful Listen");
  }
  if (running_.exchange(true)) {
    return util::Status::FailedPrecondition("already started");
  }
  loop_ = std::thread([this] { Loop(); });
  return util::Status::OK();
}

void SocketServer::Wake() {
  if (wake_write_fd_ < 0) return;
  const uint8_t byte = 1;
  // Best-effort: a full pipe already guarantees a pending wakeup.
  [[maybe_unused]] ssize_t n = ::write(wake_write_fd_, &byte, 1);
}

size_t SocketServer::num_connections() const {
  std::lock_guard<std::mutex> lock(conns_mu_);
  return conns_.size();
}

void SocketServer::AcceptOne() {
  while (true) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or transient accept failure: retry at next poll
    }
    if (util::FailpointTriggered("socket/accept")) {
      // Injected accept fault: this one client is refused (it sees EOF and
      // retries with backoff); the listener and every live connection are
      // untouched.
      ::close(fd);
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      if (options_.max_connections > 0 &&
          conns_.size() >= options_.max_connections) {
        ::close(fd);
        continue;
      }
    }
    if (!SetNonBlocking(fd).ok()) {
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    std::shared_ptr<Connection> conn;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      const uint64_t id = next_conn_id_++;
      conn = std::make_shared<Connection>(id, fd);
      conn->sink = std::make_shared<ConnectionSink>(this, conn);
      conns_[id] = conn;
    }
  }
}

bool SocketServer::ReadReady(Connection* conn) {
  if (util::FailpointTriggered("socket/read", conn->id)) return false;
  bool saw_bytes = false;
  while (true) {
    uint8_t buf[64 * 1024];
    ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      saw_bytes = true;
      if (!conn->parser.Feed(buf, static_cast<size_t>(n)).ok()) return false;
      if (static_cast<size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n == 0) return false;  // peer closed
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    return false;
  }
  if (saw_bytes) conn->last_read = std::chrono::steady_clock::now();

  std::vector<uint8_t> frame;
  while (conn->parser.Next(&frame)) {
    util::Result<ClientMessage> decoded = DecodeClientMessage(frame);
    if (!decoded.ok()) {
      // Framing is still synchronized (the length prefix was honored), so a
      // malformed body is a per-request error, not a connection killer.
      conn->sink->Deliver(MakeError(0, 0, decoded.status()));
      continue;
    }
    server_->Handle(*decoded, conn->sink);
  }
  return true;
}

bool SocketServer::WriteReady(Connection* conn) {
  if (util::FailpointTriggered("socket/write", conn->id)) return false;
  std::lock_guard<std::mutex> lock(conn->out_mu);
  while (!conn->outbox.empty()) {
    const std::vector<uint8_t>& front = conn->outbox.front();
    const size_t remaining = front.size() - conn->out_offset;
    ssize_t n = ::send(conn->fd, front.data() + conn->out_offset, remaining,
                       MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_offset += static_cast<size_t>(n);
      if (conn->out_offset == front.size()) {
        conn->outbox.pop_front();
        conn->out_offset = 0;
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    return false;  // EPIPE/ECONNRESET/...: connection is gone
  }
  return true;
}

void SocketServer::CloseConnection(uint64_t conn_id, const char* why) {
  (void)why;
  std::shared_ptr<Connection> conn;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    auto it = conns_.find(conn_id);
    if (it == conns_.end()) return;
    conn = it->second;
    conns_.erase(it);
  }
  conn->open.store(false, std::memory_order_release);
  // Detach before closing the fd: sessions on this connection park (unacked
  // frames stay in their streams' windows) and stay resumable by token.
  server_->DetachSink(conn->sink);
  ::close(conn->fd);
}

void SocketServer::Loop() {
  std::vector<pollfd> fds;
  std::vector<uint64_t> fd_conn;  // conn id per pollfd (0 = not a conn)
  while (running_.load(std::memory_order_relaxed)) {
    fds.clear();
    fd_conn.clear();
    fds.push_back({wake_read_fd_, POLLIN, 0});
    fd_conn.push_back(0);
    const bool accepting = !shutdown_requested_.load(std::memory_order_relaxed);
    if (accepting) {
      fds.push_back({listen_fd_, POLLIN, 0});
      fd_conn.push_back(0);
    }
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      for (auto& [id, conn] : conns_) {
        short events = POLLIN;
        if (conn->HasOutput()) events |= POLLOUT;
        fds.push_back({conn->fd, events, 0});
        fd_conn.push_back(id);
      }
    }
    // Timeout doubles as the heartbeat tick; capped so reaping (and
    // injected heartbeat faults) stay responsive even on idle servers.
    int timeout = 250;
    if (options_.heartbeat_ms > 0) {
      timeout = std::clamp(options_.heartbeat_ms / 4, 10, 100);
    }
    int rc = ::poll(fds.data(), fds.size(), timeout);
    if (rc < 0 && errno != EINTR) break;

    // Drain the wake pipe.
    if (rc > 0 && (fds[0].revents & POLLIN)) {
      uint8_t buf[256];
      while (::read(wake_read_fd_, buf, sizeof(buf)) > 0) {
      }
    }
    if (rc > 0 && accepting && (fds[1].revents & (POLLIN | POLLERR))) {
      AcceptOne();
    }
    if (rc > 0) {
      for (size_t i = 0; i < fds.size(); ++i) {
        const uint64_t id = fd_conn[i];
        if (id == 0 || fds[i].revents == 0) continue;
        std::shared_ptr<Connection> conn;
        {
          std::lock_guard<std::mutex> lock(conns_mu_);
          auto it = conns_.find(id);
          if (it == conns_.end()) continue;
          conn = it->second;
        }
        if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
          if (!ReadReady(conn.get())) {
            CloseConnection(id, "read");
            continue;
          }
        }
        if (fds[i].revents & POLLOUT) {
          if (!WriteReady(conn.get())) CloseConnection(id, "write");
        }
      }
    }
    // Opportunistic flush: Deliver calls between polls only set the wake
    // pipe; try writing now instead of waiting for the next POLLOUT round.
    {
      std::vector<std::pair<uint64_t, std::shared_ptr<Connection>>> snapshot;
      {
        std::lock_guard<std::mutex> lock(conns_mu_);
        for (auto& [id, conn] : conns_) {
          if (conn->HasOutput()) snapshot.emplace_back(id, conn);
        }
      }
      for (auto& [id, conn] : snapshot) {
        if (!WriteReady(conn.get())) CloseConnection(id, "write");
      }
    }
    // Heartbeat tick: reap connections silent past the liveness deadline.
    if (options_.heartbeat_ms > 0) {
      const auto now = std::chrono::steady_clock::now();
      const auto budget = std::chrono::milliseconds(
          static_cast<int64_t>(options_.heartbeat_ms) *
          std::max(1, options_.heartbeat_misses));
      std::vector<std::pair<uint64_t, std::shared_ptr<Connection>>> snapshot;
      {
        std::lock_guard<std::mutex> lock(conns_mu_);
        for (auto& [id, conn] : conns_) snapshot.emplace_back(id, conn);
      }
      for (auto& [id, conn] : snapshot) {
        const bool expired = now - conn->last_read > budget;
        if (expired || util::FailpointTriggered("server/heartbeat_miss", id)) {
          reaped_.fetch_add(1, std::memory_order_relaxed);
          CloseConnection(id, "heartbeat");
        }
      }
    }
  }
}

bool SocketServer::Shutdown() {
  if (shut_down_.exchange(true)) return drain_clean_;
  // Phase 1: refuse new connections and new server work, but KEEP the poll
  // loop pumping — the drain below completes only if acks keep arriving,
  // and acks arrive through this loop.
  shutdown_requested_.store(true, std::memory_order_relaxed);
  server_->BeginShutdown();
  Wake();
  // Phase 2 (blocking, caller's thread): in-flight streams finish or are
  // force-aborted with SHUTTING_DOWN at the deadline.
  drain_clean_ = server_->Drain(options_.drain_deadline_ms);
  // Phase 3: grace window for the loop to flush remaining outboxes (final
  // frames, abort errors) to clients that are still reading.
  const auto flush_deadline = std::chrono::steady_clock::now() +
                              std::chrono::milliseconds(500);
  while (std::chrono::steady_clock::now() < flush_deadline) {
    bool dirty = false;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      for (auto& [id, conn] : conns_) {
        if (conn->HasOutput()) {
          dirty = true;
          break;
        }
      }
    }
    if (!dirty) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Phase 4: stop the loop and close everything. The listener closes here
  // (not just in the destructor) so post-shutdown dials get ECONNREFUSED
  // instead of parking in the kernel backlog forever.
  running_.store(false, std::memory_order_relaxed);
  Wake();
  if (loop_.joinable()) loop_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::vector<uint64_t> ids;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& [id, conn] : conns_) ids.push_back(id);
  }
  for (uint64_t id : ids) CloseConnection(id, "shutdown");
  return drain_clean_;
}

}  // namespace deepaqp::server
