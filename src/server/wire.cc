#include "server/wire.h"

#include <cerrno>
#include <cstring>

#include "util/serialize.h"

namespace deepaqp::server {

namespace {

void WriteAck(util::ByteWriter* w, const AckFrame& ack) {
  w->WriteU64(ack.channel);
  w->WriteU64(ack.cumulative);
}

util::Result<AckFrame> ReadAck(util::ByteReader* r) {
  AckFrame ack;
  DEEPAQP_ASSIGN_OR_RETURN(ack.channel, r->ReadU64());
  DEEPAQP_ASSIGN_OR_RETURN(ack.cumulative, r->ReadU64());
  return ack;
}

void WriteData(util::ByteWriter* w, const DataFrame& frame) {
  w->WriteU64(frame.channel);
  w->WriteU64(frame.seq);
  w->WriteU8(frame.final ? 1 : 0);
  w->WriteU64(frame.payload.size());
  w->WriteRaw(frame.payload.data(), frame.payload.size());
}

util::Result<DataFrame> ReadData(util::ByteReader* r) {
  DataFrame frame;
  DEEPAQP_ASSIGN_OR_RETURN(frame.channel, r->ReadU64());
  DEEPAQP_ASSIGN_OR_RETURN(frame.seq, r->ReadU64());
  DEEPAQP_ASSIGN_OR_RETURN(uint8_t final_flag, r->ReadU8());
  frame.final = final_flag != 0;
  DEEPAQP_ASSIGN_OR_RETURN(uint64_t n, r->ReadU64());
  if (n > r->remaining()) {
    return util::Status::InvalidArgument("data payload length exceeds buffer");
  }
  DEEPAQP_ASSIGN_OR_RETURN(frame.payload, r->ReadBytes(n));
  return frame;
}

}  // namespace

ServerMessage MakeError(uint64_t session, uint64_t channel,
                        const util::Status& status) {
  ServerMessage msg;
  msg.kind = ServerMessageKind::kError;
  msg.session = session;
  msg.channel = channel;
  msg.code = static_cast<int32_t>(status.code());
  msg.message = status.ToString();
  return msg;
}

std::vector<uint8_t> EncodeEstimate(const Estimate& estimate) {
  util::ByteWriter w;
  w.WriteU64(estimate.pool_rows);
  w.WriteU32(static_cast<uint32_t>(estimate.result.groups.size()));
  for (const aqp::GroupValue& g : estimate.result.groups) {
    w.WriteI32(g.group);
    w.WriteF64(g.value);
    w.WriteU64(g.support);
    w.WriteF64(g.ci_half_width);
  }
  return w.bytes();
}

util::Result<Estimate> DecodeEstimate(const std::vector<uint8_t>& bytes) {
  util::ByteReader r(bytes);
  Estimate e;
  DEEPAQP_ASSIGN_OR_RETURN(e.pool_rows, r.ReadU64());
  DEEPAQP_ASSIGN_OR_RETURN(uint32_t groups, r.ReadU32());
  if (groups > r.remaining() / (sizeof(int32_t) + 2 * sizeof(double) +
                                sizeof(uint64_t))) {
    return util::Status::InvalidArgument("estimate group count exceeds buffer");
  }
  e.result.groups.resize(groups);
  for (aqp::GroupValue& g : e.result.groups) {
    DEEPAQP_ASSIGN_OR_RETURN(g.group, r.ReadI32());
    DEEPAQP_ASSIGN_OR_RETURN(g.value, r.ReadF64());
    DEEPAQP_ASSIGN_OR_RETURN(uint64_t support, r.ReadU64());
    g.support = support;
    DEEPAQP_ASSIGN_OR_RETURN(g.ci_half_width, r.ReadF64());
  }
  if (!r.AtEnd()) {
    return util::Status::InvalidArgument("trailing bytes after estimate");
  }
  return e;
}

std::vector<uint8_t> EncodeClientMessage(const ClientMessage& msg) {
  util::ByteWriter w;
  w.WriteU8(static_cast<uint8_t>(msg.kind));
  switch (msg.kind) {
    case ClientMessageKind::kOpenSession:
      w.WriteString(msg.model_name);
      w.WriteU64(msg.initial_samples);
      w.WriteU64(msg.max_samples);
      w.WriteU64(msg.population_rows);
      w.WriteU64(msg.seed);
      break;
    case ClientMessageKind::kQuery:
      w.WriteU64(msg.session);
      w.WriteString(msg.sql);
      w.WriteF64(msg.max_relative_ci);
      w.WriteU64(msg.channel);
      break;
    case ClientMessageKind::kAck:
      w.WriteU64(msg.session);
      WriteAck(&w, msg.ack);
      break;
    case ClientMessageKind::kCloseSession:
      w.WriteU64(msg.session);
      break;
    case ClientMessageKind::kResumeSession:
      w.WriteU64(msg.session);
      w.WriteU64(msg.resume_token);
      break;
    case ClientMessageKind::kPing:
      w.WriteU64(msg.session);
      w.WriteU64(msg.nonce);
      break;
  }
  return w.bytes();
}

util::Result<ClientMessage> DecodeClientMessage(
    const std::vector<uint8_t>& bytes) {
  util::ByteReader r(bytes);
  ClientMessage msg;
  DEEPAQP_ASSIGN_OR_RETURN(uint8_t kind, r.ReadU8());
  switch (static_cast<ClientMessageKind>(kind)) {
    case ClientMessageKind::kOpenSession: {
      msg.kind = ClientMessageKind::kOpenSession;
      DEEPAQP_ASSIGN_OR_RETURN(msg.model_name, r.ReadString());
      DEEPAQP_ASSIGN_OR_RETURN(msg.initial_samples, r.ReadU64());
      DEEPAQP_ASSIGN_OR_RETURN(msg.max_samples, r.ReadU64());
      DEEPAQP_ASSIGN_OR_RETURN(msg.population_rows, r.ReadU64());
      DEEPAQP_ASSIGN_OR_RETURN(msg.seed, r.ReadU64());
      break;
    }
    case ClientMessageKind::kQuery: {
      msg.kind = ClientMessageKind::kQuery;
      DEEPAQP_ASSIGN_OR_RETURN(msg.session, r.ReadU64());
      DEEPAQP_ASSIGN_OR_RETURN(msg.sql, r.ReadString());
      DEEPAQP_ASSIGN_OR_RETURN(msg.max_relative_ci, r.ReadF64());
      DEEPAQP_ASSIGN_OR_RETURN(msg.channel, r.ReadU64());
      break;
    }
    case ClientMessageKind::kAck: {
      msg.kind = ClientMessageKind::kAck;
      DEEPAQP_ASSIGN_OR_RETURN(msg.session, r.ReadU64());
      DEEPAQP_ASSIGN_OR_RETURN(msg.ack, ReadAck(&r));
      break;
    }
    case ClientMessageKind::kCloseSession: {
      msg.kind = ClientMessageKind::kCloseSession;
      DEEPAQP_ASSIGN_OR_RETURN(msg.session, r.ReadU64());
      break;
    }
    case ClientMessageKind::kResumeSession: {
      msg.kind = ClientMessageKind::kResumeSession;
      DEEPAQP_ASSIGN_OR_RETURN(msg.session, r.ReadU64());
      DEEPAQP_ASSIGN_OR_RETURN(msg.resume_token, r.ReadU64());
      break;
    }
    case ClientMessageKind::kPing: {
      msg.kind = ClientMessageKind::kPing;
      DEEPAQP_ASSIGN_OR_RETURN(msg.session, r.ReadU64());
      DEEPAQP_ASSIGN_OR_RETURN(msg.nonce, r.ReadU64());
      break;
    }
    default:
      return util::Status::InvalidArgument(
          "unknown client message kind " + std::to_string(kind));
  }
  if (!r.AtEnd()) {
    return util::Status::InvalidArgument(
        "trailing bytes after client message");
  }
  return msg;
}

std::vector<uint8_t> EncodeServerMessage(const ServerMessage& msg) {
  util::ByteWriter w;
  w.WriteU8(static_cast<uint8_t>(msg.kind));
  w.WriteU64(msg.session);
  switch (msg.kind) {
    case ServerMessageKind::kSessionOpened:
      w.WriteU64(msg.resume_token);
      break;
    case ServerMessageKind::kSessionClosed:
    case ServerMessageKind::kSessionResumed:
      break;
    case ServerMessageKind::kPong:
      w.WriteU64(msg.nonce);
      break;
    case ServerMessageKind::kQueryStarted:
      w.WriteU64(msg.channel);
      break;
    case ServerMessageKind::kData:
      WriteData(&w, msg.data);
      break;
    case ServerMessageKind::kError:
      w.WriteU64(msg.channel);
      w.WriteI32(msg.code);
      w.WriteString(msg.message);
      break;
  }
  return w.bytes();
}

util::Result<ServerMessage> DecodeServerMessage(
    const std::vector<uint8_t>& bytes) {
  util::ByteReader r(bytes);
  ServerMessage msg;
  DEEPAQP_ASSIGN_OR_RETURN(uint8_t kind, r.ReadU8());
  DEEPAQP_ASSIGN_OR_RETURN(msg.session, r.ReadU64());
  switch (static_cast<ServerMessageKind>(kind)) {
    case ServerMessageKind::kSessionOpened: {
      msg.kind = ServerMessageKind::kSessionOpened;
      DEEPAQP_ASSIGN_OR_RETURN(msg.resume_token, r.ReadU64());
      break;
    }
    case ServerMessageKind::kSessionClosed:
      msg.kind = ServerMessageKind::kSessionClosed;
      break;
    case ServerMessageKind::kSessionResumed:
      msg.kind = ServerMessageKind::kSessionResumed;
      break;
    case ServerMessageKind::kPong: {
      msg.kind = ServerMessageKind::kPong;
      DEEPAQP_ASSIGN_OR_RETURN(msg.nonce, r.ReadU64());
      break;
    }
    case ServerMessageKind::kQueryStarted: {
      msg.kind = ServerMessageKind::kQueryStarted;
      DEEPAQP_ASSIGN_OR_RETURN(msg.channel, r.ReadU64());
      break;
    }
    case ServerMessageKind::kData: {
      msg.kind = ServerMessageKind::kData;
      DEEPAQP_ASSIGN_OR_RETURN(msg.data, ReadData(&r));
      msg.channel = msg.data.channel;
      break;
    }
    case ServerMessageKind::kError: {
      msg.kind = ServerMessageKind::kError;
      DEEPAQP_ASSIGN_OR_RETURN(msg.channel, r.ReadU64());
      DEEPAQP_ASSIGN_OR_RETURN(msg.code, r.ReadI32());
      DEEPAQP_ASSIGN_OR_RETURN(msg.message, r.ReadString());
      break;
    }
    default:
      return util::Status::InvalidArgument(
          "unknown server message kind " + std::to_string(kind));
  }
  if (!r.AtEnd()) {
    return util::Status::InvalidArgument(
        "trailing bytes after server message");
  }
  return msg;
}

namespace {

// The length prefix is serialized explicitly little-endian (the documented
// wire order) instead of through raw native memory, so the framing is
// byte-identical across host endianness.
void EncodePrefix(uint32_t n, uint8_t out[4]) {
  out[0] = static_cast<uint8_t>(n);
  out[1] = static_cast<uint8_t>(n >> 8);
  out[2] = static_cast<uint8_t>(n >> 16);
  out[3] = static_cast<uint8_t>(n >> 24);
}

uint32_t DecodePrefix(const uint8_t in[4]) {
  return static_cast<uint32_t>(in[0]) | (static_cast<uint32_t>(in[1]) << 8) |
         (static_cast<uint32_t>(in[2]) << 16) |
         (static_cast<uint32_t>(in[3]) << 24);
}

}  // namespace

util::Status AppendFramed(const std::vector<uint8_t>& body,
                          std::vector<uint8_t>* out) {
  if (body.size() > kMaxFrameBytes) {
    return util::Status::InvalidArgument("frame exceeds kMaxFrameBytes");
  }
  uint8_t prefix[4];
  EncodePrefix(static_cast<uint32_t>(body.size()), prefix);
  out->insert(out->end(), prefix, prefix + sizeof(prefix));
  out->insert(out->end(), body.begin(), body.end());
  return util::Status::OK();
}

namespace {

/// Writes all of [data, data+n) to `f`, looping over short writes and
/// retrying EINTR — stdio gives no partial-write guarantee on signals, and
/// silently dropping a frame suffix desynchronizes the length-prefixed
/// stream forever. A dead peer surfaces as EPIPE/ECONNRESET, which is
/// reported with the kPeerClosedMarker so callers can treat it as a
/// connection-close rather than a daemon-fatal error.
util::Status WriteAllStdio(std::FILE* f, const uint8_t* data, size_t n) {
  size_t off = 0;
  while (off < n) {
    errno = 0;
    const size_t wrote = std::fwrite(data + off, 1, n - off, f);
    off += wrote;
    if (off == n) break;
    if (errno == EINTR) {
      std::clearerr(f);
      continue;
    }
    if (wrote > 0 && !std::ferror(f)) continue;  // plain short write
    if (errno == EPIPE || errno == ECONNRESET) {
      return util::Status::IOError(std::string(kPeerClosedMarker) +
                                   ": " + std::strerror(errno));
    }
    return util::Status::IOError(
        std::string("write failed on framed stream: ") +
        (errno != 0 ? std::strerror(errno) : "short write"));
  }
  return util::Status::OK();
}

}  // namespace

bool IsPeerClosed(const util::Status& status) {
  return status.code() == util::StatusCode::kIOError &&
         status.message().find(kPeerClosedMarker) != std::string::npos;
}

util::Status WriteFramed(std::FILE* f, const std::vector<uint8_t>& body) {
  if (body.size() > kMaxFrameBytes) {
    return util::Status::InvalidArgument("frame exceeds kMaxFrameBytes");
  }
  const auto n = static_cast<uint32_t>(body.size());
  uint8_t prefix[4];
  EncodePrefix(n, prefix);
  DEEPAQP_RETURN_IF_ERROR(WriteAllStdio(f, prefix, sizeof(prefix)));
  if (n > 0) DEEPAQP_RETURN_IF_ERROR(WriteAllStdio(f, body.data(), n));
  while (std::fflush(f) != 0) {
    if (errno == EINTR) {
      std::clearerr(f);
      continue;
    }
    if (errno == EPIPE || errno == ECONNRESET) {
      return util::Status::IOError(std::string(kPeerClosedMarker) +
                                   ": " + std::strerror(errno));
    }
    return util::Status::IOError(
        std::string("flush failed on framed stream: ") +
        std::strerror(errno));
  }
  return util::Status::OK();
}

util::Result<std::optional<std::vector<uint8_t>>> ReadFramed(std::FILE* f) {
  uint8_t prefix[4];
  const size_t got = std::fread(prefix, 1, sizeof(prefix), f);
  if (got == 0) return std::optional<std::vector<uint8_t>>();  // clean EOF
  if (got != sizeof(prefix)) {
    return util::Status::IOError("truncated frame length prefix");
  }
  const uint32_t n = DecodePrefix(prefix);
  if (n > kMaxFrameBytes) {
    return util::Status::InvalidArgument(
        "frame length " + std::to_string(n) + " exceeds limit");
  }
  std::vector<uint8_t> body(n);
  if (n > 0 && std::fread(body.data(), 1, n, f) != n) {
    return util::Status::IOError("truncated frame body");
  }
  return std::optional<std::vector<uint8_t>>(std::move(body));
}

}  // namespace deepaqp::server
