// Deterministic protocol tests for the precision-on-demand channel and the
// wire codec.
//
// The producer and consumer are pure state machines over an ordered,
// reliable transport, so each test drives them with explicit frame and ack
// hand-offs: the window, the byte bound, cumulative acks, the resume replay
// and the consumer's rejection of a gap. The codec tests round-trip every
// message kind and feed the decoders seeded random buffers, every single-bit
// flip and every truncation.

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "server/channel.h"
#include "server/wire.h"
#include "util/rng.h"

namespace deepaqp::server {
namespace {

std::vector<uint8_t> Payload(uint64_t i) {
  std::vector<uint8_t> bytes(8);
  for (int b = 0; b < 8; ++b) bytes[b] = static_cast<uint8_t>(i >> (8 * b));
  return bytes;
}

std::vector<std::vector<uint8_t>> ExpectedPayloads(uint64_t first,
                                                   uint64_t end) {
  std::vector<std::vector<uint8_t>> out;
  for (uint64_t i = first; i < end; ++i) out.push_back(Payload(i));
  return out;
}

/// Hands `frames` to the consumer in order; each must be accepted.
void Deliver(ChannelConsumer& consumer, const std::vector<DataFrame>& frames) {
  for (const DataFrame& frame : frames) {
    ASSERT_TRUE(consumer.OnData(frame).ok()) << "seq " << frame.seq;
  }
}

// ---------------------------------------------------------------------------
// Channel.

TEST(ServerChannelTest, InOrderDeliveryFillsAndDrainsTheWindow) {
  ChannelProducer producer(7);
  ChannelConsumer consumer(7);
  std::vector<std::vector<uint8_t>> delivered;

  // Enough frames to fill the window three times over.
  constexpr uint64_t kFrames = 3 * kChannelWindow + 1;
  uint64_t pushed = 0;
  while (!producer.complete()) {
    while (pushed < kFrames && producer.CanPush()) {
      ASSERT_TRUE(producer.Push(Payload(pushed), pushed + 1 == kFrames).ok());
      ++pushed;
    }
    std::vector<DataFrame> frames = producer.PollSend();
    for (const DataFrame& frame : frames) EXPECT_EQ(frame.channel, 7u);
    Deliver(consumer, frames);
    for (auto& p : consumer.TakeDelivered()) delivered.push_back(std::move(p));
    producer.OnAck(consumer.MakeAck());
  }
  EXPECT_TRUE(consumer.finished());
  EXPECT_EQ(delivered, ExpectedPayloads(0, kFrames));
  EXPECT_EQ(producer.next_seq(), kFrames);
  EXPECT_EQ(producer.stats().transmissions, kFrames);  // each frame sent once
  EXPECT_EQ(consumer.stats().duplicates, 0u);
  EXPECT_EQ(consumer.stats().delivered, kFrames);
}

TEST(ServerChannelTest, WindowFullIsBackpressureNotFailure) {
  ChannelProducer producer(1);
  for (uint64_t i = 0; i < kChannelWindow; ++i) {
    ASSERT_TRUE(producer.CanPush());
    ASSERT_TRUE(producer.Push(Payload(i), false).ok());
  }
  EXPECT_FALSE(producer.CanPush());
  util::Status refused = producer.Push(Payload(kChannelWindow), false);
  EXPECT_FALSE(refused.ok());
  EXPECT_NE(refused.message().find("window full"), std::string::npos);
  // Refusal must not consume a sequence number or poison the channel.
  EXPECT_EQ(producer.next_seq(), kChannelWindow);
  EXPECT_FALSE(producer.failed());

  // Acking frame 0 reopens exactly one slot.
  ChannelConsumer consumer(1);
  std::vector<DataFrame> frames = producer.PollSend();
  ASSERT_EQ(frames.size(), kChannelWindow);
  ASSERT_TRUE(consumer.OnData(frames[0]).ok());
  producer.OnAck(consumer.MakeAck());
  EXPECT_TRUE(producer.CanPush());
  EXPECT_TRUE(producer.Push(Payload(kChannelWindow), false).ok());
  EXPECT_FALSE(producer.CanPush());
}

TEST(ServerChannelTest, ByteBoundCapsReplayBufferMemory) {
  ChannelProducer producer(9);
  // Three payloads just over a third of the bound each: the byte bound is
  // reached well before the frame window.
  const size_t payload_bytes = kChannelMaxBufferedBytes / 3 + 1;
  static_assert(3 < kChannelWindow);

  // A silent consumer never acks, so Push stops at the byte bound.
  uint64_t pushed = 0;
  while (producer.CanPush()) {
    ASSERT_TRUE(producer.Push(std::vector<uint8_t>(payload_bytes, 0x5A),
                              false)
                    .ok());
    ++pushed;
  }
  EXPECT_EQ(pushed, 3u);
  EXPECT_EQ(producer.stats().buffered_bytes, 3 * payload_bytes);
  EXPECT_EQ(producer.stats().peak_buffered_bytes, 3 * payload_bytes);
  util::Status refused = producer.Push(Payload(pushed), false);
  EXPECT_FALSE(refused.ok());  // backpressure, not failure
  EXPECT_NE(refused.message().find("replay buffer full"), std::string::npos);
  EXPECT_FALSE(producer.failed());

  // Acks release buffered bytes and reopen the window.
  ChannelConsumer consumer(9);
  Deliver(consumer, producer.PollSend());
  producer.OnAck(consumer.MakeAck());
  EXPECT_EQ(producer.stats().buffered_bytes, 0u);
  EXPECT_EQ(producer.stats().peak_buffered_bytes, 3 * payload_bytes);
  EXPECT_TRUE(producer.CanPush());
}

TEST(ServerChannelTest, PushAfterFinalRefused) {
  ChannelProducer producer(2);
  ASSERT_TRUE(producer.Push(Payload(0), true).ok());
  util::Status refused = producer.Push(Payload(1), false);
  EXPECT_FALSE(refused.ok());
  EXPECT_NE(refused.message().find("after final"), std::string::npos);
  EXPECT_FALSE(producer.failed());
}

TEST(ServerChannelTest, DuplicateDeliveryIsIdempotent) {
  ChannelProducer producer(3);
  ChannelConsumer consumer(3);
  ASSERT_TRUE(producer.Push(Payload(0), false).ok());
  ASSERT_TRUE(producer.Push(Payload(1), true).ok());
  std::vector<DataFrame> frames = producer.PollSend();
  ASSERT_EQ(frames.size(), 2u);

  // In order, with each frame seen again after it was delivered.
  Deliver(consumer, {frames[0], frames[0], frames[1], frames[0], frames[1],
                     frames[1]});
  EXPECT_EQ(consumer.TakeDelivered(), ExpectedPayloads(0, 2));
  EXPECT_TRUE(consumer.finished());
  EXPECT_EQ(consumer.stats().frames, 6u);
  EXPECT_EQ(consumer.stats().delivered, 2u);
  EXPECT_EQ(consumer.stats().duplicates, 4u);
  EXPECT_TRUE(consumer.TakeDelivered().empty());
}

TEST(ServerChannelTest, GapIsRejectedAndInOrderDeliveryContinues) {
  ChannelProducer producer(6);
  ChannelConsumer consumer(6);
  for (uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(producer.Push(Payload(i), i == 2).ok());
  }
  std::vector<DataFrame> frames = producer.PollSend();
  ASSERT_EQ(frames.size(), 3u);

  ASSERT_TRUE(consumer.OnData(frames[0]).ok());
  // Seq 2 before seq 1: an ordered transport cannot do that.
  util::Status gap = consumer.OnData(frames[2]);
  EXPECT_FALSE(gap.ok());
  EXPECT_EQ(gap.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(gap.message().find("seq 2 ahead of expected seq 1"),
            std::string::npos)
      << gap.message();
  // Nothing of the rejected frame was delivered or acknowledged.
  EXPECT_EQ(consumer.TakeDelivered(), ExpectedPayloads(0, 1));
  EXPECT_EQ(consumer.next_expected(), 1u);
  EXPECT_EQ(consumer.MakeAck().cumulative, 1u);
  EXPECT_FALSE(consumer.finished());
  EXPECT_EQ(consumer.stats().delivered, 1u);

  // The in-order suffix still delivers.
  ASSERT_TRUE(consumer.OnData(frames[1]).ok());
  ASSERT_TRUE(consumer.OnData(frames[2]).ok());
  EXPECT_EQ(consumer.TakeDelivered(), ExpectedPayloads(1, 3));
  EXPECT_TRUE(consumer.finished());

  // A frame past the final one is rejected too.
  DataFrame past = frames[2];
  past.seq = 3;
  EXPECT_FALSE(consumer.OnData(past).ok());
  EXPECT_TRUE(consumer.TakeDelivered().empty());
  EXPECT_EQ(consumer.stats().delivered, 3u);
}

TEST(ServerChannelTest, StaleAcksAreCountedNotHarmful) {
  ChannelProducer producer(5);
  ChannelConsumer consumer(5);
  ASSERT_TRUE(producer.Push(Payload(0), true).ok());
  Deliver(consumer, producer.PollSend());
  AckFrame ack = consumer.MakeAck();
  producer.OnAck(ack);
  EXPECT_TRUE(producer.complete());
  producer.OnAck(ack);
  producer.OnAck(ack);
  EXPECT_TRUE(producer.complete());
  EXPECT_EQ(producer.stats().stale_acks, 2u);
}

TEST(ServerChannelTest, AckOfUnpushedFramesFailsTheChannel) {
  ChannelProducer producer(8);
  ASSERT_TRUE(producer.Push(Payload(0), false).ok());
  ASSERT_TRUE(producer.Push(Payload(1), false).ok());
  producer.PollSend();
  producer.OnAck({8, 3});  // claims seqs 0..2; only 0..1 exist
  ASSERT_TRUE(producer.failed());
  EXPECT_EQ(producer.error().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(producer.error().message().find("only 2 frames were pushed"),
            std::string::npos)
      << producer.error().message();
  // A failed channel refuses further work without crashing.
  EXPECT_FALSE(producer.CanPush());
  EXPECT_FALSE(producer.Push(Payload(2), false).ok());
  EXPECT_TRUE(producer.PollSend().empty());
}

TEST(ServerChannelTest, ReplayUnackedResendsTheUnackedSuffix) {
  ChannelProducer producer(4);
  ChannelConsumer consumer(4);

  for (uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(producer.Push(Payload(i), i == 3).ok());
  }
  std::vector<DataFrame> first = producer.PollSend();
  ASSERT_EQ(first.size(), 4u);
  // The consumer saw frames 0 and 1 before its connection dropped; the ack
  // for them arrived, frames 2 and 3 evaporated with the socket.
  Deliver(consumer, {first[0], first[1]});
  consumer.TakeDelivered();
  producer.OnAck(consumer.MakeAck());

  // Quiescent producer: nothing is due, nothing is sent.
  ASSERT_TRUE(producer.PollSend().empty());

  // Resume replay: exactly the unacked suffix is re-sent, in order.
  producer.ReplayUnacked();
  std::vector<DataFrame> replayed = producer.PollSend();
  ASSERT_EQ(replayed.size(), 2u);
  EXPECT_EQ(replayed[0].seq, 2u);
  EXPECT_EQ(replayed[1].seq, 3u);
  EXPECT_EQ(producer.stats().resume_replays, 2u);

  // A second replay (client reconnected twice) sends the suffix again.
  producer.ReplayUnacked();
  std::vector<DataFrame> again = producer.PollSend();
  ASSERT_EQ(again.size(), 2u);
  EXPECT_EQ(producer.stats().resume_replays, 4u);
  EXPECT_FALSE(producer.failed());

  // The consumer drops the second copy and the stream finishes
  // bit-identically.
  Deliver(consumer, replayed);
  Deliver(consumer, again);
  EXPECT_EQ(consumer.stats().duplicates, 2u);
  EXPECT_TRUE(consumer.finished());
  EXPECT_EQ(consumer.TakeDelivered(), ExpectedPayloads(2, 4));
  producer.OnAck(consumer.MakeAck());
  EXPECT_TRUE(producer.complete());
  EXPECT_EQ(producer.stats().transmissions, 8u);
}

TEST(ServerChannelTest, ResumedConsumerAckSkipsFramesItHolds) {
  ChannelProducer producer(10);
  ChannelConsumer consumer(10);
  for (uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(producer.Push(Payload(i), false).ok());
  }
  // Every frame arrived, but only the ack for frame 0 reached the producer
  // before the connection died.
  Deliver(consumer, producer.PollSend());
  producer.OnAck({10, 1});

  // The resume rewinds the cursor; the client's re-sent ack lands before
  // the replay goes out, so only frames past it are sent again.
  producer.ReplayUnacked();
  producer.OnAck(consumer.MakeAck());
  EXPECT_TRUE(producer.PollSend().empty());
  ASSERT_TRUE(producer.Push(Payload(4), true).ok());
  std::vector<DataFrame> tail = producer.PollSend();
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].seq, 4u);
  ASSERT_TRUE(consumer.OnData(tail[0]).ok());
  EXPECT_EQ(consumer.TakeDelivered(), ExpectedPayloads(0, 5));
  EXPECT_EQ(consumer.stats().duplicates, 0u);
  producer.OnAck(consumer.MakeAck());
  EXPECT_TRUE(producer.complete());
}

// ---------------------------------------------------------------------------
// Wire codec.

/// One message of every client kind, each field its kind carries set.
std::vector<ClientMessage> ClientSamples() {
  std::vector<ClientMessage> out(6);
  out[0].kind = ClientMessageKind::kOpenSession;
  out[0].model_name = "taxi";
  out[0].initial_samples = 400;
  out[0].max_samples = 6400;
  out[0].population_rows = 4000;
  out[0].seed = 2027;
  out[1].kind = ClientMessageKind::kQuery;
  out[1].sql = "SELECT AVG(fare) FROM t WHERE passengers > 2";
  out[1].max_relative_ci = 0.05;
  out[1].channel = 3;
  out[2].kind = ClientMessageKind::kAck;
  out[2].ack = {3, 7};
  out[3].kind = ClientMessageKind::kCloseSession;
  out[4].kind = ClientMessageKind::kResumeSession;
  out[4].resume_token = 0xfeedfacecafebeefULL;
  out[5].kind = ClientMessageKind::kPing;
  out[5].nonce = 99;
  for (size_t i = 1; i < out.size(); ++i) out[i].session = 12;
  return out;
}

/// One message of every server kind, each field its kind carries set.
std::vector<ServerMessage> ServerSamples() {
  std::vector<ServerMessage> out(7);
  out[0].kind = ServerMessageKind::kSessionOpened;
  out[0].resume_token = 0x1234567890abcdefULL;
  out[1].kind = ServerMessageKind::kQueryStarted;
  out[1].channel = 9;
  out[2].kind = ServerMessageKind::kData;
  out[2].channel = 9;
  out[2].data = {9, 2, true, {1, 2, 3, 250}};
  out[3].kind = ServerMessageKind::kError;
  out[3].channel = 9;
  out[3].code = 3;
  out[3].message = "bad query";
  out[4].kind = ServerMessageKind::kSessionClosed;
  out[5].kind = ServerMessageKind::kPong;
  out[5].nonce = 99;
  out[6].kind = ServerMessageKind::kSessionResumed;
  for (ServerMessage& msg : out) msg.session = 4;
  return out;
}

TEST(ServerWireTest, ClientMessageRoundTrips) {
  for (const ClientMessage& msg : ClientSamples()) {
    auto decoded = DecodeClientMessage(EncodeClientMessage(msg));
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    EXPECT_EQ(decoded->kind, msg.kind);
    EXPECT_EQ(decoded->model_name, msg.model_name);
    EXPECT_EQ(decoded->initial_samples, msg.initial_samples);
    EXPECT_EQ(decoded->max_samples, msg.max_samples);
    EXPECT_EQ(decoded->population_rows, msg.population_rows);
    EXPECT_EQ(decoded->seed, msg.seed);
    EXPECT_EQ(decoded->session, msg.session);
    EXPECT_EQ(decoded->sql, msg.sql);
    EXPECT_EQ(decoded->max_relative_ci, msg.max_relative_ci);
    EXPECT_EQ(decoded->channel, msg.channel);
    EXPECT_EQ(decoded->ack.channel, msg.ack.channel);
    EXPECT_EQ(decoded->ack.cumulative, msg.ack.cumulative);
    EXPECT_EQ(decoded->resume_token, msg.resume_token);
    EXPECT_EQ(decoded->nonce, msg.nonce);
  }
}

TEST(ServerWireTest, AckIsKindSessionChannelAndCumulative) {
  const ClientMessage ack = ClientSamples()[2];
  ASSERT_EQ(ack.kind, ClientMessageKind::kAck);
  EXPECT_EQ(EncodeClientMessage(ack).size(), 1u + 3 * sizeof(uint64_t));
}

TEST(ServerWireTest, ServerMessageRoundTrips) {
  for (const ServerMessage& msg : ServerSamples()) {
    auto decoded = DecodeServerMessage(EncodeServerMessage(msg));
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    EXPECT_EQ(decoded->kind, msg.kind);
    EXPECT_EQ(decoded->session, msg.session);
    EXPECT_EQ(decoded->channel, msg.channel);
    EXPECT_EQ(decoded->data.seq, msg.data.seq);
    EXPECT_EQ(decoded->data.final, msg.data.final);
    EXPECT_EQ(decoded->data.payload, msg.data.payload);
    EXPECT_EQ(decoded->code, msg.code);
    EXPECT_EQ(decoded->message, msg.message);
    EXPECT_EQ(decoded->resume_token, msg.resume_token);
    EXPECT_EQ(decoded->nonce, msg.nonce);
  }
}

/// Feeds `decode` every strict prefix of each sample encoding and the
/// encoding plus a trailing byte (each must fail cleanly), every single-bit
/// flip of it, and seeded random buffers up to 64 bytes behind every kind
/// byte, known or not. A buffer that decodes must be a valid message: its
/// encoding decodes back to the same bytes.
template <typename Message, typename Encode, typename Decode>
void FuzzDecoder(const std::vector<Message>& samples, Encode encode,
                 Decode decode, uint64_t seed) {
  auto check = [&](const std::vector<uint8_t>& bytes) {
    auto decoded = decode(bytes);
    if (!decoded.ok()) return;
    const std::vector<uint8_t> encoded = encode(*decoded);
    auto again = decode(encoded);
    ASSERT_TRUE(again.ok()) << again.status().message();
    EXPECT_EQ(encode(*again), encoded);
  };
  for (const Message& msg : samples) {
    const std::vector<uint8_t> bytes = encode(msg);
    for (size_t n = 0; n < bytes.size(); ++n) {
      std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + n);
      EXPECT_FALSE(decode(prefix).ok())
          << "kind " << int(bytes[0]) << " prefix len " << n;
    }
    std::vector<uint8_t> trailing = bytes;
    trailing.push_back(0xAB);
    EXPECT_FALSE(decode(trailing).ok()) << "kind " << int(bytes[0]);
    for (size_t bit = 0; bit < 8 * bytes.size(); ++bit) {
      std::vector<uint8_t> flipped = bytes;
      flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      check(flipped);
    }
  }
  util::Rng rng(seed);
  for (int kind = 0; kind < 10; ++kind) {
    for (int trial = 0; trial < 300; ++trial) {
      std::vector<uint8_t> bytes(1 + rng.NextIndex(64));
      bytes[0] = static_cast<uint8_t>(kind);
      for (size_t i = 1; i < bytes.size(); ++i) {
        bytes[i] = static_cast<uint8_t>(rng.NextUint64());
      }
      check(bytes);
    }
  }
}

TEST(ServerWireTest, ClientDecoderSurvivesCorruptBuffers) {
  FuzzDecoder(ClientSamples(), EncodeClientMessage, DecodeClientMessage, 17);
  EXPECT_FALSE(DecodeClientMessage({99}).ok());  // unknown kind
}

TEST(ServerWireTest, ServerDecoderSurvivesCorruptBuffers) {
  FuzzDecoder(ServerSamples(), EncodeServerMessage, DecodeServerMessage, 29);
  EXPECT_FALSE(DecodeServerMessage({99, 0, 0, 0, 0, 0, 0, 0, 0}).ok());
}

TEST(ServerWireTest, EstimateEncodingIsBitExact) {
  Estimate e;
  e.pool_rows = 800;
  e.result.groups = {{0, 10.5, 100, 0.5}, {1, -0.0, 5, 2.0}, {7, 3.25, 0, 0.0}};

  std::vector<uint8_t> a = EncodeEstimate(e);
  std::vector<uint8_t> b = EncodeEstimate(e);
  EXPECT_EQ(a, b);

  auto decoded = DecodeEstimate(a);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded->pool_rows, e.pool_rows);
  ASSERT_EQ(decoded->result.groups.size(), e.result.groups.size());
  for (size_t i = 0; i < e.result.groups.size(); ++i) {
    EXPECT_EQ(decoded->result.groups[i].group, e.result.groups[i].group);
    EXPECT_EQ(decoded->result.groups[i].value, e.result.groups[i].value);
    EXPECT_EQ(decoded->result.groups[i].support, e.result.groups[i].support);
    EXPECT_EQ(decoded->result.groups[i].ci_half_width,
              e.result.groups[i].ci_half_width);
  }
  // Re-encoding the decode reproduces the bytes (doubles travel as raw
  // bits, so even -0.0 survives).
  EXPECT_EQ(EncodeEstimate(*decoded), a);

  for (size_t n = 0; n + 1 < a.size(); ++n) {
    std::vector<uint8_t> prefix(a.begin(), a.begin() + n);
    EXPECT_FALSE(DecodeEstimate(prefix).ok());
  }
}

TEST(ServerWireTest, FramedStreamRoundTripsAndRejectsOversize) {
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  ServerMessage msg;
  msg.kind = ServerMessageKind::kQueryStarted;
  msg.session = 2;
  msg.channel = 5;
  ASSERT_TRUE(WriteFramed(f, EncodeServerMessage(msg)).ok());
  ASSERT_TRUE(WriteFramed(f, EncodeServerMessage(msg)).ok());
  std::rewind(f);
  for (int i = 0; i < 2; ++i) {
    auto body = ReadFramed(f);
    ASSERT_TRUE(body.ok()) << body.status().message();
    ASSERT_TRUE(body->has_value());
    auto decoded = DecodeServerMessage(**body);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->channel, 5u);
  }
  auto eof = ReadFramed(f);
  ASSERT_TRUE(eof.ok());
  EXPECT_FALSE(eof->has_value());  // clean EOF between messages
  std::fclose(f);

  // An oversized length prefix is rejected before allocation.
  std::FILE* g = std::tmpfile();
  ASSERT_NE(g, nullptr);
  const uint32_t huge = kMaxFrameBytes + 1;
  ASSERT_EQ(std::fwrite(&huge, sizeof(huge), 1, g), 1u);
  std::rewind(g);
  EXPECT_FALSE(ReadFramed(g).ok());
  std::fclose(g);

  // Truncation inside a message body is an error, not EOF.
  std::FILE* h = std::tmpfile();
  ASSERT_NE(h, nullptr);
  const uint32_t n = 16;
  ASSERT_EQ(std::fwrite(&n, sizeof(n), 1, h), 1u);
  const uint8_t partial[4] = {1, 2, 3, 4};
  ASSERT_EQ(std::fwrite(partial, 1, 4, h), 4u);
  std::rewind(h);
  EXPECT_FALSE(ReadFramed(h).ok());
  std::fclose(h);
}

}  // namespace
}  // namespace deepaqp::server
